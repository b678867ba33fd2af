"""Nested-dissection ordering.

The paper's default preordering is Dulmage–Mendelsohn followed by METIS
nested dissection (§IV "Preordering": "ND is commonly applied to
coefficient matrices for parallel factorization").  METIS is not
available offline, so this is a from-scratch ND:

* bisect each connected subgraph with a BFS level structure grown from
  a pseudo-peripheral vertex, cutting at the median-level frontier
  (a George-style level-set bisection);
* take as separator the cut-level vertices adjacent to the far side,
  so removing the separator genuinely disconnects the halves;
* order: recurse(left), recurse(right), then the separator last —
  separators stack up at the bottom-right of the matrix exactly as the
  paper's Fig. 2-style structure expects;
* small subgraphs fall back to minimum degree (the standard hybrid).

Each dissection node works on its own induced subgraph, built once with
local numbering (local ``i`` ↔ ``verts[i]``) and each vertex's
neighbour order kept, as Python lists: the BFS, the pseudo-peripheral
search and the component labelling never touch a full-size mask.  The
node's lists are dropped before its children are dissected, so only
numpy vertex sets stay alive along the recursion path.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import _bfs, _component_orders, _peripheral, adjacency_from_pattern

__all__ = ["nested_dissection_order"]


def _min_degree_local(vl, xl, al, members):
    """Minimum-degree elimination of ``members`` (local ids of a list graph).

    ``vl`` maps local ids to global ones; neighbours outside ``members``
    are ignored and ties go to the lowest global id (leaf baskets).
    """
    vset = set(members)
    adj = {vl[i]: {vl[j] for j in al[xl[i] : xl[i + 1]] if j in vset} for i in members}
    # lazy heap of (degree, vertex): an entry is live while its vertex is
    # uneliminated and its degree current, so pops follow min (degree, id)
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if v not in adj or d != len(adj[v]):
            continue
        order.append(v)
        nbrs = adj.pop(v)
        for u in nbrs:
            nb = adj[u]
            nb.discard(v)
            nb.update(nbrs)
            nb.discard(u)
            heapq.heappush(heap, (len(nb), u))
    return order


class _Dissection:
    """Recursive dissection of one graph; appends the ordering to ``out``."""

    def __init__(self, xadj, adjncy, leaf_size, out):
        self.xadj = xadj
        self.adjncy = adjncy
        self.deg = np.diff(xadj)
        self.leaf_size = leaf_size
        self.out = out
        # global -> local id scratch; all -1 between subgraph builds
        self.local = np.full(xadj.shape[0] - 1, -1, dtype=np.int64)

    def _subgraph(self, verts):
        """Induced subgraph on ``verts``: ``(xadj, adjncy, edge_src)`` in local ids."""
        m = verts.shape[0]
        lens = self.deg[verts]
        ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        gather = np.repeat(self.xadj[verts] - ptr[:-1], lens) + np.arange(ptr[-1])
        self.local[verts] = np.arange(m)
        nbr = self.local[self.adjncy[gather]]
        self.local[verts] = -1
        inside = nbr >= 0
        src = np.repeat(np.arange(m), lens)[inside]
        lxadj = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=m), out=lxadj[1:])
        return lxadj, nbr[inside], src

    def dissect(self, verts):
        for piece in self._split(verts):
            if isinstance(piece, list):
                self.out.extend(piece)
            else:
                self.dissect(piece)

    def _split(self, verts):
        """One dissection node: its pieces in output order.

        A piece is a list when already ordered (a leaf or the separator)
        and a vertex array when it still needs dissecting.  The node's
        list graph dies when this returns.
        """
        m = verts.shape[0]
        lxadj, ladj, src = self._subgraph(verts)
        vl, xl, al = verts.tolist(), lxadj.tolist(), ladj.tolist()
        everything = range(m)
        if m <= self.leaf_size:
            return [_min_degree_local(vl, xl, al, everything)]

        def piece(local):  # local: list of local ids
            if len(local) <= self.leaf_size:
                return _min_degree_local(vl, xl, al, local)
            return verts[local]

        # a component's search starts at its smallest vertex; that first
        # BFS doubles as the connectivity test
        start = int(np.argmin(verts))
        levels = [-1] * m
        order = _bfs(xl, al, start, levels)
        if len(order) < m:
            # components in order of first appearance, members sorted
            comps = [order] + _component_orders(xl, al, levels)
            comps.sort(key=min)
            return [piece(sorted(c, key=vl.__getitem__)) for c in comps]
        _, order = _peripheral(xl, al, self.deg[verts].tolist(), start, levels, order=order)
        ecc = levels[order[-1]]
        if ecc < 2:
            # diameter too small to bisect — a dense blob; eliminate directly
            return [_min_degree_local(vl, xl, al, everything)]
        cut = ecc // 2
        lv = np.asarray(levels, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
        at = lv[order]
        # separator: cut-level vertices with an edge to the far side
        on_sep = np.zeros(m, dtype=bool)
        on_sep[src[(lv[src] == cut) & (lv[ladj] > cut)]] = True
        mid = order[at == cut]
        left = np.concatenate([order[at < cut], mid[~on_sep[mid]]])
        right = order[at > cut]
        if left.size == 0 or right.size == 0:
            return [_min_degree_local(vl, xl, al, everything)]
        sep = verts[mid[on_sep[mid]]].tolist()
        return [piece(left.tolist()), piece(right.tolist()), sep]


def nested_dissection_order(A, leaf_size=32):
    """Nested-dissection permutation of the symmetrized pattern.

    Parameters
    ----------
    A:
        Square CSR matrix.
    leaf_size:
        Subgraphs at or below this size are ordered with local minimum
        degree instead of being dissected further.
    """
    xadj, adjncy = adjacency_from_pattern(A)
    n = xadj.shape[0] - 1
    out = []
    _Dissection(xadj, adjncy, leaf_size, out).dissect(np.arange(n, dtype=np.int64))
    perm = np.asarray(out, dtype=np.int64)
    if perm.shape[0] != n or np.unique(perm).shape[0] != n:
        raise AssertionError("nested dissection produced a non-permutation")
    return perm
