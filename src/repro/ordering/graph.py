"""Graph view of a sparse pattern.

Orderings operate on the undirected adjacency graph of ``A + Aᵀ`` with
self-loops removed.  The graph is stored CSR-style (``xadj``/``adjncy``
in METIS terminology) so traversals are array scans, not dict hops.

The traversals themselves (BFS, pseudo-peripheral search, component
labelling) run on ``tolist()`` copies of ``xadj``/``adjncy``: a scalar
BFS over Python lists is an order of magnitude faster than the same loop
over numpy scalars, and visiting the frontier in order is what fixes the
RCM and nested-dissection permutations.  The private list-level helpers
(``_bfs``, ``_peripheral``, ``_component_orders``) are shared by
``rcm`` and ``nd``; the public functions below convert once per call.
In a list ``levels``, ``-1`` marks a vertex the search may still enter
and ``-2`` a blocked (masked-out) one.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.pattern import symmetrize_pattern

__all__ = [
    "adjacency_from_pattern",
    "vertex_degrees",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_node",
]


def adjacency_from_pattern(A: CSRMatrix, symmetrize: bool = True):
    """Build (xadj, adjncy) for the undirected graph of the pattern.

    Self-loops (diagonal entries) are dropped.  When ``symmetrize`` is
    true the pattern of ``A + Aᵀ`` is used so the graph is undirected
    even for structurally nonsymmetric matrices; otherwise the stored
    entries are kept in storage order, duplicates included.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("adjacency requires a square matrix")
    S = symmetrize_pattern(A) if symmetrize else A
    n = S.n_rows
    rows = S._row_of()
    off_diag = S.indices != rows
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[off_diag], minlength=n), out=xadj[1:])
    return xadj, S.indices[off_diag]


def vertex_degrees(xadj):
    return np.diff(np.asarray(xadj, dtype=np.int64))


def _bfs(xadj, adjncy, root, levels):
    """Scalar BFS on list graphs; returns the visit order.

    ``levels`` must hold -1 on every vertex the search may enter (other
    negative values block a vertex); reached vertices get their distance.
    """
    levels[root] = 0
    order = [root]
    # iterating a list while appending to it walks the growing queue
    for v in order:
        lv = levels[v] + 1
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if levels[u] == -1:
                levels[u] = lv
                order.append(u)
    return order


def _peripheral(xadj, adjncy, deg, start, levels, max_iter=8, order=None):
    """George–Liu search on list graphs; returns ``(vertex, order)``.

    ``levels`` follows the ``_bfs`` contract and is left holding the BFS
    levels from the returned vertex.  Ties among the last level's
    vertices go to the first minimum of ``deg`` in visit order.  A
    caller that already ran the BFS from ``start`` passes its ``order``
    (with ``levels`` still holding it).
    """
    v = start
    if order is None:
        order = _bfs(xadj, adjncy, v, levels)
    ecc = levels[order[-1]]
    for _ in range(max_iter):
        k = len(order) - 1  # the last level is a suffix of the visit order
        while k > 0 and levels[order[k - 1]] == ecc:
            k -= 1
        cand = min(order[k:], key=deg.__getitem__)
        for u in order:
            levels[u] = -1
        ord2 = _bfs(xadj, adjncy, cand, levels)
        ecc2 = levels[ord2[-1]]
        if ecc2 <= ecc:
            return cand, ord2
        v, order, ecc = cand, ord2, ecc2
    return v, order


def _component_orders(xadj, adjncy, levels):
    """BFS visit order of each component, seeded in vertex-index order.

    A seed is any vertex not yet reached and not blocked in ``levels``;
    ``levels`` is restored after each search, so on a directed graph a
    later search may re-enter vertices an earlier one reached.
    """
    n = len(xadj) - 1
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s] or levels[s] != -1:
            continue
        order = _bfs(xadj, adjncy, s, levels)
        for v in order:
            seen[v] = True
            levels[v] = -1
        comps.append(order)
    return comps


def _open_levels(n, mask, root=None):
    """A fresh ``levels`` list: -1 inside ``mask`` (everywhere if None), -2 outside."""
    if root is not None and mask is not None and not mask[root]:
        raise ValueError("root not in mask")
    if mask is None:
        return [-1] * n
    return np.where(np.asarray(mask, dtype=bool), -1, -2).tolist()


def _levels_array(levels):
    return np.maximum(np.asarray(levels, dtype=np.int64), -1)


def bfs_levels(xadj, adjncy, root, mask=None):
    """Breadth-first level structure from ``root``.

    Returns ``(levels, order)`` where ``levels[v]`` is the BFS distance
    (-1 for unreached / masked-out vertices) and ``order`` lists the
    reached vertices in visit order.  ``mask`` restricts the traversal to
    vertices where it is true.
    """
    levels = _open_levels(xadj.shape[0] - 1, mask, root)
    order = _bfs(xadj.tolist(), adjncy.tolist(), int(root), levels)
    return _levels_array(levels), np.asarray(order, dtype=np.int64)


def connected_components(xadj, adjncy, mask=None):
    """Label connected components; returns (labels, n_components).

    Masked-out vertices get label -1.
    """
    n = xadj.shape[0] - 1
    comps = _component_orders(xadj.tolist(), adjncy.tolist(), _open_levels(n, mask))
    labels = np.full(n, -1, dtype=np.int64)
    for c, order in enumerate(comps):
        labels[order] = c
    return labels, len(comps)


def pseudo_peripheral_node(xadj, adjncy, start, mask=None, max_iter=8):
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly BFS from the current candidate and move to a minimum-
    degree vertex of the last level until the eccentricity stops growing.
    Produces the long-axis endpoints RCM and dissection want.  Returns
    ``(vertex, levels, order)`` of the final BFS, as ``bfs_levels`` does.
    """
    levels = _open_levels(xadj.shape[0] - 1, mask, start)
    v, order = _peripheral(
        xadj.tolist(), adjncy.tolist(), vertex_degrees(xadj).tolist(), int(start), levels,
        max_iter,
    )
    return v, _levels_array(levels), np.asarray(order, dtype=np.int64)
