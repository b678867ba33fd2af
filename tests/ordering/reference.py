"""Scalar reference implementations of the graph and pattern helpers.

These are the original per-row / per-vertex loops that the vectorized
pattern algebra and the list-based graph traversals replaced.  They are
slow but obviously correct, and the property tests in
``test_graph_oracles.py`` require the production code to agree with
them bit for bit: same visit orders, same levels, same component order,
same storage order (duplicates included).  Only ``CSRMatrix`` storage
and numpy are used here, never the helpers under test.
"""

import numpy as np

from repro.sparse.csr import CSRMatrix


# ----------------------------------------------------------------------
# pattern algebra
# ----------------------------------------------------------------------
def transpose(csr):
    """Bucket-counting transpose, one entry at a time."""
    n, m = csr.n_rows, csr.n_cols
    counts = np.bincount(csr.indices, minlength=m)
    t_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=t_indptr[1:])
    t_indices = np.empty(csr.nnz, dtype=np.int64)
    t_data = np.empty(csr.nnz)
    fill = t_indptr[:-1].copy()
    for r in range(n):
        for k in range(csr.indptr[r], csr.indptr[r + 1]):
            c = csr.indices[k]
            t_indices[fill[c]] = r
            t_data[fill[c]] = csr.data[k]
            fill[c] += 1
    return CSRMatrix(m, n, t_indptr, t_indices, t_data, sort=False, check=False)


def pattern_union(a, b):
    """Per-row ``np.union1d`` of the two patterns; values become 1.0."""
    n = a.n_rows
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for r in range(n):
        ca = a.indices[a.indptr[r] : a.indptr[r + 1]]
        cb = b.indices[b.indptr[r] : b.indptr[r + 1]]
        u = np.union1d(ca, cb)
        chunks.append(u)
        indptr[r + 1] = indptr[r] + u.shape[0]
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return CSRMatrix(
        n, a.n_cols, indptr, indices, np.ones(indices.shape[0]), sort=False, check=False
    )


def symmetrize_pattern(csr):
    return pattern_union(csr, transpose(csr))


def has_full_diagonal(csr):
    """Per-row ``searchsorted`` (rows must be sorted)."""
    for r in range(min(csr.n_rows, csr.n_cols)):
        cols = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
        k = np.searchsorted(cols, r)
        if k >= cols.shape[0] or cols[k] != r:
            return False
    return True


def _triangular(csr, keep):
    n = csr.n_rows
    lens = np.zeros(n, dtype=np.int64)
    masks = []
    for r in range(n):
        cols = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
        m = keep(r, cols)
        masks.append(m)
        lens[r] = int(np.count_nonzero(m))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    mask = np.concatenate(masks) if masks else np.empty(0, dtype=bool)
    return CSRMatrix(
        n, csr.n_cols, indptr, csr.indices[mask], csr.data[mask], sort=False, check=False
    )


TRIANGULAR = {
    "lower_pattern": lambda A: _triangular(A, lambda r, c: c <= r),
    "upper_pattern": lambda A: _triangular(A, lambda r, c: c >= r),
    "strict_lower_pattern": lambda A: _triangular(A, lambda r, c: c < r),
    "strict_upper_pattern": lambda A: _triangular(A, lambda r, c: c > r),
}


# ----------------------------------------------------------------------
# graph traversals
# ----------------------------------------------------------------------
def adjacency_from_pattern(A, symmetrize=True):
    S = symmetrize_pattern(A) if symmetrize else A
    n = S.n_rows
    xadj = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for r in range(n):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        cols = cols[cols != r]
        chunks.append(cols)
        xadj[r + 1] = xadj[r] + cols.shape[0]
    adjncy = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return xadj, adjncy


def bfs_levels(xadj, adjncy, root, mask=None):
    """Scalar BFS over numpy arrays with an optional full-size mask."""
    n = xadj.shape[0] - 1
    levels = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[root]:
        raise ValueError("root not in mask")
    levels[root] = 0
    order = np.empty(n, dtype=np.int64)
    order[0] = root
    head, tail = 0, 1
    while head < tail:
        v = order[head]
        head += 1
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if levels[u] < 0 and (mask is None or mask[u]):
                levels[u] = levels[v] + 1
                order[tail] = u
                tail += 1
    return levels, order[:tail]


def connected_components(xadj, adjncy, mask=None):
    n = xadj.shape[0] - 1
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for s in range(n):
        if labels[s] >= 0 or (mask is not None and not mask[s]):
            continue
        _, order = bfs_levels(xadj, adjncy, s, mask=mask)
        labels[order] = comp
        comp += 1
    return labels, comp


def pseudo_peripheral_node(xadj, adjncy, start, mask=None, max_iter=8):
    v = start
    levels, order = bfs_levels(xadj, adjncy, v, mask=mask)
    ecc = int(levels[order].max()) if order.size else 0
    for _ in range(max_iter):
        last = order[levels[order] == ecc]
        deg = np.diff(xadj)[last]
        cand = int(last[np.argmin(deg)])
        lv2, ord2 = bfs_levels(xadj, adjncy, cand, mask=mask)
        ecc2 = int(lv2[ord2].max()) if ord2.size else 0
        if ecc2 <= ecc:
            return cand, lv2, ord2
        v, levels, order, ecc = cand, lv2, ord2, ecc2
    return v, levels, order


def reverse_cuthill_mckee(xadj, adjncy):
    """RCM with a ``pop(0)`` queue and a full-size mask per component."""
    n = xadj.shape[0] - 1
    deg = np.diff(xadj)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for seed in range(n):
        if visited[seed]:
            continue
        root, _, _ = pseudo_peripheral_node(xadj, adjncy, seed, mask=~visited)
        queue = [root]
        visited[root] = True
        while queue:
            v = queue.pop(0)
            order[pos] = v
            pos += 1
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                nbrs = nbrs[np.argsort(deg[nbrs], kind="stable")]
                visited[nbrs] = True
                queue.extend(int(u) for u in nbrs)
    return order[::-1].copy()


# ----------------------------------------------------------------------
# nested dissection (full-graph masks at every node)
# ----------------------------------------------------------------------
def _min_degree_local(xadj, adjncy, verts):
    vset = {int(v) for v in verts}
    adj = {v: {int(u) for u in adjncy[xadj[v] : xadj[v + 1]] if int(u) in vset} for v in vset}
    order = []
    remaining = set(vset)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        order.append(v)
        remaining.discard(v)
        nbrs = [u for u in adj[v] if u in remaining]
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(w for w in nbrs if w != u)
        adj[v] = set()
    return order


def components_of(xadj, adjncy, verts):
    """Components within ``verts``: by first appearance, members sorted."""
    n = xadj.shape[0] - 1
    mask = np.zeros(n, dtype=bool)
    mask[verts] = True
    comps = []
    for v in verts:
        v = int(v)
        if not mask[v]:
            continue
        _, order = bfs_levels(xadj, adjncy, v, mask=mask)
        mask[order] = False
        comps.append(np.sort(order))
    return comps


def _dissect_connected(xadj, adjncy, verts, leaf_size, out):
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    n = xadj.shape[0] - 1
    mask = np.zeros(n, dtype=bool)
    mask[verts] = True
    _, levels, reached = pseudo_peripheral_node(xadj, adjncy, int(verts[0]), mask=mask)
    ecc = int(levels[reached].max()) if reached.size else 0
    if ecc < 2:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    cut = ecc // 2
    near = reached[levels[reached] < cut]
    mid = reached[levels[reached] == cut]
    far = reached[levels[reached] > cut]
    sep_mask = np.zeros(n, dtype=bool)
    for v in mid:
        nbrs = adjncy[xadj[v] : xadj[v + 1]]
        if np.any(mask[nbrs] & (levels[nbrs] > cut)):
            sep_mask[v] = True
    sep = mid[sep_mask[mid]]
    left = np.concatenate([near, mid[~sep_mask[mid]]])
    if left.size == 0 or far.size == 0:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    _dissect_any(xadj, adjncy, left, leaf_size, out)
    _dissect_any(xadj, adjncy, far, leaf_size, out)
    out.extend(int(v) for v in sep)


def _dissect_any(xadj, adjncy, verts, leaf_size, out):
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    for comp in components_of(xadj, adjncy, verts):
        _dissect_connected(xadj, adjncy, comp, leaf_size, out)


def nested_dissection_order(A, leaf_size=32):
    xadj, adjncy = adjacency_from_pattern(A)
    out = []
    _dissect_any(xadj, adjncy, np.arange(A.n_rows, dtype=np.int64), leaf_size, out)
    return np.asarray(out, dtype=np.int64)
