"""Reverse Cuthill–McKee ordering.

RCM is the paper's locality-preserving comparison ordering: Table II
shows it (and LS-RCM, the level-set ordering imposed on top of it)
needing the fewest GMRES iterations, and Fig. 13 measures Javelin's
speedup when the input is RCM-preordered.

Classical algorithm: BFS from a pseudo-peripheral vertex visiting
neighbors in increasing-degree order, then reverse the visit order.
Disconnected graphs are handled component by component.
"""

from __future__ import annotations

import numpy as np

from .graph import _peripheral, adjacency_from_pattern, vertex_degrees

__all__ = ["reverse_cuthill_mckee", "rcm_order"]


def reverse_cuthill_mckee(xadj, adjncy):
    """RCM permutation of the graph (gather convention)."""
    n = xadj.shape[0] - 1
    xl, al = xadj.tolist(), adjncy.tolist()
    deg = vertex_degrees(xadj).tolist()
    # ``levels`` doubles as the visited flag (-2): the pseudo-peripheral
    # search of each component is blocked from earlier components and
    # resets only what it reached, so it costs O(component), not O(n)
    levels = [-1] * n
    order = []
    # process components in order of their lowest-numbered vertex
    for seed in range(n):
        if levels[seed] != -1:
            continue
        root, reached = _peripheral(xl, al, deg, seed, levels)
        for v in reached:
            levels[v] = -1
        levels[root] = -2
        queue = [root]
        # iterating a list while appending to it walks the growing queue
        for v in queue:
            nbrs = [u for u in al[xl[v] : xl[v + 1]] if levels[u] == -1]
            nbrs.sort(key=deg.__getitem__)  # stable: ties keep adjacency order
            for u in nbrs:
                levels[u] = -2
            queue.extend(nbrs)
        order.extend(queue)
    assert len(order) == n
    return np.asarray(order[::-1], dtype=np.int64)


def rcm_order(A):
    """RCM permutation of a CSR matrix's symmetrized pattern."""
    xadj, adjncy = adjacency_from_pattern(A)
    return reverse_cuthill_mckee(xadj, adjncy)
