"""Level-batched vectorized kernels and the pattern-keyed symbolic cache.

The framework's hot numeric paths — the numeric ILU factorization,
triangular sweeps and the upper-stage DES — live here as named kernels
with interchangeable backends (``"scalar"`` reference vs ``"batched"``
level-set NumPy), resolved through :func:`get_kernel`.  Symbolic
analysis products (diagonal positions, level sets, sweep and factor
plans, row costs) are memoized per sparsity-pattern fingerprint in
:class:`SymbolicCache` so repeated factor/solve cycles reuse them.

Registered kernels (each with ``scalar`` and ``batched`` backends):

* ``trisolve_lower`` — forward solve ``L y = b`` on the combined factor;
* ``trisolve_upper`` — backward solve ``U x = y``;
* ``upper_p2p_sim`` — the point-to-point upper-stage DES;
* ``ilu_factor`` — the numeric ILU on a fixed pattern (row loop vs
  level-batched steps).

Backends agree bit-for-bit; see ``docs/kernel_backends.md`` for the
accumulation-order contract and how to add a backend.
"""

from .registry import (
    available_backends,
    available_kernels,
    get_default_backend,
    get_kernel,
    register_kernel,
    set_default_backend,
)
from .plans import (
    FactorPlan,
    TriSolvePlan,
    backward_level_sets,
    build_factor_plan,
    build_producer_csr,
    build_trisolve_plan,
    diag_positions,
    forward_level_sets,
)
from .cache import (
    SymbolicAnalysis,
    SymbolicCache,
    cached_analysis,
    clear_default_cache,
    configure_default_cache,
    default_cache,
    freeze_product,
    matrix_fingerprint,
    pattern_fingerprint,
    set_validation_hook,
)

# importing the kernel modules registers their backends; all are part
# of the public surface (re-exported via __all__, no suppression needed)
from . import des, factor, trisolve

__all__ = [
    "des",
    "factor",
    "trisolve",
    "register_kernel",
    "get_kernel",
    "available_backends",
    "available_kernels",
    "set_default_backend",
    "get_default_backend",
    "TriSolvePlan",
    "build_trisolve_plan",
    "FactorPlan",
    "build_factor_plan",
    "forward_level_sets",
    "backward_level_sets",
    "diag_positions",
    "build_producer_csr",
    "SymbolicAnalysis",
    "SymbolicCache",
    "pattern_fingerprint",
    "matrix_fingerprint",
    "cached_analysis",
    "default_cache",
    "clear_default_cache",
    "configure_default_cache",
    "freeze_product",
    "set_validation_hook",
]
