"""The hot kernels under the names the library looks up at call time.

Call sites reach ``S+`` and ``Li2`` as attributes of this module
(``_backend.splus(...)``), not through names bound at import, so that a
profiler or tracer can patch them here in one place.
"""

from ._purepy import dilog, splus

BACKEND = "pure"

__all__ = ["BACKEND", "dilog", "splus"]
