"""Monte-Carlo laboratory for quadratic FBSDEs with rough drift.

Forward Euler simulation with deterministic substreams, least-squares
backward induction for truncated quadratic drivers, closed-form oracles,
first-variation and Malliavin derivative solvers, and the audit suite
(a-priori bounds, truncation stabilization, path-regularity rates,
representation identities) tying them together.
"""

import os as _os

# Cap the BLAS worker pools before numpy spins them up.  Results do not
# depend on this — every solver is deterministic — it only bounds CPU use.
_threads = _os.environ.get("QFBSDE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from . import (core, forward, backward, oracles,  # noqa: E402
               derivatives, analysis, registry, config, runner)
from .core import *  # noqa: E402,F401,F403
from .forward import *  # noqa: E402,F401,F403
from .backward import *  # noqa: E402,F401,F403
from .oracles import *  # noqa: E402,F401,F403
from .derivatives import *  # noqa: E402,F401,F403
from .analysis import *  # noqa: E402,F401,F403
from .registry import *  # noqa: E402,F401,F403
from .config import *  # noqa: E402,F401,F403
from .runner import *  # noqa: E402,F401,F403

# each module's ``__all__`` is the one list of what it exports
__all__ = ["__version__"] + [
    name
    for module in (core, forward, backward, oracles, derivatives, analysis,
                   registry, config, runner)
    for name in module.__all__
]
