"""Simulation and optimization lab for cloning-purification diversity
over multi-mode qubit channels with depolarization and crosstalk."""

import os
import sys
import warnings

# One BLAS thread per process.  The work is many small dense solves, for
# which a multi-threaded BLAS only adds synchronisation cost, and a
# process pool already spreads tasks over the cores.  The variables are
# read when NumPy loads, so they are set before any submodule imports it;
# forked pool workers inherit them, and values already set in the
# environment win.  If NumPy is already loaded the pin comes too late for
# this process: with the other core busy one 32 x 32 ``eigh`` then took
# 15 ms against 0.19 ms pinned, so that case is reported.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not all(v in os.environ for v in _THREAD_VARS):
    warnings.warn(
        "qumimo was imported after NumPy, so its one-thread BLAS pin does not apply "
        f"to this process; import qumimo first or set {', '.join(_THREAD_VARS)}",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .channel import Channel, ChannelParams, channel_choi  # noqa: F401
from .cloner import (  # noqa: F401
    AsymmetryVector,
    clone_amplitudes,
    clone_fidelities,
    cloner_choi,
    feasible_boundary,
)
from .decoder import (  # noqa: F401
    build_qr,
    compose_effective_map,
    optimize_gamma,
    purification_sdp,
    rayleigh_bound,
)
from .metrics import asymmetry_index, empirical_density  # noqa: F401
from .strategies import STRATEGIES, FidelityRecord, run_strategy  # noqa: F401
