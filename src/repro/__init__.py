"""repro: a reproduction of "A fork() in the road" (HotOS 2019).

The package has four faces:

* :mod:`repro.core` — the constructive contribution: a spawn-centric
  process-creation API for real operating systems, plus fork-safety
  machinery.
* :mod:`repro.sim` — a simulated Unix kernel in which fork, vfork,
  clone, exec, posix_spawn and a Zircon-style cross-process API are all
  implemented and their costs measurable.
* :mod:`repro.analysis` — a static analyzer for fork-unsafe Python code.
* :mod:`repro.bench` — the harness that regenerates every figure and
  table of the paper's evaluation (see DESIGN.md / EXPERIMENTS.md).
"""

from .errors import (AuthError, BenchError, CannotExpress, DeadlockError,
                     ExecError, FaultPlanError,
                     ForkSafetyError, GatewayError, GatewayProtocolError,
                     LintError, Overloaded, RateLimited,
                     ReproError, SimError, SimMemoryError, SimOSError,
                     SimSegfault, SpawnError, SpawnTimeout)

__version__ = "2.0.0"

__all__ = [
    "AuthError", "BenchError", "CannotExpress", "DeadlockError",
    "ExecError", "FaultPlanError",
    "ForkSafetyError", "GatewayError", "GatewayProtocolError",
    "LintError", "Overloaded", "RateLimited",
    "ReproError", "SimError", "SimMemoryError", "SimOSError", "SimSegfault",
    "SpawnError", "SpawnTimeout", "__version__",
]
