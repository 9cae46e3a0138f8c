"""repro.faults — fault injection for the spawn stack.

The chaos counterpart to :mod:`repro.obs`: where telemetry makes every
spawn *visible*, this package makes every spawn *breakable on purpose*,
so the resilience policies in :mod:`repro.core.policy` are proven by
tests instead of assumed.

Three ways to activate a plan:

* **per-test** — ``with FAULTS.active(FaultPlan().add("kill_helper")):``
* **environment** — ``REPRO_FAULTS=plan.json`` (or inline JSON) arms the
  plan in any process that imports :mod:`repro.faults`;
* **CLI** — ``repro-bench run t7-templates --quick --faults plan.json``.

See :mod:`repro.faults.plan` for the fault taxonomy and the JSON plan
format, and ``docs/FORKSERVER.md`` ("Failure modes and recovery") for
how each fault is expected to resolve.
"""

from __future__ import annotations

import os

from .inject import FAULTS, FaultInjector
from .plan import (FRAME_KINDS, GATEWAY_SITE_KINDS, Fault, FaultPlan,
                   KIND_POINTS, POINTS)

__all__ = [
    "FAULTS", "FRAME_KINDS", "GATEWAY_SITE_KINDS", "Fault",
    "FaultInjector", "FaultPlan", "KIND_POINTS", "POINTS",
    "install_env_plan",
]

#: Environment variable naming a plan file (or holding inline JSON).
ENV_VAR = "REPRO_FAULTS"


def install_env_plan(environ=None) -> bool:
    """Activate the plan named by :data:`ENV_VAR`, if set.

    Returns True when a plan was activated.  Raises
    :class:`~repro.errors.FaultPlanError` on a malformed value — an
    operator who set the variable wants loud failure, not silent
    no-faults.
    """
    value = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not value:
        return False
    FAULTS.activate(FaultPlan.from_env_value(value))
    return True


install_env_plan()
