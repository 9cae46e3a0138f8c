"""One module per paper artifact; importing the package registers all."""

from . import (exp_calibrate, exp_chaos, exp_compose,  # noqa: F401
               exp_fig1, exp_gateway, exp_scaling, exp_tables,
               exp_templates, exp_xproc)
from .base import (Experiment, ExperimentResult, all_experiments, get,
                   register, run)

__all__ = [
    "Experiment", "ExperimentResult", "all_experiments", "get", "register",
    "run",
]
