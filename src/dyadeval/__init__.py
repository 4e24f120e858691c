"""Evaluate community-level behavioral interventions on dyadic network data.

Pipeline: observed ego-alter dyads are tallied into a 64-cell census
(participation and before/after behavior bits of both ends), eight
difference-of-sums measures are evaluated on it, and each measure's
significance is assessed against a pooled behavior-transition null model
by bootstrap simulation and by exact Poisson-Binomial convolution.
"""

from ._version import __version__
from .census import DyadRecord, DyadTable, build_table
from .errors import DyadevalError, InputError, NumericalIntegrityError
from .inference import (DiscreteDistribution, InferenceConfig, TestResult,
                        TrialGroup, bootstrap_test, exact_test,
                        method_disagreement, pb_pmf, run_all)
from .measures import (MEASURE_LABELS, MeasureId, MeasureSpec, MeasureValue,
                       evaluate, spec_for)
from .null_model import NullModel, fit, sample
from .sim import (EdgeModel, SimNetwork, SimParams, assign_initial_states,
                  dyad_codes, generate_network, probabilities_to_counts,
                  simulate, simulate_dyad_table, transition)

__all__ = [
    "__version__",
    "DyadRecord", "DyadTable", "build_table",
    "DyadevalError", "InputError", "NumericalIntegrityError",
    "MeasureId", "MeasureSpec", "MeasureValue", "MEASURE_LABELS",
    "evaluate", "spec_for",
    "NullModel", "fit", "sample",
    "DiscreteDistribution", "InferenceConfig", "TestResult", "TrialGroup",
    "bootstrap_test", "exact_test",
    "method_disagreement", "pb_pmf", "run_all",
    "EdgeModel", "SimNetwork", "SimParams", "assign_initial_states",
    "dyad_codes", "generate_network", "probabilities_to_counts", "simulate",
    "simulate_dyad_table", "transition",
]
