"""Numerics for unordered Q-tuple valued functions.

Permutation-matched metrics on value tuples, assignment-coupled polynomial
fitting, dyadic Campanato decay analysis, a Holder-exponent certificate
engine, and a library of multi-valued harmonic test functions.
"""

from .campanato import (
    campanato_seminorm,
    decay_exponent,
    excess_profile,
    holder_from_campanato,
    infer_band,
)
from .certify import (
    DecayHypothesis,
    HolderCertificate,
    Stratification,
    audit_hypothesis,
    certified_exponent,
    end_to_end_certify,
    gamma_select,
)
from .errors import QvaluedError
from .geometry import Domain, QuadratureGrid, dyadic_ladder
from .points import (
    AqPoint,
    SampledQFunction,
    brute_force_metric,
    metric_g,
    optimal_assignment,
)
from .polyfit import FitConfig, QPolynomial, best_fit

__version__ = "0.1.0"

__all__ = [
    "AqPoint",
    "DecayHypothesis",
    "Domain",
    "FitConfig",
    "HolderCertificate",
    "QPolynomial",
    "QuadratureGrid",
    "QvaluedError",
    "SampledQFunction",
    "Stratification",
    "audit_hypothesis",
    "best_fit",
    "brute_force_metric",
    "campanato_seminorm",
    "certified_exponent",
    "decay_exponent",
    "dyadic_ladder",
    "end_to_end_certify",
    "excess_profile",
    "gamma_select",
    "holder_from_campanato",
    "infer_band",
    "metric_g",
    "optimal_assignment",
]
