"""Numerical laboratory for weighted composition operators on the unit disk.

Computes weight iterates, orbit norm sequences on Hardy, weighted Bergman
and sup spaces, and finite-horizon certificates of irregular (Li-Yorke
type) and averaged (mean Li-Yorke type) orbit behaviour.
"""

from .series import (AnalyticPoly, binomial_series, compose, compose_affine,
                     eval_on_circle)
from .symbols import (SelfMapSymbol, WeightSymbol, affine_fixing_one,
                      validate_self_map)
from .iterates import weight_iterate_sequence, weight_iterates
from .spaces import (Bergman, Hardy, SpaceSpec, SupSpace,
                     bergman2_coeff_weights, coeff_norm_bergman2,
                     coeff_norm_h2, parse_space, quad_norm_bergman_p,
                     quad_norm_hp, space_norm, space_provenance,
                     sup_norm_bracket)
from .operators import (NormSequence, WeightedCompOp,
                        eigen_orbit_norm_sequence, orbit_norm_sequence,
                        weight_norm_sequence)
from .chaos import (ChaosVerdict, DecayWitness, GrowthWitness, SequenceStats,
                    certify_li_yorke, certify_mean_li_yorke, decay_window,
                    eigen_residual, fit_window, growth_rate_fit, sequence_stats)
from .experiments import (ClassifyResult, ExperimentConfig, build_operator,
                          candidate_orbit, parse_candidate, parse_weight,
                          run_classify)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPoly", "binomial_series", "compose", "compose_affine", "eval_on_circle",
    "SelfMapSymbol", "WeightSymbol", "affine_fixing_one", "validate_self_map",
    "weight_iterate_sequence", "weight_iterates",
    "Hardy", "Bergman", "SupSpace", "SpaceSpec", "parse_space",
    "coeff_norm_h2", "coeff_norm_bergman2", "bergman2_coeff_weights",
    "quad_norm_hp", "quad_norm_bergman_p", "sup_norm_bracket", "space_norm",
    "space_provenance",
    "WeightedCompOp", "NormSequence", "orbit_norm_sequence",
    "weight_norm_sequence", "eigen_orbit_norm_sequence",
    "SequenceStats", "sequence_stats", "DecayWitness", "GrowthWitness", "ChaosVerdict",
    "certify_li_yorke", "certify_mean_li_yorke", "growth_rate_fit",
    "eigen_residual", "fit_window", "decay_window",
    "ExperimentConfig", "ClassifyResult", "build_operator", "candidate_orbit",
    "parse_weight", "parse_candidate", "run_classify",
    "__version__",
]
