"""Exact-arithmetic probabilistic degenerate Whitney numbers, Dowling
polynomials, and their r-generalizations, for random variables given by
exact moment sequences; every structural identity of the family is
checkable by multi-route computation to exact rational equality.
"""

from .bell import bell_partial, bell_partial_series
from .dowling import (PolyX, WhitneyTriangle, dobinski_eval, dowling_poly,
                      dowling_poly_r, stirling2_degen, stirling2_prob,
                      whitney_prob, whitney_prob_r)
from .identities import (IdentityReport, check_bell_expansion,
                         check_bell_rwhitney, check_binom_bell,
                         check_binomial_inversion, check_convolution,
                         check_derivative, check_recurrence,
                         check_stirling_bell, check_sum_identity)
from .moments import (Bernoulli, Binomial, Custom, DiscreteUniform, Geometric,
                      MomentModel, MomentOrderError, PointMass, Poisson,
                      degen_moment, egf_mgf_degen, model_from_config,
                      model_to_config, raw_moment, sum_degen_moment)
from .montecarlo import McEstimate, estimate_sum_degen_moment, sample_Y
from .ratcore import (Params, binom, clear_caches, degen_falling, falling,
                      format_rational, rat, stirling2)
from .series import (EgfSeries, egf_coeff, egf_const, egf_degen_exp, egf_mul,
                     egf_scale)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
