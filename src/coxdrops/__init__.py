"""
coxdrops: exact enumeration of drop, depth and excedance statistics on the
Coxeter groups of types A, B and D, with the canonical-reduced-word
involutions, the Laguerre-history encoding, signed enumerators, a
continued-fraction convergent, and the induced Bruhat-order matching.
"""

from .perm_core import (GROUPS, depth, des, drops, drops_b, drops_d, exc,
                        format_window, group_order, inv, inv_a, inv_b, inv_d,
                        iexc, iter_group, negs, nsum, parse_window, spearman,
                        unrank, zdrops)
from .reduced_words import (CanonicalWord, canonical_word, canonical_word_a,
                            canonical_word_b, evaluate_word, ird_and_ascents,
                            word_to_text)
from .involutions import (InvolutionReport, fixed_points, involution_a,
                          involution_b)
from .laguerre import (LaguerreHistory, area, from_history, fz_history,
                       heights, max_height, motzkin_paths, motzkin_shape, nest,
                       path_weight)
from .genpoly import (MultiPoly, TruncatedSeries, dep_inv_poly, drops_mad_poly,
                      drops_moments, drops_poly, jfraction_convergent, mad,
                      per_path_enumerator, q_integer, signed_drops,
                      signed_trivariate)
from .bruhat import (MatchingEdge, bruhat_leq, build_matching, hasse_covers,
                     matching_to_dot, matching_to_text, validate_matching)
from .verify import CLAIMS, VerificationReport, run_claim

__version__ = "0.1.0"
