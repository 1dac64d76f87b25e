"""
coxdrops: exact enumeration of drop, depth and excedance statistics on the
Coxeter groups of types A, B and D, with the canonical-reduced-word
involutions, the Laguerre-history encoding, signed enumerators, a
continued-fraction convergent, and the induced Bruhat-order matching.
"""

from .perm_core import (GROUPS, depth, des, drops, drops_b, drops_d, exc,
                        format_window, group_order, identity, in_type_d, inv,
                        inv_a, inv_b, inv_d, inverse, iexc, iter_group, negs,
                        nsum, parse_window, rank, reverse_complement,
                        spearman, unrank, zdrops)
from .reduced_words import (CanonicalWord, canonical_word, canonical_word_a,
                            canonical_word_b, evaluate_word, ird_and_ascents,
                            word_to_text)
from .involutions import (InvolutionReport, fixed_points, involution_a,
                          involution_b, pair_map_bd, pair_map_d)
from .laguerre import (LaguerreHistory, area, cyclic_classify,
                       even_subset_to_path, from_history, fz_history, heights,
                       laguerre_histories, max_height, motzkin_paths,
                       motzkin_shape, nest, nest_at, path_to_even_subset,
                       path_weight, two_motzkin_paths)
from .genpoly import (MultiPoly, TruncatedSeries, dep_inv_poly,
                      descent_blocks, drops_mad_poly, drops_moments,
                      drops_poly, jfraction_convergent, mad,
                      per_path_enumerator, q_integer, right_embracings,
                      signed_drops, signed_trivariate)
from .bruhat import (MatchingEdge, bruhat_leq, build_matching, hasse_covers,
                     matching_to_dot, matching_to_text, validate_matching)
from .verify import CLAIMS, VerificationReport, run_claim, run_claims

__version__ = "0.1.0"
