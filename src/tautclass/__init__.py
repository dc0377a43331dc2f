"""Exact intersection theory on projectivised tangent bundles.

The package re-derives, in exact rational arithmetic, the divisor-class and
intersection-number computations behind positivity certificates for tangent
bundles of del Pezzo surfaces, Fano hypersurfaces and del Pezzo threefolds:
a pushforward engine over finite intersection profiles, Picard-lattice
curve enumeration, Schur functor dimension calculus, and a claim registry
that re-checks every pinned constant.
"""

from .chow import (BaseProfile, DegreeMismatchError, PTClass,
                   ProfileMismatchError, as_fraction, dual_vmrt_generic,
                   eval_product, eval_top, fiber_line_degree, fraction_str,
                   restrict_to_section, segre_omega)
from .claims import Claim, Report, emit, load_registry, run_claims
from .exprparse import ExprSyntaxError, format_class, parse_expr
from .hypersurfaces import (HypersurfaceSpec, comb_identity_A,
                            cubic_mnef_number, hypersurface_profile,
                            recursion_check_A, segre_closed_form,
                            sum_negative_part, sum_positive_part)
from .profiles import get_profile
from .schur import (bott_vanishing, bridge_identity_check, euler_char_forms,
                    plethysm_rectangle_check, schur_dim, ssyt_count)
from .surfaces import (CurveClass, PicardLattice, chi_sym_tangent_surface,
                       conic_classes, conic_vmrt_class,
                       cubic_surface_certificate, degenerate_members,
                       degree4_pairing, degree5_sum, minus_one_curves,
                       noether_check, surface_lattice)
from .threefolds import (certificate_degree1, certificate_degree2_divisor,
                         certificate_degree2_modnef, k3_bitangent_class,
                         threefold_profile, vmrt_class_threefold, vmrt_table)

__version__ = "0.1.0"
