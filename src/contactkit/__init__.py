"""Exact and numerical tools for complex contact structures.

The package verifies contact and formal-contact conditions for forms
with exact Laurent or expression-tree coefficients, classifies the
slices of the underlying first-order relation, extends real-slice data
to antiholomorphically flat fields, runs grid-scale convex integration,
and ships a catalog of closed-form examples used as golden tests.
"""

from .ci import (CIResult, Loop, ci_solve, demo_flat_section,
                 demo_gamma_section, demo_holonomic_section, loop_for_target,
                 verify_ci)
from .coefficients import (Coefficient, Const, Cos, Exp, Expr, LaurentPoly,
                           Monomial, Sin, Sqrt, Z, Zbar, eadd, emul, epow)
from .contact import (FormalPair, contact_defect, formal_defect, is_contact_on,
                      is_formal_contact_on, pfaffian_coeffs,
                      relation_coefficient, relation_h, relation_slope)
from .errors import (ContactKitError, DimensionError, ExponentRangeError,
                     ParseError, PoleError, PreconditionError, VariantError)
from .extend import (FitResult, SampledExtension, ah_pullback_verify, ah_verify,
                     dbar_defect, extend_form, extend_function, fit_holomorphic,
                     multi_indices)
from .formats import (dump_ci_result, load_form, load_section, save_form,
                      save_report, save_section)
from .forms import (Form, Point, PolyMap, dee_bar, ext_d, pullback, wedge,
                    wedge_power)
from .gallery import (GalleryEntry, alpha_prime, circle_form, covering_check,
                      covering_map, gallery_entries, gallery_verify_all,
                      named_form, rotation_automorphism, sigma_homotopy,
                      std_form, torus_form)
from .grids import CubeGrid, GammaSpec, GridSection
from .jets import (Jet1, RestrictedJet, SliceClass, ampleness_slice,
                   grid_jacobian, holonomic_jet,
                   holonomy_defect, relation_grid, relation_value, slope_grid)
from .reports import Check, VerificationReport
from .scalars import QC
