"""Numerics for the best constant of the critical Hardy inequality.

The inequality bounds the Dirichlet energy of a compactly supported function
on a bounded planar domain from below by its mass against the singular weight
``(|x| log(R/|x|))^{-N}`` with ``R = sup |x|``.  This package evaluates the
quotient on radial and polar grids, constructs the classical test-function
families and their certified upper bounds, classifies domains by slice-measure
asymptotics, rearranges functions symmetrically, and computes best-constant
estimates by finite elements on truncation exhaustions.
"""

__version__ = "0.1.0"

from ._errors import (AssemblyError, ConstructionError, DegenerateInputError,
                      DomainRangeError, GridMismatchError, NonConvergenceError,
                      NumericalError)
from .domain import (ArcSet, CuspProfile, DomainKind, DomainSpec,
                     GeometryClassification, Regime, classify, limsup_m0,
                     limsup_mR, profile_measure)
from .fem2d import (ConstantEstimate, EigenResult, Mesh, assemble,
                    extrapolate_constant, mesh_truncated, radial_eigen,
                    smallest_eigen, solve_truncated)
from .oned import (AngularEigenResult, angular_eigenvalue,
                   angular_identity_residual, arc_poincare_constant,
                   extrapolate_angular_zero_limit, hardy_1d_quotient,
                   invert_angular_eigenvalue, radial_reduction_constant,
                   sin_power_quotient, solve_angular)
from .quotient import (LogProfile, PolarGridFunction, QuotientReport,
                       RadialFunction, hardy_scale, log_coordinate_transport,
                       quotient_polar, quotient_radial, sphere_area)
from .rearrange import (hardy_littlewood_check, polya_szego_check,
                        rearrange_domain, rearrange_function,
                        rearrangement_report)
from .testfn import (CuspFamilyParams, HalfSpaceFamilyParams,
                     HalfSpaceProfileDefault, PhiAlphaParams, PsiBetaParams,
                     cusp_upper_bound, halfspace_quotient, phi_alpha_quotient,
                     phi_alpha_schedule, psi_beta_closed_form,
                     psi_beta_quotient, psi_beta_schedule)
from .weight import (WeightParams, boundary_taylor_gap, cusp_h,
                     cusp_ratio_infimum, cusp_weight_ratio, weight_eval)
