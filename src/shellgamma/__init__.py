"""Dimensionally reduced shell energies with explicit recovery deformations.

The package evaluates the variable-thickness von Karman limit functional on
chart-based surface patches, constructs the matching three-dimensional
recovery deformations, and verifies at desk scale that the rescaled shell
energy of those deformations converges to the two-dimensional limit.
"""

from .errors import (ConfigError, DegenerateMaterialError, DifferentiationError,
                     DomainError, EnergyBlowupError, EvaluationError,
                     NotAnIsometryError, ParameterError, ShellGammaError,
                     ThicknessError, UnsupportedCaseError)
from .fields import (ScalarField, VectorField, affine_scalar, constant_scalar,
                     plate_sine_field, rigid_field, sine_scalar, skew_matrix,
                     trig_vector_field, zero_vector_field)
from .geometry import (NodeFrame, SurfacePatch, SurfaceQuadrature, ThicknessPair,
                       TransversalRule, make_builtin_patch, offset_jacobian,
                       surface_quadrature, validate_patch, validate_thickness)
from .kinematics import (ExpansionData, IsometryField, LimitFields, bending_expansion_residual,
                         bending_matrix, build_isometry, expansion_data, limit_fields,
                         stretching_expansion_residual, stretching_tensor)
from .limit2d import LimitEnergyBreakdown, eval_I, eval_J
from .loads import (ActionMaximum, action_form, davenport_matrix, eval_J_h,
                    example_maximizer_set, load_compatibility_residual,
                    maximize_action, moment_matrix, random_rotations, rotation_actions,
                    rotation_matrices, wahba_maximize)
from .material import (QuadForm2, QuadForm3, StoredEnergy, green_strain,
                       isotropic_q2_closed_form, make_isotropic, q3_from_energy,
                       quadratic_energy, reduce_q2, relax_q2_brute_force)
from .recovery3d import (RecoveryData, RecoveryDeformation, ShellEnergyValue,
                         averaged_displacement, averaged_displacement_sym_grad,
                         build_d_fields, build_recovery, discrete_l2_distance,
                         eval_shell_energy, recovery_data,
                         shell_energy_tangential_lower_bound)

__version__ = "0.1.0"
