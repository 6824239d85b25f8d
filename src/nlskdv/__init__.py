"""Solitary-wave laboratory for a coupled NLS-KdV system.

Computes two-parameter families of solitary waves by constrained energy
minimization, verifies the rearrangement and subadditivity structure
behind their existence, and integrates the coupled flow to test
conservation and orbital stability empirically.
"""

from .errors import (BlowUpError, BoundaryMinimumError, ConvergenceError,
                     DomainTooSmallError, GridMismatchError, NlskdvError,
                     SupportOverlapError, UnattainedInfimumError,
                     ValidationError)
from .evolve import (EvolveState, EvolveTrace, evolve, orbital_distance,
                     perturbed_solitary_initial, solitary_initial,
                     stable_dt_bound, step, y_norm)
from .exact import (SechProfile, kdv_ground, kdv_profile, lambda_for_mass,
                    nls_ground, nls_profile)
from .functionals import (ConservedTriple, PhysParams, charge,
                          conserved_triple, energy, energy_gradient,
                          kdv_action, momentum, nls_action, signed_power)
from .grid import (ComplexField, Grid1D, RealField, deriv, integrate,
                   load_field, make_grid, same_grid, save_field)
from .minimize import (MinimizeOptions, MinimizeReport, SolitaryWavePair,
                       WSolution, convolution_fixed_point_gap, el_residual,
                       minimize_I, minimize_W, multipliers,
                       subadditivity_probe)
from .rearrange import (RearrangeReport, decreasing_rearrangement,
                        garrisi_check, rearrange_values,
                        verify_rearrangement_inequalities)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "BoundaryMinimumError", "ComplexField", "ConservedTriple",
    "ConvergenceError", "DomainTooSmallError", "EvolveState", "EvolveTrace",
    "Grid1D", "GridMismatchError",
    "MinimizeOptions", "MinimizeReport", "NlskdvError", "PhysParams",
    "RealField", "RearrangeReport", "SechProfile", "SolitaryWavePair",
    "SupportOverlapError", "UnattainedInfimumError", "ValidationError",
    "WSolution", "charge", "conserved_triple", "convolution_fixed_point_gap",
    "decreasing_rearrangement", "deriv", "el_residual", "energy",
    "energy_gradient", "evolve", "garrisi_check", "integrate", "kdv_action",
    "kdv_ground", "kdv_profile", "lambda_for_mass", "load_field",
    "make_grid", "minimize_I", "minimize_W", "momentum", "multipliers",
    "nls_action", "nls_ground", "nls_profile",
    "orbital_distance", "perturbed_solitary_initial", "rearrange_values",
    "same_grid", "save_field", "signed_power", "solitary_initial",
    "stable_dt_bound", "step", "subadditivity_probe",
    "verify_rearrangement_inequalities", "y_norm",
]
