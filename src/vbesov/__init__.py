"""Variable-exponent Besov norms on periodic grids.

Modules: grid (spectral substrate), exponents (variable exponent fields),
luxemburg (modulars and mixed norms), frame (resolutions of unity and local
means), besov (the norm in its equivalent forms), atoms (atomic analysis and
synthesis), bank (seeded test corpus), checks (numerical lemma verification),
cli (command-line front end).
"""

from .grid import (DyadicCube, GridFunction, GridSpec, convolve, from_callable,
                   integrate, make_grid, spectral_derivative)
from .exponents import (ClassReport, ExponentField, check_class,
                        constant_field, field_from_callable,
                        make_exponent_field, q_field_from_callable)
from .luxemburg import (NormResult, ScaleLadder, luxemburg_norm, make_ladder,
                        mixed_sequence_norm, modular, t_norm)
from .frame import (BumpParams, CalderonFrame, LocalMeanPair,
                    build_local_mean_pair, build_resolution_of_unity,
                    eta_kernel, synthesize_Phi, synthesize_phi_t)
from .besov import (BesovNormReport, ScaleProfile, besov_norm, local_mean_norm,
                    lp_profile, peetre_profile)
from .atoms import (AtomDescriptor, AtomicDecomposition, analyze,
                    sequence_norm_b, synthesize, validate_atom)
from .bank import FunctionBank, make_bank, make_member

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
