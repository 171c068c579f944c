"""Collective Markovian dynamics of uniformly accelerated two-level atoms
coupled to a common massless field, plus a condensate-analogue designer.

Natural units hbar = k_B = c = 1; frequencies in units of the reference atom
frequency, time in units of its inverse.
"""

from .bec import (BogoliubovBath, BogoliubovMode, DetectorModelMap, TweezerSpec,
                  bogoliubov_mode, bound_state_count, coupling_tensor,
                  map_to_detector_model, resonant_wavenumber, transition_energy,
                  two_level_window, variational_width)
from .dynamics import (TimeSeries, all_excited, all_ground, coherence_measure,
                       concurrence, correlation_oracle, evolve, partial_trace,
                       population, populations, product_state, total_emission_rate)
from .errors import (AccelAtomsError, CapacityError, ConfigError, DivergenceError,
                     DomainError, IntegrationError, NoRootError)
from .kinematics import (AtomSpec, FrameConfig, KinematicState, alpha_from_xi,
                         kinematic_state, squeeze_parameter, thermal_occupation,
                         unruh_beta, xi_from_alpha)
from .liouvillian import (LindbladGenerator, SteadyStateAnalysis, build_hamiltonian,
                          build_superoperator, check_density_matrix, lindblad_rhs,
                          steady_state_analysis, thermal_residual, thermal_state)
from .rates import (RateSet, coupling_weight, cross_wedge_rates, kossakowski_matrix,
                    kossakowski_min_eig, same_wedge_rates, thermal_static_rates)

__version__ = "0.1.0"
