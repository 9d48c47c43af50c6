"""Noise stability of fermionic observables under qubit encodings.

Free-fermion states are carried as Majorana covariance matrices (or, when
diagonal in momentum, as their mode occupations), fermion-to-qubit
encodings as Pauli-weight models, and single-qubit Pauli noise as an
eigenvalue attenuation of each encoded bilinear.  On top of that sit noisy
free-fermion brickwork circuits and closed-form stability bounds for
power-law-correlated states.  The small dense oracle that pins every sign
convention lives with the test suite.
"""

from types import ModuleType as _ModuleType

from .errors import ConfigError, InvariantViolation
from .lattice import (
    Lattice,
    MomentumGrid,
    momentum_grid,
    parity_of,
    snake_index,
    snake_index_vector,
    torus_distance,
)
from .encodings import (
    ENCODING_KINDS,
    EncodingWeightModel,
    StringComposition,
    bk_beta_matrix,
    bk_max_number_operator_weight,
    bk_number_operator_weight_from_beta,
    interleave_flavors,
)
from .gaussian import (
    GaussianState,
    ModeDiagonalState,
    QuadraticObservable,
    circulant_power_law_state,
    correlation_from_mode_occupations,
    damped_random_state,
    decay_constant,
    fermi_sea,
    fermi_sea_1d,
    free_dispersion,
    momentum_occupation,
    occupied_modes,
    power_law_mask,
    random_pure_state,
    tight_binding_dispersion,
    tight_binding_ground_state_2d,
)
from .noise import (
    MODES,
    P_MAX,
    PauliChannel,
    attenuation_block,
    attenuation_matrix,
    measurement_error,
    momentum_error_map,
    noisy_expectation,
    pair_attenuation,
)
from .circuits import (
    Circuit,
    Layer,
    LightConeReport,
    brickwork_circuit,
    circuit_expectation,
    evolve_state,
    heisenberg_observable,
    lightcone_correlation_check,
    prefix_expectations,
)
from .bounds import (
    REGIME_LINEAR,
    REGIME_MARGINAL,
    REGIME_SUBLINEAR,
    REGIME_UNSTABLE,
    BoundReport,
    CircuitBound,
    DecayParams,
    bound_S,
    bound_S1,
    bound_S2,
    c_dim,
    decay_regime,
    fermi2d_limit_error,
    fermi2d_on_surface_error,
    jump_scaling_probe,
    l1_ball_site_count,
    lipschitz_scaling_probe,
    noise_factor,
    on_surface_integral,
    on_surface_integral_bound,
    prop1_bound,
    prop3_bound,
    prop4_bound,
)
from .special import polylog, riemann_zeta

__version__ = "0.1.0"

# Each public name is written once, in the imports above.  Those imports also
# bind the submodules as package attributes; they are not part of the API.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
