"""Noise stability of fermionic observables under qubit encodings.

Free-fermion states are carried as their mode occupations (states diagonal
in momentum) and read through their Majorana covariance on index sets,
fermion-to-qubit encodings as Pauli-weight models, and single-qubit Pauli
noise as an eigenvalue attenuation of each encoded bilinear.  On top of that sit noisy
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
    snake_index_vector,
)
from .encodings import (
    ENCODING_KINDS,
    EncodingWeightModel,
    bk_max_number_operator_weight,
)
from .gaussian import (
    ModeDiagonalState,
    QuadraticObservable,
    circulant_power_law_state,
    fermi_sea,
    fermi_sea_1d,
    free_dispersion,
    momentum_occupation,
    occupied_modes,
    tight_binding_dispersion,
)
from .noise import (
    MODES,
    P_MAX,
    PauliChannel,
    attenuation_block,
    measurement_error,
    mode_etas,
    momentum_error_map,
    noisy_expectation,
)
from .circuits import (
    Circuit,
    Layer,
    brickwork_circuit,
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
