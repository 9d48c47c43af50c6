"""Closed-form noise-stability bounds and the special functions behind them.

The central quantity is the measurement-error bound for power-law-correlated
states under weight-``phi0 + d`` encodings and strength-``p`` Pauli noise,

    f(p) = 3 p phi0 + 2 K C_D [zeta(mu - D + 1)
                               - r^{phi0} Li_{mu - D + 1}(r)],   r = 1 - 3p/2,

finite exactly when ``mu > D``.  Supporting pieces: the lattice-geometry
constant ``C_D``, Riemann zeta and the real polylogarithm (from
:mod:`fermion_noise.special`), the split near/far lattice-sum
bounds they derive from, depth-polynomial bounds for noisy brickwork
circuits, thermodynamic-limit error formulas for a 2D Fermi surface, and
exact finite-lattice scaling probes for jump and Lipschitz mode-occupation
profiles.

Note on the off-surface thermodynamic formula: the denominator exponent is
kept at ``(lambda^2 + delta^2)^{3/2}``, the form the stationary-phase
derivation actually yields; simplified variants in circulation differ and
the discrepancy is deliberately left visible here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gaussian import ModeDiagonalState
from .encodings import EncodingWeightModel
from .lattice import Lattice, momentum_grid
from .noise import P_MAX, PauliChannel, momentum_error_map
from .special import agm, polylog, riemann_zeta

REGIME_UNSTABLE = "mu<=D unstable"
REGIME_SUBLINEAR = "D<mu<D+1"
REGIME_MARGINAL = "mu=D+1"
REGIME_LINEAR = "mu>D+1"

def c_dim(dim: int) -> float:
    """Shell-count constant ``2^D (1 + D)^{D-1} / (D - 1)!``."""
    if dim < 1 or int(dim) != dim:
        raise ValueError(f"dimension must be a positive integer, got {dim}")
    d = int(dim)
    return 2.0**d * (1.0 + d) ** (d - 1) / math.factorial(d - 1)


def l1_ball_site_count(dim: int, radius: int) -> int:
    """Number of lattice sites within L1 distance ``radius`` of a point."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if dim == 1:
        return 2 * radius + 1
    if dim == 2:
        return 2 * radius * radius + 2 * radius + 1
    raise ValueError(f"site counts implemented for dim 1 and 2, got {dim}")


# ----------------------------------------------------------------------
# decay parameters and the measurement-error bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecayParams:
    """Correlation-decay premise ``|Gamma_ab| <= K (1 + d)^{-mu}`` plus encoding data."""

    K: float
    mu: float
    D: int
    phi0: int

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError(f"decay prefactor K must be finite and positive, got {self.K}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"decay exponent mu must be finite and positive, got {self.mu}")
        if self.D not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.D}")
        if self.phi0 < 0 or int(self.phi0) != self.phi0:
            raise ValueError(f"phi0 must be a nonnegative integer, got {self.phi0}")

    @property
    def stable(self) -> bool:
        """Whether the error bound stays finite (``mu > D``)."""
        return self.mu > self.D


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its small-p regime tag and an echo of the inputs."""

    value: float
    regime: str
    params: DecayParams
    p: float


def decay_regime(mu: float, dim: int) -> str:
    """Small-p scaling regime of the error bound for given decay exponent."""
    if mu <= dim:
        return REGIME_UNSTABLE
    if abs(mu - (dim + 1)) < 1e-12:
        return REGIME_MARGINAL
    if mu < dim + 1:
        return REGIME_SUBLINEAR
    return REGIME_LINEAR


def _check_p(p: float) -> float:
    if not 0.0 <= p <= P_MAX:
        raise ValueError(f"noise strength must lie in [0, 2/3], got {p}")
    return float(p)


def noise_factor(params: DecayParams, p: float) -> float:
    """The closed-form error bound f(p) for measurement-time noise."""
    if not params.stable:
        raise ValueError(
            f"decay exponent mu = {params.mu} <= D = {params.D}: bound diverges"
        )
    p = _check_p(p)
    return 2.0 * bound_S(1.0 - 1.5 * p, 1.0, float(params.phi0), 0,
                         params.mu, params.D, params.K)


def prop1_bound(params: DecayParams, p: float) -> BoundReport:
    """Measurement-error bound with regime tag; see :func:`noise_factor`."""
    value = noise_factor(params, p)
    return BoundReport(value=value, regime=decay_regime(params.mu, params.D),
                       params=params, p=p)


# ----------------------------------------------------------------------
# split lattice-sum bounds
# ----------------------------------------------------------------------


def _check_split_args(r: float, k1: float, k2: float, d0: int) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"attenuation base r must lie in [0, 1], got {r}")
    if k1 < 0 or k2 < 0:
        raise ValueError(f"weight-law coefficients must be nonnegative, got {k1}, {k2}")
    if d0 < 0 or int(d0) != d0:
        raise ValueError(f"split distance d0 must be a nonnegative integer, got {d0}")


def bound_S1(r: float, k1: float, k2: float, d0: int, dim: int) -> float:
    """Near-region bound: ``sum_{d(s) <= d0} [1 - r^{k1 d + k2}]``.

    Uses monotonicity in the exponent plus the Bernoulli inequality
    ``1 - r^x <= x (1 - r)``, so the largest exponent ``k1 d0 + k2`` must be
    0 or at least 1.
    """
    _check_split_args(r, k1, k2, d0)
    x_max = k1 * d0 + k2
    if 0.0 < x_max < 1.0:
        raise ValueError(
            f"largest exponent k1*d0 + k2 = {x_max} is in (0, 1); "
            "the Bernoulli step needs it to be 0 or >= 1"
        )
    return (1.0 - r) * x_max * l1_ball_site_count(dim, d0)


def bound_S2(r: float, k1: float, k2: float, d0: int, mu: float, dim: int,
             k_decay: float) -> float:
    """Far-region bound: ``sum_{d(s) > d0} [1 - r^{k1 d + k2}] K (1+d)^{-mu}``.

    Closed form ``K C_D (d0 + 1)^{D-1} [zeta(s) - r^{k1 d0 + k2} Li_s(r^{k1})]``
    with ``s = mu - D + 1``; requires the convergent regime ``mu > D``.
    """
    _check_split_args(r, k1, k2, d0)
    if mu <= dim:
        raise ValueError(f"far-region sum needs mu > D, got mu = {mu}, D = {dim}")
    if k_decay <= 0:
        raise ValueError(f"decay prefactor must be positive, got {k_decay}")
    s = mu - dim + 1.0
    if r == 1.0:
        return 0.0
    zeta_s = riemann_zeta(s)
    li = polylog(s, r**k1)
    return k_decay * c_dim(dim) * (d0 + 1.0) ** (dim - 1) * (zeta_s - r ** (k1 * d0 + k2) * li)


def bound_S(r: float, k1: float, k2: float, d0: int, mu: float, dim: int,
            k_decay: float) -> float:
    """Full lattice-sum bound, the sum of the near and far parts."""
    if r == 1.0:
        _check_split_args(r, k1, k2, d0)
        return 0.0
    return bound_S1(r, k1, k2, d0, dim) + bound_S2(r, k1, k2, d0, mu, dim, k_decay)


# ----------------------------------------------------------------------
# depth-polynomial circuit bounds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitBound:
    """Bound ``constant * f(p) * depth^exponent`` with the parts kept visible."""

    value: float
    constant: float
    f_value: float
    depth: int
    exponent: int
    radius: int


def _circuit_constant(params: DecayParams, radius: int) -> float:
    """Depth-free constant chain of the covariance-route circuit bound.

    Assembled from the light-cone volume after ``d`` layers of spread
    ``radius`` and the far-sum constants; deliberately rounded up into a
    single prefactor of the product form ``constant * f(p) * d^{D+2}``
    (the elementary inequalities ``1 - r <= zeta(s) - Li_s(r)`` and
    ``zeta - Li_s(r) <= zeta - r^{phi0} Li_s(r)`` absorb the two slots).
    """
    v = float(radius)
    dim = params.D
    s = params.mu - dim + 1.0
    zeta_s = riemann_zeta(s)
    cd = c_dim(dim)
    a3 = 2.0 * ((2 * v + params.phi0) * 3.0**dim * (2 * v) ** dim
                + params.K * cd * (2 * v + 1) ** (dim - 1) * (2 * v + params.phi0) * zeta_s)
    b3 = 2.0 * params.K * cd * (2 * v + 1) ** (dim - 1)
    if params.phi0 > 0:
        return a3 / (2.0 * params.phi0) + b3 / (2.0 * params.K * cd)
    return (a3 + b3) / (2.0 * params.K * cd)


def prop3_bound(params: DecayParams, p: float, depth: int,
                radius: int = 1) -> CircuitBound:
    """Circuit error bound of shape ``f(p) * depth^{D+2}`` (covariance route).

    Valid for initial states satisfying the power-law covariance premise;
    the constant is explicit but intentionally loose (only the shape and
    soundness are load-bearing).
    """
    if depth < 0 or int(depth) != depth:
        raise ValueError(f"depth must be a nonnegative integer, got {depth}")
    if radius < 1 or int(radius) != radius:
        raise ValueError(f"interaction radius must be a positive integer, got {radius}")
    f_val = noise_factor(params, p)
    const = _circuit_constant(params, radius)
    exponent = params.D + 2
    return CircuitBound(value=const * f_val * float(depth) ** exponent,
                        constant=const, f_value=f_val, depth=int(depth),
                        exponent=exponent, radius=int(radius))


def prop4_bound(params: DecayParams, p: float, depth: int,
                radius: int = 1) -> CircuitBound:
    """Circuit error bound of shape ``f(p) * depth^{2D+1}`` (counting route).

    The cruder cross-section counting inflates both the constant and the
    depth power, so for ``depth >= 1`` this never undercuts
    :func:`prop3_bound` at equal inputs.
    """
    base = prop3_bound(params, p, depth, radius)
    v = float(radius)
    dim = params.D
    extra = max(2.0 * (2 * v + 1) ** dim, float(max(params.phi0, 1))) \
        * max((2 * v + 1) ** (dim - 1), 1.0)
    const = base.constant * extra
    exponent = 2 * dim + 1
    return CircuitBound(value=const * base.f_value * float(depth) ** exponent,
                        constant=const, f_value=base.f_value, depth=int(depth),
                        exponent=exponent, radius=int(radius))


# ----------------------------------------------------------------------
# 2D Fermi-surface thermodynamic-limit formulas
# ----------------------------------------------------------------------


def _decay_rate(p: float, k_fermi: float) -> float:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"noise strength must lie in [0, 1), got {p}")
    if not (math.isfinite(k_fermi) and k_fermi > 0):
        raise ValueError(f"Fermi momentum must be finite and positive, got {k_fermi}")
    return -math.log1p(-p)


def fermi2d_limit_error(p: float, k_fermi: float, delta: float) -> float:
    """Mode-occupation error away from a circular Fermi surface.

    ``delta`` is the signed distance ``|k| - k_F`` of the probed momentum
    from the surface; the stationary-phase form is
    ``(1/2) lambda k_F^2 / (lambda^2 + delta^2)^{3/2}``, ``lambda = -ln(1-p)``.
    """
    lam = _decay_rate(p, k_fermi)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta == 0.0:
        raise ValueError("delta = 0 is the on-surface case; use the on-surface form")
    return 0.5 * lam * k_fermi**2 / (lam**2 + delta**2) ** 1.5


def on_surface_integral(p: float, k_fermi: float) -> float:
    """The angular integral ``I = (lam/pi) int_0^{pi/2} dt / sqrt(lam^2 + 4 k_F^2 sin^2 t)``.

    A complete elliptic integral of the first kind, evaluated in closed form
    as ``I = lam / (2 AGM(lam, sqrt(lam^2 + 4 k_F^2)))``.
    """
    lam = _decay_rate(p, k_fermi)
    if lam == 0.0:
        return 0.0
    return lam / (2.0 * agm(lam, math.sqrt(lam * lam + 4.0 * k_fermi * k_fermi)))


def on_surface_integral_bound(p: float, k_fermi: float) -> float:
    """Closed-form upper bound ``(lam / 4 k_F) arcsinh(2 k_F / lam)``."""
    lam = _decay_rate(p, k_fermi)
    if lam == 0.0:
        return 0.0
    return lam / (4.0 * k_fermi) * math.asinh(2.0 * k_fermi / lam)


def fermi2d_on_surface_error(p: float, k_fermi: float) -> float:
    """Mode-occupation error exactly on the Fermi surface, ``1/2 - I``.

    Approaches 1/2 as p -> 0: the vanishing attenuation contrast between
    just-inside and just-outside correlations leaves the surface mode
    maximally uncertain.
    """
    return 0.5 - on_surface_integral(p, k_fermi)


# ----------------------------------------------------------------------
# exact finite-lattice scaling probes
# ----------------------------------------------------------------------


def _probe_error_map(length: int, occupations: np.ndarray, p: float,
                     parity: Optional[str] = None) -> np.ndarray:
    lat = Lattice(1, length)
    state = ModeDiagonalState(momentum_grid(lat, "odd"), occupations)
    enc = EncodingWeightModel("local", lat, phi0=1)
    return momentum_error_map(state, enc, PauliChannel(p).etas, parity)


def jump_scaling_probe(n_grid: Sequence[int], p: float,
                       k_offset: float) -> List[Tuple[int, float]]:
    """Exact error of ``n_k`` near a sharp occupation step, across sizes.

    For each chain length N the occupation is the one-sided step ``n(q) = 1``
    for ``q in [0, pi)`` on the integer mode grid ``q_m = 2 pi m / N``, and
    the error is evaluated at ``k = q_0 + k_offset`` under strength-p uniform
    noise with nearest-distance weights (``phi0 = 1``).  Probing at the step
    (``k_offset = 0``) grows ~linearly with N; a fixed separation from it
    stays ~size independent.
    """
    if len(n_grid) == 0:
        raise ValueError("empty size grid")
    rows = []
    for length in n_grid:
        if length < 4 or length % 2:
            raise ValueError(f"probe sizes must be even and >= 4, got {length}")
        # k_offset = pi f / N is a mode of the periodic grid (f even) or of the
        # antiperiodic one (f odd), in grid row floor(f / 2) + N / 2, mod N.
        f = k_offset * (length / np.pi)
        if not abs(f - round(f)) <= 1e-12 * max(1.0, abs(f)):
            raise ValueError(f"k_offset must be pi f / N, f an integer (a grid momentum of "
                             f"N = {length}); it has f = {f}")
        f = round(f)
        occupied = np.arange(length) >= length // 2  # the modes m >= 0
        err = _probe_error_map(length, occupied, p, "even" if f % 2 else "odd")
        rows.append((int(length), float(abs(err[(f // 2 + length // 2) % length]))))
    return rows


def lipschitz_scaling_probe(p_grid: Sequence[float], length: int = 200,
                            ) -> Tuple[List[Tuple[float, float]], float]:
    """Exact worst-momentum error for a smooth occupation, across noise strengths.

    The occupation profile ``n(q) = (1 + cos q)/2`` is 1/2-Lipschitz; for
    each p the maximum of ``|error(n_k)|`` over the full momentum grid is
    recorded and the log-log slope of error versus p is fitted.  A slope of
    at least 1/2 is the stability signature (error ~ O(sqrt(p)) or better).
    """
    if len(p_grid) == 0:
        raise ValueError("empty noise grid")
    if length < 4 or length % 2:
        raise ValueError(f"probe size must be even and >= 4, got {length}")
    grid = momentum_grid(Lattice(1, length), "odd")
    occupations = 0.5 * (1.0 + np.cos(grid.momenta[:, 0]))
    rows = []
    for p in p_grid:
        if not 0.0 < p <= P_MAX:
            raise ValueError(f"probe noise strengths must lie in (0, 2/3], got {p}")
        errs = _probe_error_map(length, occupations, p)
        rows.append((float(p), float(np.max(np.abs(errs)))))
    logs = np.log(np.asarray(rows))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0]) if len(rows) > 1 else float("nan")
    return rows, slope
