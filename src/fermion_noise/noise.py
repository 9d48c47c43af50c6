"""Single-qubit Pauli noise acting on encoded quadratic observables.

The channel applies, independently on every qubit,

    M -> (1 - 3p/4) M + (3p/4) (a_x X M X + a_y Y M Y + a_z Z M Z),

so a Pauli string is an eigenoperator with eigenvalue
``prod_s eta_s^{n_s}``, ``eta_s = 1 - (3p/2)(1 - a_s)``.  For the uniform
(depolarizing) mix every non-identity factor contributes ``1 - p``; the
adversarial lower bound per factor is ``1 - 3p/2``, which requires
``p <= 2/3`` for the factor to stay nonnegative.

Because encoded Majorana bilinears are single Pauli strings, noise acts on
the quadratic sector exactly, as an elementwise damping of the covariance
(or, in the Heisenberg picture, of the observable's coefficient matrix) by
per-pair attenuation factors.  Every factor comes from one formula,
``ex**nx * ey**ny * ez**nz`` over the X/Y/Z counts of the encoding's
strings; worst-case mode sets all three etas to ``1 - 3p/2``.  With equal
etas the formula is ``eta**weight``, the only case the weight-only
``local`` model supports.  The same formula serves every pair of a
Majorana index set (:func:`attenuation_block`) and all pairs at once; those
keep the encoding's ``(F, F, N, N)`` flavor-block shape, and only
:func:`attenuation_matrix`, the dense reference, expands them to
``(2N, 2N)``.

Measurement noise is read on the observable's support, as a circuit's light
cone is: :func:`noisy_expectation` and :func:`measurement_error` damp the
observable's ``S x S`` block by :func:`attenuation_block` on ``S`` and
contract it with the state's covariance on ``S``
(:meth:`~fermion_noise.gaussian.GaussianState.covariance_block`), so a
mode-diagonal state never builds its ``2N x 2N`` covariance.

The momentum error map has two paths.  The spectral one serves a
:class:`~fermion_noise.gaussian.ModeDiagonalState` (every Fermi sea) when
the etas agree (any uniform mix, and worst-case mode) and the encoding's
weight depends on the displacement of the two sites alone: ``local`` and
``jw1d``.  The drop ``1 - eta**w(r)`` is then a function of ``r``, and the
whole grid's errors are two FFTs on the ``(2L)^D`` displacement box, with no
covariance, distance matrix or ``(2N, 2N)`` array.  The dense one contracts
the covariance flavor blocks with the attenuation blocks and serves
everything else: ``jw2d_snake`` and ``bravyi_kitaev``, non-uniform mixes in
exact mode, and general states.  Where both apply they agree to about 1e-15.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .encodings import EncodingWeightModel, interleave_flavors
from .gaussian import GaussianState, ModeDiagonalState, QuadraticObservable

MODES = ("exact", "worst-case")

P_MAX = 2.0 / 3.0


@dataclass(frozen=True)
class PauliChannel:
    """Single-qubit Pauli channel with strength p and mix (a_x, a_y, a_z)."""

    p: float
    alphas: Tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if not 0.0 <= self.p <= P_MAX:
            raise ValueError(f"noise strength must lie in [0, 2/3], got {self.p}")
        a = np.asarray(self.alphas, dtype=float)
        if a.shape != (3,) or np.any(a < -1e-12):
            raise ValueError(f"alphas must be three nonnegative weights, got {self.alphas}")
        if abs(a.sum() - 1.0) > 1e-9:
            raise ValueError(f"alphas must sum to 1, got sum {a.sum()}")
        a = np.clip(a, 0.0, None)
        object.__setattr__(self, "alphas", tuple(a / a.sum()))

    @classmethod
    def depolarizing(cls, p: float) -> "PauliChannel":
        return cls(p)

    @property
    def is_depolarizing(self) -> bool:
        return max(abs(a - 1 / 3) for a in self.alphas) < 1e-12

    @property
    def etas(self) -> Tuple[float, float, float]:
        """Transfer eigenvalues (eta_x, eta_y, eta_z) of X, Y, Z.

        The uniform mix returns ``1 - p`` three times, exactly.
        """
        if self.is_depolarizing:
            return (1.0 - self.p,) * 3
        return tuple(1.0 - 1.5 * self.p * (1.0 - a) for a in self.alphas)

    @property
    def worst_factor(self) -> float:
        """Universal per-factor lower bound ``1 - 3p/2``."""
        return 1.0 - 1.5 * self.p


def _mode_etas(channel: PauliChannel, mode: str) -> Tuple[float, float, float]:
    if mode not in MODES:
        raise ValueError(f"unknown attenuation mode {mode!r}; expected one of {MODES}")
    if mode == "worst-case":
        return (channel.worst_factor,) * 3
    return channel.etas


def _eta_power(etas: Tuple[float, float, float], weight: Callable, counts: Callable):
    """``ex**nx * ey**ny * ez**nz``, or ``eta**weight`` when the etas agree.

    ``weight`` and ``counts`` are called only when needed, so a weight-only
    model serves every case with equal etas.
    """
    ex, ey, ez = etas
    if ex == ey == ez:
        return ex ** weight()
    nx, ny, nz = counts()
    return ex**nx * ey**ny * ez**nz


def pair_attenuation(enc: EncodingWeightModel, channel: PauliChannel,
                     a: int, b: int, mode: str = "exact") -> float:
    """Attenuation factor of the single encoded bilinear ``gamma_a gamma_b``."""
    return float(_eta_power(_mode_etas(channel, mode), lambda: enc.bilinear_weight(a, b),
                            lambda: astuple(enc.string_composition(a, b))))


def _attenuation(enc: EncodingWeightModel, channel: PauliChannel, mode: str,
                 idx: Optional[np.ndarray] = None) -> np.ndarray:
    """Attenuation of every pair of the Majoranas ``idx``, or flavor blocks of all pairs."""
    return _eta_power(_mode_etas(channel, mode), lambda: enc.pair_weights(idx),
                      lambda: enc.pair_weights(idx, counts=True))


def attenuation_block(enc: EncodingWeightModel, channel: PauliChannel,
                      idx: np.ndarray, mode: str = "exact") -> np.ndarray:
    """``attenuation_matrix(...)[np.ix_(idx, idx)]``, built on the index set only.

    ``idx`` holds distinct Majorana indices; the cost is ``O(len(idx)**2)``
    whatever the system size.
    """
    lam = np.array(_attenuation(enc, channel, mode, np.asarray(idx)), dtype=float)
    np.fill_diagonal(lam, 1.0)
    return lam


def attenuation_matrix(enc: EncodingWeightModel, channel: PauliChannel,
                       mode: str = "exact") -> np.ndarray:
    """(2N, 2N) per-bilinear attenuation factors (diagonal fixed to 1)."""
    lam = interleave_flavors(_attenuation(enc, channel, mode))
    np.fill_diagonal(lam, 1.0)
    return lam


def noisy_expectation(state: GaussianState, obs: QuadraticObservable,
                      enc: EncodingWeightModel, channel: PauliChannel,
                      mode: str = "exact") -> float:
    """Expectation of an encoded observable measured through the channel."""
    lam = attenuation_block(enc, channel, obs.support, mode)
    return obs.offset + float(np.sum(obs.block * lam * state.covariance_block(obs.support)))


def measurement_error(state: GaussianState, obs: QuadraticObservable,
                      enc: EncodingWeightModel, channel: PauliChannel,
                      mode: str = "exact") -> float:
    """Absolute shift ``|<O> - <O>_noisy|`` induced by the channel."""
    lam = attenuation_block(enc, channel, obs.support, mode)
    return float(abs(np.sum(obs.block * (1.0 - lam) * state.covariance_block(obs.support))))


def momentum_error_map(state: GaussianState, enc: EncodingWeightModel,
                       channel: PauliChannel, momenta: np.ndarray,
                       mode: str = "exact") -> np.ndarray:
    """Noise-induced error of the mode occupation ``n_k`` for many momenta.

    Returns ``<n_k> - <n_k>_noisy`` for each row of ``momenta``.

    Spectral path: a :class:`ModeDiagonalState` under equal etas and an
    encoding with :meth:`~EncodingWeightModel.displacement_weights` has the
    drop ``1 - eta**w(r)`` of displacement alone, and the error is the box sum
    :meth:`ModeDiagonalState.occupation_shift`, ``O(N log N)`` for a whole grid.

    Dense path, for every other state, encoding, mode and mix: with the
    covariance flavor blocks ``G_fg = Gamma[f::2, g::2]`` and the drops
    ``D_fg = 1 - lambda_fg`` broadcast from the encoding's block shape, the
    error is ``Re(phi T phi^dag) / (4N)`` with
    ``T = (D01 o G01 - D10 o G10) + i (D00 o G00 + D11 o G11)`` and
    ``phi[k, s] = exp(i k . r_s)``.
    """
    lat = state.lattice
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    if momenta.shape[1] != lat.dim:
        raise ValueError(f"momenta must have {lat.dim} columns, got {momenta.shape}")
    etas = _mode_etas(channel, mode)
    if isinstance(state, ModeDiagonalState) and etas[0] == etas[1] == etas[2]:
        weights = enc.displacement_weights()
        if weights is not None:
            return state.occupation_shift(1.0 - etas[0] ** weights, momenta)
    n = lat.n_sites
    drop = np.broadcast_to(1.0 - _attenuation(enc, channel, mode), (2, 2, n, n))
    g = state.gamma
    t_mat = np.empty((n, n), dtype=complex)
    t_mat.real = drop[0, 1] * g[0::2, 1::2] - drop[1, 0] * g[1::2, 0::2]
    t_mat.imag = drop[0, 0] * g[0::2, 0::2] + drop[1, 1] * g[1::2, 1::2]
    phi = np.exp(1j * (momenta @ lat.coords.T))
    vals = np.sum((phi @ t_mat) * phi.conj(), axis=1)
    return vals.real / (4.0 * n)
