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
strings (closed forms in the qubit order for Jordan-Wigner, and in the
bits of the two sites for Bravyi-Kitaev), so the library takes the noise as
its etas ``(ex, ey, ez)`` alone; :func:`mode_etas` reads them off a channel,
and worst-case mode sets all three to ``1 - 3p/2``.  With equal etas the
formula is ``eta**weight``, the only case the weight-only ``local`` model
supports.  The same formula serves every pair of a Majorana index set
(:func:`attenuation_block`); a single bilinear ``gamma_a gamma_b`` is the
``[0, 1]`` entry of the index set ``[a, b]``.

Measurement noise is read on the observable's support, as a circuit's light
cone is: :func:`noisy_expectation` and :func:`measurement_error` damp the
observable's ``S x S`` block by :func:`attenuation_block` on ``S`` and
contract it with the state's covariance on ``S``: any state with a
``lattice`` and a ``covariance_block``
(:class:`~fermion_noise.gaussian.CovarianceBlocks`), so a mode-diagonal
state never builds its ``2N x 2N`` covariance.

The momentum error map is defined on a
:class:`~fermion_noise.gaussian.ModeDiagonalState` (every Fermi sea), whose
covariance depends on the displacement of the two sites alone.  So only the
drops ``1 - lambda`` are summed by displacement, onto the ``L^D`` torus by
the encoding with one fold sign per axis
(:meth:`~fermion_noise.encodings.EncodingWeightModel.drop_torus`), and
weighted by ``C(r)``, one FFT per class of momenta; neither the
``2N x 2N`` covariance nor an ``N x N`` pair table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .encodings import EncodingWeightModel, checked_etas
from .gaussian import CovarianceBlocks, ModeDiagonalState, QuadraticObservable

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
        if a.shape != (3,) or not np.all(np.isfinite(a)) or np.any(a < -1e-12):
            raise ValueError(f"alphas must be three finite nonnegative weights, got {self.alphas}")
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


def mode_etas(channel: PauliChannel, mode: str) -> Tuple[float, float, float]:
    """The etas of ``channel`` read in ``mode``: its own, or ``1 - 3p/2`` thrice if worst-case."""
    if mode not in MODES:
        raise ValueError(f"unknown attenuation mode {mode!r}; expected one of {MODES}")
    if mode == "worst-case":
        return (channel.worst_factor,) * 3
    return channel.etas


def attenuation_block(enc: EncodingWeightModel, etas: Sequence[float],
                      idx: np.ndarray) -> np.ndarray:
    """Attenuation factor of every pair of the Majoranas ``idx`` (diagonal fixed to 1).

    ``ex**nx * ey**ny * ez**nz`` for ``etas = (ex, ey, ez)``, or
    ``eta**weight`` when the etas agree, so the weight-only ``local`` model
    serves every case with equal etas.  ``idx`` holds distinct Majorana
    indices; the cost is ``O(len(idx)**2)`` whatever the system size.
    """
    ex, ey, ez = checked_etas(etas)
    if ex == ey == ez:
        lam = ex ** enc.pair_weights(idx)
    else:
        nx, ny, nz = enc.pair_weights(idx, counts=True)
        lam = ex**nx * ey**ny * ez**nz
    np.fill_diagonal(lam, 1.0)
    return lam


def _check_lattices(enc: EncodingWeightModel, state: CovarianceBlocks) -> None:
    if enc.lattice != state.lattice:
        raise ValueError("encoding and state lattices disagree")


def noisy_expectation(state: CovarianceBlocks, obs: QuadraticObservable,
                      enc: EncodingWeightModel, etas: Sequence[float]) -> float:
    """Expectation of an encoded observable measured through the noise of ``etas``.

    ``state`` is any object with ``lattice`` and ``covariance_block``; only
    its covariance on the observable's support is read.
    """
    _check_lattices(enc, state)
    lam = attenuation_block(enc, etas, obs.support)
    return obs.offset + float(np.sum(obs.block * lam * state.covariance_block(obs.support)))


def measurement_error(state: CovarianceBlocks, obs: QuadraticObservable,
                      enc: EncodingWeightModel, etas: Sequence[float]) -> float:
    """Absolute shift ``|<O> - <O>_noisy|`` induced by the noise of ``etas``.

    ``state`` is read as in :func:`noisy_expectation`.
    """
    _check_lattices(enc, state)
    lam = attenuation_block(enc, etas, obs.support)
    return float(abs(np.sum(obs.block * (1.0 - lam) * state.covariance_block(obs.support))))


def momentum_error_map(state: ModeDiagonalState, enc: EncodingWeightModel,
                       etas: Sequence[float], momenta: np.ndarray) -> np.ndarray:
    """Noise-induced error of the mode occupation ``n_k`` for many momenta.

    Returns ``<n_k> - <n_k>_noisy`` for each row of ``momenta``.  A
    :class:`ModeDiagonalState` has a covariance that depends on the
    displacement ``r`` of the two sites alone, so only the drops
    ``1 - lambda`` are summed by displacement onto the torus of each class of
    momenta (:meth:`EncodingWeightModel.drop_torus`, ``O(N log N)`` or less
    for every encoding and etas) and weighted by ``C(r)``
    (:meth:`ModeDiagonalState.occupation_shift`), one ``L^D`` FFT per class;
    its covariance is never built.  Any other state raises ``TypeError``, and
    a momentum off every grid or bad etas ``ValueError``.
    """
    _check_lattices(enc, state)
    if not isinstance(state, ModeDiagonalState):
        raise TypeError(f"momentum_error_map needs a ModeDiagonalState, got {type(state).__name__}")
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    etas = checked_etas(etas)
    return state.occupation_shift(lambda signs: enc.drop_torus(etas, signs), momenta)
