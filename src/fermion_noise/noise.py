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
bits of the two sites for Bravyi-Kitaev); worst-case mode sets all three
etas to ``1 - 3p/2``.  With equal etas the formula is ``eta**weight``, the
only case the weight-only ``local`` model supports.  The same formula serves
every pair of a Majorana index set (:func:`attenuation_block`), a single
bilinear (:func:`pair_attenuation`, the index set ``[a, b]``) and all
pairs at once; those keep the encoding's ``(F, F, N, N)`` flavor-block
shape and are never expanded to ``(2N, 2N)``.

Measurement noise is read on the observable's support, as a circuit's light
cone is: :func:`noisy_expectation` and :func:`measurement_error` damp the
observable's ``S x S`` block by :func:`attenuation_block` on ``S`` and
contract it with the state's covariance on ``S``
(:meth:`~fermion_noise.gaussian.GaussianState.covariance_block`), so a
mode-diagonal state never builds its ``2N x 2N`` covariance.

The momentum error map is a pair sum collected on the ``(2L)^D``
displacement box and read off the ``L^D`` torus, the box folded onto it, by
one FFT (:meth:`~fermion_noise.lattice.Lattice.box_sum`).  A
:class:`~fermion_noise.gaussian.ModeDiagonalState` (every Fermi sea) has a
covariance that depends on the displacement of the two sites alone, so for
every encoding, mode and mix only the drops ``1 - lambda`` are summed by
displacement, folded onto the torus and weighted by ``C(r)``; its
``2N x 2N`` covariance is never built.  When the etas agree (any uniform
mix, and worst-case mode), ``local`` and ``jw1d`` have a drop of
displacement alone, and its sum is the drop times the pair count: two
``L^D`` FFTs for a whole grid, with no ``N x N`` array.
``bravyi_kitaev`` goes by Fenwick levels under every mode and mix: a pair
first differing at bit ``h`` lies in a block of ``2^(h + 1)`` modes, every
such block is a lattice translate of the first, and its attenuation is a
product of one factor per end (two under a non-uniform mix), so each level
is one FFT cross-correlation on the box, ``O(N log N)`` in all:
``fermi2d --L 64 --n-occ 1000 --encoding bravyi_kitaev`` takes about 0.33 s
and 37 MB on 2 CPUs.  ``jw2d_snake`` and non-uniform ``jw1d`` fold their
``N x N`` drop blocks row block by row block, with the drops taken in place
of the attenuation: ``fermi2d --L 64 --n-occ 1000 --encoding jw2d_snake``
takes about 1.2 s and 222 MB.  The summed drops depend on the encoding and
the etas, not on the state, and the last few are kept on the model.  Any
other state folds its drops times its covariance the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .encodings import EncodingWeightModel, _fenwick_bits, _fenwick_levels
from .gaussian import GaussianState, ModeDiagonalState, QuadraticObservable
from .lattice import Lattice

MODES = ("exact", "worst-case")

P_MAX = 2.0 / 3.0

# Drop boxes kept per model, the oldest dropped first: one run asks for at
# most two (exact and worst-case), and a sweep over ``p`` must not grow RSS.
_DROP_BOXES_KEPT = 8


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


def _attenuation(enc: EncodingWeightModel, etas: Tuple[float, float, float],
                 idx: Optional[np.ndarray] = None) -> np.ndarray:
    """Attenuation of every pair of the Majoranas ``idx``, or flavor blocks of all pairs.

    ``ex**nx * ey**ny * ez**nz``, or ``eta**weight`` when the etas agree, so
    the weight-only ``local`` model serves every case with equal etas.
    """
    ex, ey, ez = etas
    if ex == ey == ez:
        return ex ** enc.pair_weights(idx)
    nx, ny, nz = enc.pair_weights(idx, counts=True)
    return ex**nx * ey**ny * ez**nz


def _drops(enc: EncodingWeightModel, etas: Tuple[float, float, float]) -> np.ndarray:
    """Flavor blocks of ``1 - lambda`` over all pairs, taken in place of ``lambda``."""
    lam = _attenuation(enc, etas)
    return np.subtract(1.0, lam, out=lam)


def attenuation_block(enc: EncodingWeightModel, channel: PauliChannel,
                      idx: np.ndarray, mode: str = "exact") -> np.ndarray:
    """Attenuation factor of every pair of the Majoranas ``idx`` (diagonal fixed to 1).

    ``idx`` holds distinct Majorana indices; the cost is ``O(len(idx)**2)``
    whatever the system size.
    """
    lam = np.array(_attenuation(enc, _mode_etas(channel, mode), np.asarray(idx)), dtype=float)
    np.fill_diagonal(lam, 1.0)
    return lam


def pair_attenuation(enc: EncodingWeightModel, channel: PauliChannel,
                     a: int, b: int, mode: str = "exact") -> float:
    """Attenuation factor of the single encoded bilinear ``gamma_a gamma_b``, a != b."""
    enc._check_pair(a, b)
    return float(attenuation_block(enc, channel, [a, b], mode)[0, 1])


def _check_lattices(enc: EncodingWeightModel, state: GaussianState) -> None:
    if enc.lattice != state.lattice:
        raise ValueError("encoding and state lattices disagree")


def noisy_expectation(state: GaussianState, obs: QuadraticObservable,
                      enc: EncodingWeightModel, channel: PauliChannel,
                      mode: str = "exact") -> float:
    """Expectation of an encoded observable measured through the channel."""
    _check_lattices(enc, state)
    lam = attenuation_block(enc, channel, obs.support, mode)
    return obs.offset + float(np.sum(obs.block * lam * state.covariance_block(obs.support)))


def measurement_error(state: GaussianState, obs: QuadraticObservable,
                      enc: EncodingWeightModel, channel: PauliChannel,
                      mode: str = "exact") -> float:
    """Absolute shift ``|<O> - <O>_noisy|`` induced by the channel."""
    _check_lattices(enc, state)
    lam = attenuation_block(enc, channel, obs.support, mode)
    return float(abs(np.sum(obs.block * (1.0 - lam) * state.covariance_block(obs.support))))


def _fold(lat: Lattice, pairs: np.ndarray) -> np.ndarray:
    """``sum_{x_s - x_t = r} pairs[..., s, t]``: box arrays of :meth:`Lattice.displacement_box`.

    ``pairs`` stacks ``N x N`` site-pair matrices, read in place in any layout.
    Rows are folded in blocks of ``isqrt(N)`` and the partial boxes added: one
    bincount over all rows adds the N alike terms of a translation-invariant
    diagonal in sequence and loses a digit.
    """
    n = lat.n_sites
    period = 2 * lat.length
    lead = pairs.shape[:-2]
    box = np.zeros((math.prod(lead), period ** lat.dim))
    sites = np.arange(n)
    step = math.isqrt(n)
    for lo in range(0, n, step):
        key = lat.displacement_index(sites[lo:lo + step], sites).ravel()
        for out, at in zip(box, np.ndindex(lead)):
            out += np.bincount(key, pairs[at][lo:lo + step].ravel(), box.shape[1])
    return box.reshape(lead + (period,) * lat.dim)


def _fenwick_drop_box(lat: Lattice, etas: Tuple[float, float, float]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Bravyi-Kitaev's ``(same, cross)`` drops of :func:`_drop_box`, level by level.

    At level ``h`` (:func:`~fermion_noise.encodings._fenwick_levels`) every
    X/Y/Z exponent of :func:`~fermion_noise.encodings._fenwick_pairs` is a sum
    of one term per end but for the ``or`` in ``y``.  For the flavors
    ``(f, g)`` the attenuation of a pair is ``a_fg A_f(s) A_g(t)``, plus
    ``b_fg B_f(s) B_g(t)``, with the end factors

        ``A_f = ex**(h - O) ez**(O - f P)``,
        ``B_f = (1 - f R) ex**(h - O - f) ez**(O - f P)``,

    ``a_00 = ey``, ``b_00 = 0`` and otherwise ``a_fg = ex**(2 - f - g)
    ey**(f + g - 1)`` and ``b_fg = ey**(f + g - 1) (ey**2 - ex**2)``.  Every
    power is nonnegative, so an eta of 0 is no special case.  Every level-``h``
    block is a lattice translate of block 0 (row-major sites, ``N = 2^n``), so
    the pair sum by displacement is one cross-correlation of the two halves of
    block 0, by FFT on the box, with the upper half's factors summed over the
    blocks: the block count times block 0's, but at the last site, which takes
    every block's own.  The factors enter the FFTs as ``A - 1``: the ``1 * 1``
    terms are the pair count, the multiplicity, whose drop ``1 - a_fg`` is
    exact, so the sum keeps the digits of ``1 - lambda``.  The diagonal is the
    number operator, ``1 + tau`` Zs between the two flavors and no drop within
    one.  ``O(N log N)`` in all, with no ``N x N`` array.
    """
    ex, ey, ez = etas
    n, dim = lat.n_sites, lat.dim
    box, axes = (2 * lat.length,) * dim, tuple(range(-dim, 0))
    swap = (ey - ex) * (ey + ex)  # b_fg / ey**(f + g - 1)
    # Spectra of the same- and cross-flavor sums of lambda - a over the two
    # orders of every pair, halved; real, as both sums are even in r.
    spectra = np.zeros((2,) + box[:-1] + (box[-1] // 2 + 1,))

    def ends(h, o, p, r):  # 1, A_0 - 1 (B_0 = A_0), A_1 - 1 and B_1
        up, down = ex ** (h - o), ez ** (o - p)
        return np.stack(np.broadcast_arrays(
            1.0, up * ez ** o - 1.0, up * down - 1.0,
            np.where(r, 0.0, ex ** np.maximum(h - o - 1, 0) * down)))

    for h, o, p, r, p_last in _fenwick_levels(n):
        size = len(o)
        factors = ends(h, o, p, r)
        factors[:, size // 2:] *= n // size
        factors[:, -1] = ends(h, h, p_last, True).sum(axis=1)
        grids = np.zeros((2, 4) + box)
        for grid, sites in zip(grids, np.split(np.arange(size), 2)):
            grid[(slice(None),) + tuple(lat.coords[sites].T)] = factors[:, sites]
        (li, l0, l1, l2), (ui, u0, u1, u2) = np.fft.rfftn(grids, axes=axes)
        a0, au0 = li + l0, ui + u0
        spectra[0] += (ey * (a0 * u0.conj() + l0 * ui.conj() + (li + l1) * u1.conj()
                         + l1 * ui.conj() + swap * l2 * u2.conj())).real
        spectra[1] += (ex * (a0 * u1.conj() + l0 * ui.conj() + au0 * l1.conj() + u0 * li.conj())
                   + swap * (a0 * u2.conj() + au0 * l2.conj())).real
    mult = lat.displacement_multiplicity()
    lam = np.fft.irfftn(spectra, box, axes=axes)
    same, cross = np.multiply.outer((1.0 - ey, 1.0 - ex), mult) - lam
    for drop in (same, cross):
        drop[mult == 0] = 0.0
    origin = (0,) * dim
    same[origin] = 0.0
    cross[origin] = np.sum(1.0 - ez ** (1 + _fenwick_bits(n)[1].astype(np.int64)))
    return same, cross


def _drop_box(enc: EncodingWeightModel, etas: Tuple[float, float, float]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Drops ``1 - lambda`` summed over the site pairs at every displacement.

    Box arrays of :meth:`Lattice.displacement_box`, ``same`` for the
    equal-flavor and ``cross`` for the cross-flavor bilinears, each the mean
    of its two flavor pairs, as :meth:`ModeDiagonalState.occupation_shift`
    takes them.  ``local`` and ``jw1d`` under equal etas have a drop of
    displacement alone, times the pair count; ``bravyi_kitaev`` goes by
    Fenwick levels (:func:`_fenwick_drop_box`); the rest fold their ``N x N``
    drop blocks.  They depend on the encoding and the etas, not on the state,
    and the last ``_DROP_BOXES_KEPT`` etas' boxes are kept on the model.
    """
    boxes = enc._drop_boxes
    if etas not in boxes:
        if len(boxes) >= _DROP_BOXES_KEPT:
            del boxes[next(iter(boxes))]
        lat = enc.lattice
        weights = enc.displacement_weights()
        if etas[0] == etas[1] == etas[2] and weights is not None:
            same = cross = (1.0 - etas[0] ** weights) * lat.displacement_multiplicity()
        elif enc.kind == "bravyi_kitaev":
            same, cross = _fenwick_drop_box(lat, etas)
        else:
            drop = _fold(lat, _drops(enc, etas))
            same = (drop[0, 0] + drop[-1, -1]) / 2.0
            cross = (drop[0, -1] + drop[-1, 0]) / 2.0
        for drop in (same, cross):
            drop.setflags(write=False)
        boxes[etas] = same, cross
    return boxes[etas]


def momentum_error_map(state: GaussianState, enc: EncodingWeightModel,
                       channel: PauliChannel, momenta: np.ndarray,
                       mode: str = "exact") -> np.ndarray:
    """Noise-induced error of the mode occupation ``n_k`` for many momenta.

    Returns ``<n_k> - <n_k>_noisy`` for each row of ``momenta``.  With the
    covariance flavor blocks ``G_fg = Gamma[f::2, g::2]`` and the drops
    ``D_fg = 1 - lambda_fg`` in the encoding's block shape, the error is
    ``Re sum_st e^{i k.(r_s - r_t)} T_st / (4N)`` with
    ``T = (D01 o G01 - D10 o G10) + i (D00 o G00 + D11 o G11)``, a pair sum
    folded onto the ``(2L)^D`` displacement box and read off the ``L^D``
    torus by :meth:`Lattice.box_sum`.

    A :class:`ModeDiagonalState` has ``G`` a function of ``r_s - r_t``, so
    only the drops are summed by displacement (:func:`_drop_box`), folded
    onto the torus and weighted by ``C(r)``
    (:meth:`ModeDiagonalState.occupation_shift`), one ``L^D`` FFT per class
    of momenta; its covariance is never built.  Under equal etas, ``local`` and ``jw1d`` give
    the drop ``1 - eta**w(r)`` of displacement alone
    (:meth:`~EncodingWeightModel.displacement_weights`), and its sum is that
    drop times the pair count :meth:`Lattice.displacement_multiplicity`;
    ``bravyi_kitaev`` sums its drops by Fenwick level, one FFT per level
    (:func:`_fenwick_drop_box`): both ``O(N log N)`` for a whole grid.
    ``jw2d_snake`` and non-uniform ``jw1d`` fold their ``N x N`` drop blocks.
    Any other state folds ``T``.
    """
    _check_lattices(enc, state)
    lat = state.lattice
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    if isinstance(state, ModeDiagonalState):
        return state.occupation_shift(*_drop_box(enc, _mode_etas(channel, mode)), momenta)
    n = lat.n_sites
    drop = np.broadcast_to(_drops(enc, _mode_etas(channel, mode)), (2, 2, n, n))
    g = state.gamma
    t = np.stack([drop[0, 1] * g[0::2, 1::2] - drop[1, 0] * g[1::2, 0::2],
                  drop[0, 0] * g[0::2, 0::2] + drop[1, 1] * g[1::2, 1::2]])
    real, imag = _fold(lat, t)
    return lat.box_sum(real + 1j * imag, momenta) / (4.0 * n)
