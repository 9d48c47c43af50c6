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
every pair of a Majorana index set (:func:`attenuation_block`) and a single
bilinear (:func:`pair_attenuation`, the index set ``[a, b]``).

Measurement noise is read on the observable's support, as a circuit's light
cone is: :func:`noisy_expectation` and :func:`measurement_error` damp the
observable's ``S x S`` block by :func:`attenuation_block` on ``S`` and
contract it with the state's covariance on ``S``
(:meth:`~fermion_noise.gaussian.GaussianState.covariance_block`), so a
mode-diagonal state never builds its ``2N x 2N`` covariance.

The momentum error map is defined on a
:class:`~fermion_noise.gaussian.ModeDiagonalState` (every Fermi sea), whose
covariance depends on the displacement of the two sites alone.  So only the
drops ``1 - lambda`` are summed by displacement on the ``(2L)^D`` box,
folded onto the ``L^D`` torus and weighted by ``C(r)``, one FFT per class of
momenta; neither the ``2N x 2N`` covariance nor an ``N x N`` pair table is
built.  Each encoding kind has one producer of the summed drops, for every
mode and mix it supports:

``local``
    ``1 - eta**(phi0 + d(r))`` of displacement alone, times the pair count.
``jw1d``, ``jw2d_snake``
    A drop of the qubit separation ``|o_s - o_t|`` alone, summed by rows of
    the chain or the snake from one ``(2L - 1)^D`` table
    (:func:`_jordan_wigner_drop_box`): ``fermi2d --L 1024 --encoding
    jw2d_snake`` takes about 5 s and 330 MB on 2 CPUs.
``bravyi_kitaev``
    By Fenwick levels: a pair first differing at bit ``h`` lies in a block
    of ``2^(h + 1)`` modes, every such block is a lattice translate of the
    first, and its attenuation is a product of one factor per end (two
    under a non-uniform mix), so each level is one FFT cross-correlation on
    the box, ``O(N log N)`` in all (:func:`_fenwick_drop_box`).

The summed drops depend on the encoding and the etas, not on the state, and
the last few are kept on the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .encodings import _WEIGHTS_ONLY, EncodingWeightModel, _fenwick_bits, _fenwick_levels
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


def attenuation_block(enc: EncodingWeightModel, channel: PauliChannel,
                      idx: np.ndarray, mode: str = "exact") -> np.ndarray:
    """Attenuation factor of every pair of the Majoranas ``idx`` (diagonal fixed to 1).

    ``ex**nx * ey**ny * ez**nz``, or ``eta**weight`` when the etas agree, so
    the weight-only ``local`` model serves every case with equal etas.
    ``idx`` holds distinct Majorana indices; the cost is ``O(len(idx)**2)``
    whatever the system size.
    """
    ex, ey, ez = _mode_etas(channel, mode)
    if ex == ey == ez:
        lam = ex ** enc.pair_weights(idx)
    else:
        nx, ny, nz = enc.pair_weights(idx, counts=True)
        lam = ex**nx * ey**ny * ez**nz
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


def _jordan_wigner_drop_box(lat: Lattice, etas: Tuple[float, float, float]
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Jordan-Wigner's ``(same, cross)`` drops of :func:`_drop_box`, by qubit separation.

    In either qubit order ``o`` the X/Y/Z counts of a site pair, averaged over
    its two flavor pairs, depend on the separation ``m = |o_s - o_t|`` alone
    (:meth:`~fermion_noise.encodings.EncodingWeightModel._jordan_wigner_counts`),
    so the drops are ``h(m)``: ``1 - ex ey ez**(m - 1)`` within a flavor (0 on
    site) and ``1 - (ex**2 + ey**2)/2 ez**(m - 1)`` across (``1 - ez`` on
    site), both ``1 - eta**(m + 1)`` when the etas agree.  The chain has
    ``L - |r|`` pairs at ``r``, all at ``m = |r|``.  The snake,
    ``o = y L + x'`` with ``x' = x`` on even rows and ``L - 1 - x`` on odd
    ones, has at ``(u, d)`` the separation ``|d L + x1' - x2'|``.  For ``d``
    even both rows share a parity and ``x1' - x2'`` is ``u`` on even rows and
    ``-u`` on odd ones, over ``L - |u|`` columns each.  For ``d`` odd,
    whichever row is even, it runs once over ``-(L - 1 - |u|) .. L - 1 - |u|``
    in steps of 2, on each of the ``L - |d|`` row pairs: a stride-2 running sum
    of ``h(|d L + t|) + h(|d L - t|)`` from ``t = 0`` out.  ``O(N)`` from one
    ``(2L - 1)^2`` table of ``h(|d L + t|)``, with no ``N x N`` array.
    """
    length = lat.length
    ex, ey, ez = etas

    def drops(m):
        if ex == ey == ez:
            return (1.0 - ex ** (m + 1),)
        z = ez ** np.maximum(m - 1, 0)
        same, cross = 1.0 - ex * ey * z, 1.0 - (ex**2 + ey**2) / 2.0 * z
        same[m == 0], cross[m == 0] = 0.0, 1.0 - ez
        return same, cross

    if lat.dim == 1:
        r = np.abs(lat.displacement_box()[0])
        boxes = [h * (length - r) for h in drops(r)]
    else:
        t = np.arange(1 - length, length)  # the row offset d, and x1' - x2'
        pairs = length - np.abs(t)
        odd = t % 2 == 1
        # Even rows y1 in [max(0, d), L - 1 + min(0, d)], read at even d.
        even = ((length - 1 + np.minimum(t, 0)) // 2 - (np.maximum(t, 0) - 1) // 2)[~odd, None]
        at = np.ix_(t % (2 * length), t % (2 * length))
        boxes = []
        for h in drops(np.abs(length * t[:, None] + t[None, :])):  # [d, t]
            by_rows = np.empty_like(h)
            by_rows[~odd] = (even * h[~odd] + (pairs[~odd, None] - even) * h[~odd, ::-1]) * pairs
            window = h[odd, length - 1:] + h[odd, length - 1::-1]  # h(dL + t) + h(dL - t)
            window[:, 0] = h[odd, length - 1]
            for p in (0, 1):  # column k: the sum over t = -k, -k + 2, .., k
                window[:, p::2] = np.cumsum(window[:, p::2], axis=1)
            by_rows[odd] = window[:, length - 1 - np.abs(t)] * pairs[odd, None]
            box = np.zeros((2 * length,) * 2)
            box[at] = by_rows.T
            boxes.append(box)
    return boxes[0], boxes[-1]


def _drop_box(enc: EncodingWeightModel, etas: Tuple[float, float, float]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Drops ``1 - lambda`` summed over the site pairs at every displacement.

    Box arrays of :meth:`Lattice.displacement_box`, ``same`` for the
    equal-flavor and ``cross`` for the cross-flavor bilinears, each the mean
    of its two flavor pairs, as :meth:`ModeDiagonalState.occupation_shift`
    takes them.  One producer per encoding kind: ``local`` has the drop
    ``1 - eta**(phi0 + d(r))`` of displacement alone, times the pair count
    (equal etas only: it models weights, not X/Y/Z strings);
    ``bravyi_kitaev`` goes by Fenwick levels (:func:`_fenwick_drop_box`);
    ``jw1d`` and ``jw2d_snake`` by qubit separation
    (:func:`_jordan_wigner_drop_box`).  They depend on the encoding and the
    etas, not on the state, and the last ``_DROP_BOXES_KEPT`` etas' boxes are
    kept on the model.
    """
    boxes = enc._drop_boxes
    if etas not in boxes:
        if len(boxes) >= _DROP_BOXES_KEPT:
            del boxes[next(iter(boxes))]
        lat = enc.lattice
        if enc.kind == "local":
            if not etas[0] == etas[1] == etas[2]:
                raise ValueError(_WEIGHTS_ONLY)
            weights = enc.phi0 + sum(lat._wrap(r) for r in lat.displacement_box())
            same = cross = (1.0 - etas[0] ** weights) * lat.displacement_multiplicity()
        elif enc.kind == "bravyi_kitaev":
            same, cross = _fenwick_drop_box(lat, etas)
        else:
            same, cross = _jordan_wigner_drop_box(lat, etas)
        for drop in (same, cross):
            drop.setflags(write=False)
        boxes[etas] = same, cross
    return boxes[etas]


def momentum_error_map(state: ModeDiagonalState, enc: EncodingWeightModel,
                       channel: PauliChannel, momenta: np.ndarray,
                       mode: str = "exact") -> np.ndarray:
    """Noise-induced error of the mode occupation ``n_k`` for many momenta.

    Returns ``<n_k> - <n_k>_noisy`` for each row of ``momenta``.  A
    :class:`ModeDiagonalState` has a covariance that depends on the
    displacement ``r`` of the two sites alone, so only the drops
    ``1 - lambda`` are summed by displacement (:func:`_drop_box`, ``O(N log
    N)`` or less for every encoding, mode and mix), folded onto the torus and
    weighted by ``C(r)`` (:meth:`ModeDiagonalState.occupation_shift`), one
    ``L^D`` FFT per class of momenta; its covariance is never built.  Any
    other :class:`GaussianState` raises ``TypeError``.
    """
    _check_lattices(enc, state)
    if not isinstance(state, ModeDiagonalState):
        raise TypeError(f"momentum_error_map needs a ModeDiagonalState, got {type(state).__name__}")
    momenta = np.atleast_2d(np.asarray(momenta, dtype=float))
    return state.occupation_shift(*_drop_box(enc, _mode_etas(channel, mode)), momenta)
