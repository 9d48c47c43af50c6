"""Pauli-weight models of fermion-to-qubit encodings.

For a pair of Majorana operators ``gamma_a gamma_b`` each encoding maps the
bilinear to a single Pauli string (up to phase); what matters for
single-qubit noise is how many tensor factors of that string are X, Y and Z,
and a Pauli channel damps it by ``lambda = ex**nx * ey**ny * ez**nz``.
Four models are provided, each with its drops ``1 - lambda`` summed over the
site pairs at every displacement and folded onto the ``L^D`` torus as they
are summed:

``local``
    An abstract geometrically local encoding: weight ``phi0 + d(r, r')`` with
    ``d`` the torus distance and ``phi0`` a constant overhead per bilinear.
    Only the weight is modelled, not the X/Y/Z content of the string, so
    only equal etas apply: the drop ``1 - eta**(phi0 + d(r))`` of
    displacement alone, times the pair count.
``jw1d``, ``jw2d_snake``
    Jordan-Wigner in qubit order ``o`` (the chain, or the boustrophedon
    "snake" through a 2D lattice): ``gamma_2s = Z_(<o) X_o`` and
    ``gamma_2s+1 = Z_(<o) Y_o`` with ``o = o(s)``.  Weights and X/Y/Z counts
    are int32 closed forms in ``o``: two sites have ``|o_s - o_t| - 1`` Zs
    between them, the lower qubit swaps its Pauli (X for Y) and the upper
    keeps its own, so the weight is ``1 + |o_s - o_t|``; the two flavors of
    one site give a single Z.  A drop depends on the qubit separation alone
    and is summed by rows of the chain or the snake
    (:func:`_jordan_wigner_drop_torus`).
``bravyi_kitaev``
    The binary encoder of Seeley, Richard and Love (2012), qubit bits
    ``b = beta n (mod 2)`` for occupations ``n``, with the Fenwick-tree
    matrix ``beta`` (modes a power of two); ``beta`` and its GF(2) inverse
    are test references that certify the closed forms, and the package
    never builds them.  Qubit ``j`` holds the parity of the ``2^tau(j)``
    modes ending at ``j`` (``tau`` the trailing ones), so weights and X/Y/Z
    counts are int32 closed forms in the bits of the two sites
    (:func:`_fenwick_pairs`).  A pair first differing at bit ``h`` lies in a
    block of ``2^(h + 1)`` modes, every such block is a lattice translate of
    the first, and its attenuation is a product of one factor per end (two
    under a non-uniform mix), so each Fenwick level is one circular FFT
    cross-correlation on the torus, ``O(N log N)`` in all.  The levels go in
    batches whose grids fit about 1 MiB: the end factors of a batch in one
    pass (:func:`_fenwick_ends`), one FFT and one correlation per batch
    (:func:`_fenwick_drop_torus`).

Weights and counts of every pair of a Majorana index set come from one
method, :meth:`EncodingWeightModel.pair_weights`.  A circuit's light cone
and a noisy measurement ask for them on the observable's support only, and
the weight and composition of a single bilinear ``gamma_a gamma_b`` are the
``[0, 1]`` entry of the index set ``[a, b]``.  The summed drops come from
one method too, :meth:`EncodingWeightModel.drop_torus`, on the torus that
the momentum error map of :mod:`fermion_noise.noise` reads, with one fold
sign per axis; no ``N x N`` table of all pairs is built.  They depend on
the encoding, the etas and the signs, not on the state, and the tori of the
last ``(etas, signs)`` are kept on the model: a run fixes its etas, and its
grid momenta all fold with sign ``+1``.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Sequence, Tuple

import numpy as np

from .lattice import Lattice

ENCODING_KINDS = ("local", "jw1d", "jw2d_snake", "bravyi_kitaev")

_WEIGHTS_ONLY = ("the 'local' model assigns Pauli weights only, not the X/Y/Z strings "
                 "that exact attenuation under a non-uniform mix needs; use the worst-case "
                 "etas, mode_etas(channel, 'worst-case')")


def checked_etas(etas: Sequence[float]) -> Tuple[float, float, float]:
    """``etas`` as three floats, or ``ValueError`` unless they are three numbers in ``[0, 1]``."""
    try:
        values = tuple(etas)
    except TypeError:  # not iterable
        values = ()
    if len(values) != 3 or not all(isinstance(eta, numbers.Real) and 0.0 <= eta <= 1.0
                                   for eta in values):  # NaN fails the comparison
        raise ValueError(f"etas must be three finite numbers in [0, 1], got {etas!r}")
    return tuple(map(float, values))


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"Bravyi-Kitaev requires a power-of-two mode count, got {n}")


# ----------------------------------------------------------------------
# the Fenwick closed form
# ----------------------------------------------------------------------


def bk_max_number_operator_weight(n_modes: int) -> int:
    """Largest number-operator weight over all modes, ``1 + log2(n)`` (mode n-1)."""
    _require_power_of_two(n_modes)
    return n_modes.bit_length()


def _trailing_ones(sites: np.ndarray) -> np.ndarray:
    """``tau`` of each site, its trailing one bits: qubit ``s`` holds ``2^tau(s)`` modes."""
    return np.bitwise_count(sites ^ (sites + 1)) - 1


def _fenwick_pairs(s: np.ndarray, t: np.ndarray, f: np.ndarray, g: np.ndarray,
                   counts: bool) -> np.ndarray:
    """Bravyi-Kitaev weights, or X/Y/Z counts, of the pairs ``(2s + f, 2t + g)``, in int32.

    ``s`` and ``t`` are a column and a row of the same sites; the flavors
    broadcast against them, as ``(n, 1)`` and ``(1, n)`` or ``(2, 1, 1, 1)``
    and ``(1, 2, 1, 1)``.  Majorana ``2s`` is X on qubit ``s`` and its
    ancestors times Z on the ``popcount(s)`` qubits tiling the modes below
    ``s``; ``2s + 1`` adds Z on ``s`` and drops it on the ``tau(s)`` children
    of ``s``.  For sites first differing at bit ``h``, in the two halves of a
    block of ``2^(h + 1)`` modes, ``f = g = 0`` gives X on the two paths
    below the block root, Z on the ``O`` qubits tiling each half below its
    site (``O`` the one bits of ``s`` and ``t`` below ``h``) and a Y at the
    root of the lower half; with ``P[s, t] = h - |tau(s) - h|`` and
    ``R[s, t] = tau(s) >= h``, ``w = 1 + 2h - f P[s, t] - g P[t, s]``,
    ``y = f + g + 1 - 2 (f R[s, t] or g R[t, s])``, ``x = 1 + 2h - O - y``
    and ``z = w - x - y``.  A site with itself is its number operator,
    ``1 + tau(s)`` Zs, for ``f != g`` and all zero for ``f == g``.  Site
    terms are int32 and flavors enter by ``where=``: full-shape or int8
    temporaries raised the peak RSS.  Every term is read off the bits of the
    two sites, so the cost does not grow with the number of modes.
    """
    h = np.frexp(s ^ t)[1] - 1  # highest differing bit, -1 for a site with itself
    same = h < 0
    ends = ((s, f, _trailing_ones(s)), (t, g, _trailing_ones(t)))  # the two ends enter alike
    h2 = 2 * h + 1
    shape = np.broadcast_shapes(f.shape, g.shape, h.shape)
    out = np.empty(((3,) if counts else ()) + shape, dtype=np.int32)
    w = out[2] if counts else out
    w[...] = h2
    for _, flavor, tau in ends:
        np.subtract(w, h - np.abs(tau - h), out=w, where=flavor == 1)
    np.multiply(w, f != g, out=w, where=same)
    if not counts:
        return out
    nx, ny, nz = out
    ny[...] = 0
    below = np.left_shift(1, h) - 1  # the bits under h
    for site, flavor, tau in ends:  # -2 (f R[s, t] or g R[t, s])
        np.minimum(ny, -2 * flavor, out=ny, where=tau >= h)
        h2 -= np.bitwise_count(site & below)  # O, to x + y off the diagonal
    ny += f + g + 1
    np.subtract(h2, ny, out=nx)
    np.copyto(out[:2], 0, where=same)
    np.subtract(nz, h2, out=nz, where=~same)
    return out


# The grids of one batch of Fenwick levels, in bytes, sized to stay in cache:
# all 9 levels of a 512-site chain take one batch, and a torus of 2^16 sites
# or more takes one level per batch.
_FENWICK_BATCH_BYTES = 1 << 20


def _fenwick_ends(tau: np.ndarray, levels: range, etas: Tuple[float, float, float]
                  ) -> np.ndarray:
    """End factors ``1``, ``A_0 - 1``, ``A_1 - 1`` and ``B_1`` on the lower half of block 0.

    ``(4, 2^b - 2^a)`` for the levels ``levels = range(a, b)``: column
    ``2^h - 2^a + j`` holds site ``j < 2^h`` at level ``h``, so the columns
    ``[2^h, 2^(h + 1))``, shifted by ``2^a``, are level ``h``.  ``tau`` holds
    the trailing ones of every mode, int64.  Two sites first differing at
    bit ``h`` lie in the two halves of one block of ``2^(h + 1)`` modes; at
    ``j`` in the lower half ``O`` of :func:`_fenwick_pairs` is the one bits of
    ``j`` and ``P = tau(j)``, and ``R`` holds at ``j = 2^h - 1`` alone.  The
    upper half has the same factors but at its last site.  All levels are one
    vectorized pass.
    """
    ex, ez = etas[0], etas[2]
    column = np.arange(1 << levels.start, 1 << levels.stop)
    h = np.frexp(column)[1].astype(np.int64) - 1  # each column's level
    j = column - (1 << h)
    o, t = np.bitwise_count(j).astype(np.int64), tau[j]
    factors = np.empty((4, len(j)))
    factors[0] = 1.0
    x = h - o  # h - O
    np.power(ex, x, out=factors[2])
    np.multiply(factors[2], ez ** o, out=factors[1])
    down = ez ** (o - t)
    np.subtract(x, 1, out=x)
    np.multiply(ex ** np.maximum(x, 0, out=x), down, out=factors[3])
    np.copyto(factors[3], 0.0, where=t == h)  # R
    factors[2] *= down
    factors[1:3] -= 1.0
    return factors


# ----------------------------------------------------------------------
# drops summed by displacement
# ----------------------------------------------------------------------


def _fenwick_drop_torus(lat: Lattice, etas: Tuple[float, float, float],
                        signs: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Bravyi-Kitaev's ``(same, cross)`` drops of :meth:`EncodingWeightModel.drop_torus`, by level.

    At level ``h`` (:func:`_fenwick_ends`) every X/Y/Z exponent of
    :func:`_fenwick_pairs` is a sum of one term per end but for the ``or`` in
    ``y``.  For the flavors ``(f, g)`` the attenuation of a pair is
    ``a_fg A_f(s) A_g(t)``, plus ``b_fg B_f(s) B_g(t)``, with the end factors

        ``A_f = ex**(h - O) ez**(O - f P)``,
        ``B_f = (1 - f R) ex**(h - O - f) ez**(O - f P)``,

    ``a_00 = ey``, ``b_00 = 0`` and otherwise ``a_fg = ex**(2 - f - g)
    ey**(f + g - 1)`` and ``b_fg = ey**(f + g - 1) (ey**2 - ex**2)``.  Every
    power is nonnegative, so an eta of 0 is no special case.  Every level-``h``
    block is a lattice translate of block 0 (row-major sites, ``N = 2^n``), so
    the pair sum by displacement is one cross-correlation of the two halves of
    block 0, with the upper half's factors summed over the blocks: the block
    count times block 0's, but at the last site, which takes every block's
    own.  The correlation is circular on the torus, which folds ``t - L`` onto
    ``t`` with sign ``+1``; on an axis of sign ``-1`` both halves are twisted
    by ``e^{i pi x / L}`` first, so the wrapped terms change sign, and the sum
    is untwisted after.  The factors enter the FFTs as ``A - 1``: the
    ``1 * 1`` terms are the signed pair counts, whose drop ``1 - a_fg`` is
    exact, so the sum keeps the digits of ``1 - lambda``.  The diagonal is the
    number operator, ``1 + tau`` Zs between the two flavors and no drop within
    one.  ``O(N log N)`` in all, with no ``N x N`` array.

    The levels go in batches whose ``(levels, 2, 4) + (L,) * D`` grids fit in
    ``_FENWICK_BATCH_BYTES``: one pass of :func:`_fenwick_ends` for the
    batch, copied into the grids by slices (block 0's halves are runs of row
    0 or whole rows), one FFT of the stack and one correlation, in place on
    the spectra with its buffers in the grids the FFT has read.  The spectra
    are added level by level, so every split gives the same bits.  A
    512-site chain takes its 9 levels in one batch, 0.8 ms a call against
    1.9 ms level by level (numpy 2.4 on a 2-CPU x86-64 VM); from ``2^16``
    sites on a batch is one level, and the peak is 24.4 tori (1D) and 24.2
    (2D) where the level-by-level loop took 31.9 and 32.3.
    """
    ex, ey, ez = etas
    n, dim, length = lat.n_sites, lat.dim, lat.length
    torus, axes = (length,) * dim, tuple(range(-dim, 0))
    twisted = -1 in signs
    twist = math.prod(lat.half_twist(axis) for axis, sign in enumerate(signs) if sign < 0)
    fft = np.fft.fftn if twisted else np.fft.rfftn
    swap = (ey - ex) * (ey + ex)  # b_fg / ey**(f + g - 1)
    # Spectra of the same- and cross-flavor sums of lambda - a over the two
    # orders of every pair, halved: real, as both sums are even in r.
    spectra = np.zeros((2,) + torus[:-1] + ((length if twisted else length // 2 + 1),))

    def sites(grid, start, stop):  # the sites [start, stop) of a torus, in site order
        if dim == 1:
            return grid[..., start:stop]
        rows = grid.swapaxes(-1, -2)  # [y, x]: x runs fastest
        if stop <= length:
            return rows[..., 0, start:stop]
        return rows[..., start // length:stop // length, :]

    def fill(stack, levels):  # block 0's halves in the grids of a batch of levels, 0 elsewhere
        factors = _fenwick_ends(tau, levels, etas)
        # The last site of each upper half takes the sum of every block's own:
        # O = h, R = 1 and h - P = 1 + tau(j) in block j.  Each sum is numpy's
        # over its terms, which keeps the recorded outputs to the bit.
        most = n >> (levels.start + 1)  # blocks at the lowest level
        drop, copies = ez ** (1 + tau[:most]) - 1.0, np.empty(most)
        last = np.zeros((len(levels), 4))
        if levels.start:  # the first batch finds its grids zero
            stack.fill(0.0)
        for (lower, upper), level, sums in zip(stack.real, levels, last):
            half, blocks = 1 << level, n >> (level + 1)
            column = half - (1 << levels.start)  # the level's first in factors
            ends = factors[:, column:column + half]
            block = sites(lower, 0, half)
            block[...] = ends.reshape(block.shape)
            block = sites(upper, half, 2 * half)
            np.multiply(ends.reshape(block.shape), blocks, out=block)
            copies[:blocks] = ez ** level - 1.0
            sums[:3] = blocks, np.add.reduce(copies[:blocks]), np.add.reduce(drop[:blocks])
        at = np.unravel_index((2 << np.arange(levels.start, levels.stop)) - 1, torus, order="F")
        stack.real[(np.arange(len(levels)), 1, slice(None)) + at] = last

    def correlate(ends_hat, stack):  # a batch's spectra, added level by level
        # same = ey (a0 u0* + l0 ui* + (li + l1) u1* + l1 ui* + swap l2 u2*) and
        # cross = ex (a0 u1* + l0 ui* + au0 l1* + u0 li*) + swap (a0 u2* + au0 l2*),
        # a0 = li + l0 and au0 = ui + u0, summed left to right as written: in
        # place on the spectra of the ends, with four buffers in the dead grids.
        (li, l0, l1, l2), (ui, u0, u1, u2) = ends_hat.swapaxes(0, 2).swapaxes(0, 1)
        au0, l0ui, total, term = stack.reshape(-1).view(complex)[:4 * li.size].reshape(
            (4,) + li.shape)
        np.add(ui, u0, out=au0)
        for u in (ui, u1, u2):
            np.conjugate(u, out=u)
        np.multiply(l0, ui, out=l0ui)  # in both sums
        a0 = np.add(li, l0, out=l0)
        np.multiply(a0, np.conjugate(u0, out=term), out=total)
        total += l0ui
        total += np.multiply(np.add(li, l1, out=term), u1, out=term)
        total += np.multiply(l1, ui, out=term)
        total += np.multiply(np.multiply(swap, l2, out=term), u2, out=term)
        for level in np.multiply(ey, total, out=total).real:
            spectra[0] += level
        np.multiply(a0, u1, out=total)
        total += l0ui
        total += np.multiply(au0, np.conjugate(l1, out=term), out=term)
        total += np.multiply(u0, np.conjugate(li, out=term), out=term)
        np.multiply(ex, total, out=total)
        np.multiply(a0, u2, out=term)
        term += np.multiply(au0, np.conjugate(l2, out=l2), out=l2)
        total += np.multiply(swap, term, out=term)
        for level in total.real:
            spectra[1] += level

    tau = _trailing_ones(np.arange(n)).astype(np.int64)
    levels = n.bit_length() - 1
    dtype = np.dtype(complex if twisted else float)
    per_batch = max(1, _FENWICK_BATCH_BYTES // (8 * n * dtype.itemsize))
    grids = np.zeros((min(per_batch, levels), 2, 4) + torus, dtype=dtype)
    ends_hat = np.empty(grids.shape[:3] + spectra.shape[1:], dtype=complex)  # reused in place
    for first in range(0, levels, per_batch):
        batch = range(first, min(first + per_batch, levels))
        stack, stack_hat = grids[:len(batch)], ends_hat[:len(batch)]
        fill(stack, batch)
        if twisted:
            stack *= twist
        fft(stack, axes=axes, out=stack_hat)
        correlate(stack_hat, stack)
    if twisted:
        lam = (np.fft.ifftn(spectra, axes=axes) * twist.conj()).real
    else:
        lam = np.fft.irfftn(spectra, torus, axes=axes)
    pairs = math.prod(lat.pair_counts(signs))  # broadcasts against the torus
    same, cross = (1.0 - ey) * pairs - lam[0], (1.0 - ex) * pairs - lam[1]
    origin = (0,) * dim
    same[origin] = 0.0
    cross[origin] = np.sum(1.0 - ez ** (1 + tau))
    return same, cross


def _jordan_wigner_drop_torus(lat: Lattice, etas: Tuple[float, float, float],
                              signs: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Jordan-Wigner's ``(same, cross)`` drops of :meth:`EncodingWeightModel.drop_torus`.

    In either qubit order ``o`` the X/Y/Z counts of a site pair, averaged over
    its two flavor pairs, depend on the separation ``m = |o_s - o_t|`` alone
    (:meth:`EncodingWeightModel._jordan_wigner_counts`), so the drops are
    ``h(m)``: ``1 - ex ey ez**(m - 1)`` within a flavor (0 on site) and
    ``1 - (ex**2 + ey**2)/2 ez**(m - 1)`` across (``1 - ez`` on site), both
    ``1 - eta**(m + 1)`` when the etas agree, each evaluated once per
    separation ``m < N``.  The chain has ``L - |r|`` pairs at ``r``, all at
    ``m = |r|``, so slot ``t`` holds ``h(t) (L - t) +- h(L - t) t``.  The
    snake, ``o = y L + x'`` with ``x' = x`` on even rows and ``L - 1 - x`` on
    odd ones, has at ``(u, d)`` the separation ``|d L + x1' - x2'|``.  For
    ``d`` even both rows share a parity and ``x1' - x2'`` is ``u`` on even
    rows and ``-u`` on odd ones, over ``L - |u|`` columns each.  For ``d``
    odd, whichever row is even, it runs once over
    ``-(L - 1 - |u|) .. L - 1 - |u|`` in steps of 2, on each of the
    ``L - |d|`` row pairs: a stride-2 running sum of
    ``h(|d L + t|) + h(|d L - t|)`` from ``t = 0`` out.  Each offset is then
    added into its torus slot.  ``O(N)`` from one
    ``(2L - 1)^2`` table of ``h(|d L + t|)``, gathered from ``h`` by
    separation, with no ``N x N`` array.
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
        t = np.arange(length)
        tori = [h[t] * (length - t) + signs[0] * (h[length - t] * t)
                for h in drops(np.arange(length + 1))]
    else:
        t = np.arange(1 - length, length)  # the row offset d, and x1' - x2'
        pairs = length - np.abs(t)
        odd = t % 2 == 1
        # Even rows y1 in [max(0, d), L - 1 + min(0, d)], read at even d.
        even = ((length - 1 + np.minimum(t, 0)) // 2 - (np.maximum(t, 0) - 1) // 2)[~odd, None]
        tori = []
        # h(|d L + t|) at [d, t], gathered from one drop per separation m < N.
        for h in np.take(drops(np.arange(lat.n_sites)), np.abs(length * t[:, None] + t[None, :]),
                         axis=-1):
            by_rows = np.empty_like(h)
            by_rows[~odd] = (even * h[~odd] + (pairs[~odd, None] - even) * h[~odd, ::-1]) * pairs
            window = h[odd, length - 1:] + h[odd, length - 1::-1]  # h(dL + t) + h(dL - t)
            window[:, 0] = h[odd, length - 1]
            for p in (0, 1):  # column k: the sum over t = -k, -k + 2, .., k
                window[:, p::2] = np.cumsum(window[:, p::2], axis=1)
            by_rows[odd] = window[:, length - 1 - np.abs(t)] * pairs[odd, None]
            # by_rows is [d, u]: add offset t into slot t mod L, with the sign of
            # its axis where t < 0, along u (axis 0 of the lattice) and then d.
            for axis, sign in ((1, signs[0]), (0, signs[1])):
                offsets = np.moveaxis(by_rows, axis, 0)
                by_rows = offsets[length - 1:].copy()
                (np.add if sign > 0 else np.subtract)(by_rows[1:], offsets[:length - 1],
                                                      out=by_rows[1:])
                by_rows = np.moveaxis(by_rows, 0, axis)
            tori.append(by_rows.T)
    return tori[0], tori[-1]


# ----------------------------------------------------------------------
# the weight model
# ----------------------------------------------------------------------


class EncodingWeightModel:
    """Pauli-weight model of an encoding over a fixed lattice.

    Parameters
    ----------
    kind : str
        One of ``local``, ``jw1d``, ``jw2d_snake``, ``bravyi_kitaev``.
    lattice : Lattice
        Real-space lattice; ``jw1d`` requires dim 1, ``jw2d_snake`` dim 2,
        and ``bravyi_kitaev`` a power-of-two number of sites.
    phi0 : int, optional
        Constant weight overhead of the ``local`` model (default 2); the
        concrete encodings take their weights from their strings, ignore
        the argument and report ``phi0 = 1``.
    """

    def __init__(self, kind: str, lattice: Lattice, phi0: int = 2):
        if kind not in ENCODING_KINDS:
            raise ValueError(f"unknown encoding kind {kind!r}; expected one of {ENCODING_KINDS}")
        if kind == "jw1d" and lattice.dim != 1:
            raise ValueError("jw1d requires a 1D lattice")
        if kind == "jw2d_snake" and lattice.dim != 2:
            raise ValueError("jw2d_snake requires a 2D lattice")
        if kind == "bravyi_kitaev":
            _require_power_of_two(lattice.n_sites)
        if kind == "local":
            if int(phi0) != phi0 or phi0 < 0:
                raise ValueError(f"phi0 must be a nonnegative integer, got {phi0}")
            self.phi0 = int(phi0)
        else:
            self.phi0 = 1
        self.kind = kind
        self.lattice = lattice
        self._last_drop_torus: Tuple[tuple, tuple] = ((), ())  # the last (etas, signs), their tori

    def _qubits(self, sites: np.ndarray) -> np.ndarray:
        """Qubit of each site under Jordan-Wigner: its chain coordinate or its snake index."""
        if self.kind == "jw1d":
            return self.lattice._coords_of(sites)[:, 0]
        return self.lattice._snake_of(sites)

    def _jordan_wigner_counts(self, s: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """X/Y/Z counts of the pairs ``(2s + f, 2t + g)`` from the qubit order, in int32."""
        o = self._qubits(s).astype(np.int32)
        d, flip = np.subtract.outer(o, o), f - g
        apart = d != 0
        ys = np.sign(d) * flip  # (n_y - n_x) / 2: the lower qubit swaps its Pauli
        return np.stack([apart - ys, apart + ys, np.abs(d) - apart + (~apart) * np.abs(flip)])

    # -- weights and compositions ----------------------------------------

    @staticmethod
    def _check_pair(a: int, b: int) -> None:
        if a == b:
            raise ValueError("a bilinear needs two distinct Majorana indices")

    def bilinear_weight(self, a: int, b: int) -> int:
        """Pauli weight of the encoded bilinear ``gamma_a gamma_b``, a != b."""
        self._check_pair(a, b)
        return int(self.pair_weights([a, b])[0, 1])

    def pair_weights(self, idx: np.ndarray, counts: bool = False) -> np.ndarray:
        """Weights, or X/Y/Z counts, of every pair of the Majoranas ``idx``.

        ``(len(idx), len(idx))`` weights, or with ``counts`` the
        ``(3, len(idx), len(idx))`` X, Y and Z counts (concrete encodings
        only); entry ``[i, j]`` belongs to the bilinear
        ``gamma_idx[i] gamma_idx[j]``, and diagonal entries are not
        bilinears.  Indices outside ``[0, 2N)`` raise ``IndexError``.
        """
        if counts and self.kind == "local":
            raise ValueError(_WEIGHTS_ONLY)
        sites, flavor = np.divmod(self.lattice._majoranas(idx), 2)
        f, g = flavor.astype(np.int32)[:, None], flavor.astype(np.int32)[None, :]
        if self.kind == "bravyi_kitaev":
            sites = sites.astype(np.int32)
            return _fenwick_pairs(sites[:, None], sites[None, :], f, g, counts)
        if counts:
            return self._jordan_wigner_counts(sites, f, g)
        if self.kind == "local":
            return self.phi0 + self.lattice.pair_distances(sites)
        o = self._qubits(sites).astype(np.int32)
        return 1 + np.abs(np.subtract.outer(o, o))

    def drop_torus(self, etas: Tuple[float, float, float], signs: Sequence[int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Drops ``1 - lambda`` summed over the site pairs at every displacement, on the torus.

        ``(L,) * dim`` arrays, ``same`` for the equal-flavor and ``cross`` for
        the cross-flavor bilinears, each the mean of its two flavor pairs, as
        :meth:`ModeDiagonalState.occupation_shift` takes them;
        ``lambda = ex**nx * ey**ny * ez**nz``.  Slot ``t`` holds the pairs at
        ``t`` and at ``t - L`` per axis, the latter taken with ``signs[i]`` on
        axis ``i``: ``+1`` for a momentum of the state's own grid parity, ``-1``
        for one of the other parity.  One producer per encoding kind, each
        folding as it sums: ``local`` in closed form (equal etas only: it
        models weights, not X/Y/Z strings); ``bravyi_kitaev`` by Fenwick levels
        (:func:`_fenwick_drop_torus`); ``jw1d`` and ``jw2d_snake`` by qubit
        separation (:func:`_jordan_wigner_drop_torus`).  The tori are
        read-only, and under equal etas one array serves both flavors but on
        ``bravyi_kitaev``.  They depend on the encoding, the etas and the
        signs, not on the state, and the last ``(etas, signs)`` tori are kept;
        etas are checked into three floats in ``[0, 1]`` (else ``ValueError``)
        before the kept pair is compared, so any sequence of them finds it.
        """
        etas = checked_etas(etas)
        signs = tuple(int(sign) for sign in signs)
        if len(signs) != self.lattice.dim or not set(signs) <= {1, -1}:
            raise ValueError(f"signs must be {self.lattice.dim} of +1 and -1, got {signs}")
        if self._last_drop_torus[0] != (etas, signs):
            lat = self.lattice
            if self.kind == "local":
                if not etas[0] == etas[1] == etas[2]:
                    raise ValueError(_WEIGHTS_ONLY)
                # A pair at t - L is as far as one at t: the drop times the signed
                # pair counts, built in the distances (1D holds one more table).
                axes = [np.arange(lat.length, dtype=float).reshape((-1,) + (1,) * i)
                        for i in range(lat.dim)]
                drop = functools.reduce(np.add, [np.minimum(t, lat.length - t, out=t)
                                                 for t in axes])  # the torus distances
                drop += self.phi0
                np.subtract(1.0, np.power(etas[0], drop, out=drop), out=drop)
                for count in lat.pair_counts(signs):
                    drop *= count
                same = cross = drop
            elif self.kind == "bravyi_kitaev":
                same, cross = _fenwick_drop_torus(lat, etas, signs)
            else:
                same, cross = _jordan_wigner_drop_torus(lat, etas, signs)
            for drop in (same, cross):
                drop.setflags(write=False)
            self._last_drop_torus = (etas, signs), (same, cross)
        return self._last_drop_torus[1]

    def __repr__(self) -> str:
        extra = f", phi0={self.phi0}" if self.kind == "local" else ""
        return f"EncodingWeightModel({self.kind!r}, {self.lattice!r}{extra})"
