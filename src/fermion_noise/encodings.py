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
    (:func:`_fenwick_pairs`), whose per-end terms are also given one
    Fenwick level at a time (:func:`_fenwick_levels`).  A pair first
    differing at bit ``h`` lies in a block of ``2^(h + 1)`` modes, every such
    block is a lattice translate of the first, and its attenuation is a
    product of one factor per end (two under a non-uniform mix), so each
    level is one circular FFT cross-correlation on the torus, ``O(N log N)``
    in all (:func:`_fenwick_drop_torus`).

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


def _fenwick_levels(tau: np.ndarray):
    """Per-end exponent tables of :func:`_fenwick_pairs`, one level ``h`` at a time.

    ``tau`` holds the trailing ones of every mode, int64.  Yields
    ``(h, o, p, r, p_last)`` for ``h = 0 .. log2(n) - 1``.  Two sites
    first differing at bit ``h`` lie in the two halves of one block of
    ``2^(h + 1)`` modes; ``o``, ``p`` and ``r`` are ``O``, ``P`` and ``R`` at
    the sites of block 0, and every block has the same ones but at its last
    site, whose trailing ones run on into the block number: ``p_last`` is
    ``P`` at the last site of every block, where ``O = h`` and ``R = 1``.
    """
    for h in range(len(tau).bit_length() - 1):
        size = 2 << h
        o = np.bitwise_count(np.arange(size) & ((1 << h) - 1)).astype(np.int64)
        yield (h, o, h - np.abs(tau[:size] - h), tau[:size] >= h,
               h - np.abs(tau[size - 1::size] - h))


# ----------------------------------------------------------------------
# drops summed by displacement
# ----------------------------------------------------------------------


def _fenwick_drop_torus(lat: Lattice, etas: Tuple[float, float, float],
                        signs: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Bravyi-Kitaev's ``(same, cross)`` drops of :meth:`EncodingWeightModel.drop_torus`, by level.

    At level ``h`` (:func:`_fenwick_levels`) every X/Y/Z exponent of
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
    """
    ex, ey, ez = etas
    n, dim = lat.n_sites, lat.dim
    torus, axes = (lat.length,) * dim, tuple(range(-dim, 0))
    twisted = -1 in signs
    twist = math.prod(lat.half_twist(axis) for axis, sign in enumerate(signs) if sign < 0)
    fft = np.fft.fftn if twisted else np.fft.rfftn
    swap = (ey - ex) * (ey + ex)  # b_fg / ey**(f + g - 1)
    # Spectra of the same- and cross-flavor sums of lambda - a over the two
    # orders of every pair, halved: real, as both sums are even in r.
    spectra = np.zeros((2,) + torus[:-1] + ((lat.length if twisted else lat.length // 2 + 1),))

    def ends(h, o, p, r):  # 1, A_0 - 1 (B_0 = A_0), A_1 - 1 and B_1
        up, down = ex ** (h - o), ez ** (o - p)
        return np.stack(np.broadcast_arrays(
            1.0, up * ez ** o - 1.0, up * down - 1.0,
            np.where(r, 0.0, ex ** np.maximum(h - o - 1, 0) * down)))

    def correlate(lower, upper):  # one level's spectra; its temporaries end with the call
        (li, l0, l1, l2), (ui, u0, u1, u2) = lower, upper
        a0, au0 = li + l0, ui + u0
        spectra[0] += (ey * (a0 * u0.conj() + l0 * ui.conj() + (li + l1) * u1.conj()
                         + l1 * ui.conj() + swap * l2 * u2.conj())).real
        spectra[1] += (ex * (a0 * u1.conj() + l0 * ui.conj() + au0 * l1.conj() + u0 * li.conj())
                   + swap * (a0 * u2.conj() + au0 * l2.conj())).real

    tau = _trailing_ones(np.arange(n)).astype(np.int64)
    grids = np.empty((2, 4) + torus, dtype=complex if twisted else float)
    ends_hat = np.empty((2, 4) + spectra.shape[1:], dtype=complex)  # each level's, in place
    for h, o, p, r, p_last in _fenwick_levels(tau):
        size = len(o)
        factors = ends(h, o, p, r)
        factors[:, size // 2:] *= n // size
        factors[:, -1] = ends(h, h, p_last, True).sum(axis=1)
        grids.fill(0.0)
        coords = lat._coords_of(np.arange(size)).T  # the sites of block 0
        for grid, sites in zip(grids, (slice(size // 2), slice(size // 2, size))):
            grid[(slice(None),) + tuple(coords[:, sites])] = factors[:, sites]
        if twisted:
            grids *= twist
        fft(grids, axes=axes, out=ends_hat)
        correlate(*ends_hat)
    if twisted:
        lam = (np.fft.ifftn(spectra, axes=axes) * twist.conj()).real
    else:
        lam = np.fft.irfftn(spectra, torus, axes=axes)
    pairs = np.broadcast_to(math.prod(lat.pair_counts(signs)), torus)
    same, cross = np.multiply.outer((1.0 - ey, 1.0 - ex), pairs) - lam
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
