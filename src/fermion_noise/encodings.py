"""Pauli-weight models of fermion-to-qubit encodings.

For a pair of Majorana operators ``gamma_a gamma_b`` each encoding maps the
bilinear to a single Pauli string (up to phase); what matters for
single-qubit noise is how many tensor factors of that string are X, Y and Z.
Four models are provided:

``local``
    An abstract geometrically local encoding: weight ``phi0 + d(r, r')`` with
    ``d`` the torus distance and ``phi0`` a constant overhead per bilinear.
    Only the weight is modelled, not the X/Y/Z content of the string.
``jw1d``, ``jw2d_snake``
    Jordan-Wigner in qubit order ``o`` (the chain, or the boustrophedon
    "snake" through a 2D lattice): ``gamma_2s = Z_(<o) X_o`` and
    ``gamma_2s+1 = Z_(<o) Y_o`` with ``o = o(s)``.  Weights and X/Y/Z counts
    are int32 closed forms in ``o``: two sites have ``|o_s - o_t| - 1`` Zs
    between them, the lower qubit swaps its Pauli (X for Y) and the upper
    keeps its own, so the weight is ``1 + |o_s - o_t|``; the two flavors of
    one site give a single Z.
``bravyi_kitaev``
    The binary encoder of Seeley, Richard and Love (2012), qubit bits
    ``b = beta n (mod 2)`` for occupations ``n``, with the Fenwick-tree
    matrix :func:`bk_beta_matrix` (modes a power of two) and its GF(2)
    inverse, both by recursive doubling.  Qubit ``j`` holds the parity of
    the ``2^tau(j)`` modes ending at ``j`` (``tau`` the trailing ones), so
    weights and X/Y/Z counts are int32 closed forms in the bits of the two
    sites (:func:`_fenwick_pairs`), whose per-end terms are also given one
    Fenwick level at a time (:func:`_fenwick_levels`).

Weights and counts of every pair of a Majorana index set come from one
method, :meth:`EncodingWeightModel.pair_weights`.  A circuit's light cone
and a noisy measurement ask for them on the observable's support only, and
the weight and composition of a single bilinear ``gamma_a gamma_b`` are the
``[0, 1]`` entry of the index set ``[a, b]``.  No ``N x N`` table of all
pairs is built: the momentum error map sums the drops of every pair by
displacement from the same closed forms (:mod:`fermion_noise.noise`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, Union

import numpy as np

from .lattice import Lattice, snake_index_vector

ENCODING_KINDS = ("local", "jw1d", "jw2d_snake", "bravyi_kitaev")

_WEIGHTS_ONLY = ("the 'local' model assigns Pauli weights only, not the X/Y/Z strings "
                 "that exact attenuation under a non-uniform mix needs; use mode='worst-case'")


@dataclass(frozen=True)
class StringComposition:
    """Multiplicities of X, Y, and Z factors in an encoded bilinear."""

    n_x: int
    n_y: int
    n_z: int

    @property
    def weight(self) -> int:
        return self.n_x + self.n_y + self.n_z


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"Bravyi-Kitaev requires a power-of-two mode count, got {n}")


# ----------------------------------------------------------------------
# binary encoder matrices and the Fenwick closed form
# ----------------------------------------------------------------------


def _doubling(n_modes: int, link: Callable[[int], Union[int, slice]]) -> np.ndarray:
    """``M_2m = [[M_m, 0], [K_m, M_m]]`` from ``M_1 = [[1]]`` up to ``n_modes``.

    ``K_m`` is zero but for ones in its last row, at the columns ``link(m)``.
    """
    _require_power_of_two(n_modes)
    mat = np.ones((1, 1), dtype=np.uint8)
    while len(mat) < n_modes:
        m = len(mat)
        grown = np.zeros((2 * m, 2 * m), dtype=np.uint8)
        grown[:m, :m] = grown[m:, m:] = mat
        grown[2 * m - 1, link(m)] = 1
        mat = grown
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def bk_beta_matrix(n_modes: int) -> np.ndarray:
    """Binary encoder matrix beta with qubit bits ``b = beta n (mod 2)``.

    Built by the standard recursive doubling: two copies of the half-size
    block on the diagonal, and the last qubit of the upper half additionally
    accumulates every mode of the lower half.
    """
    return _doubling(n_modes, lambda m: slice(m))


@lru_cache(maxsize=None)
def _bk_beta_inverse(n_modes: int) -> np.ndarray:
    """``beta^-1`` over GF(2), by the doubling of :func:`bk_beta_matrix`.

    With ``B = beta_m`` the corner block of ``beta_2m`` is ``e_(m-1) 1^T``,
    so that of the inverse is ``B^-1 e_(m-1) 1^T B^-1``.  Column ``m - 1`` of
    ``B`` is ``e_(m-1)`` and its last row is all ones, so this is
    ``e_(m-1) e_(m-1)^T``: the single bit ``[2m - 1, m - 1]``.
    """
    return _doubling(n_modes, lambda m: m - 1)


def bk_number_operator_weight_from_beta(i: int, n_modes: int) -> int:
    """Number-operator weight recovered from the encoder matrix.

    Decoding ``n = beta^{-1} b`` expresses the occupation of mode i as the
    parity of the qubits flagged in row i of the inverse; the weight of the
    corresponding Z-string is the number of ones in that row.
    """
    _require_power_of_two(n_modes)
    if not 0 <= i < n_modes:
        raise IndexError(f"mode index {i} outside [0, {n_modes})")
    return int(_bk_beta_inverse(n_modes)[i].sum())


def bk_max_number_operator_weight(n_modes: int) -> int:
    """Largest number-operator weight over all modes, ``1 + log2(n)`` (mode n-1)."""
    _require_power_of_two(n_modes)
    return n_modes.bit_length()


def _fenwick_bits(n_modes: int):
    """Per-mode tables: highest set bit (-1 at 0), trailing ones ``tau``, ones below each bit."""
    modes = np.arange(n_modes, dtype=np.int32)
    top = np.frexp(modes)[1] - 1
    tau = np.bitwise_count(modes ^ (modes + 1)) - 1
    ones_below = np.bitwise_count(modes[:, None] & ((1 << np.arange(n_modes.bit_length())) - 1))
    return top, tau, ones_below


def _fenwick_pairs(n_modes: int, s: np.ndarray, t: np.ndarray, f: np.ndarray, g: np.ndarray,
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
    temporaries raised the peak RSS.
    """
    top, tau, ones_below = _fenwick_bits(n_modes)
    h = top[s ^ t]
    same, ends = h < 0, ((s, f), (t, g))  # the two ends enter alike
    h2 = 2 * h + 1
    shape = np.broadcast_shapes(f.shape, g.shape, h.shape)
    out = np.empty(((3,) if counts else ()) + shape, dtype=np.int32)
    w = out[2] if counts else out
    w[...] = h2
    for site, flavor in ends:
        np.subtract(w, h - np.abs(tau[site] - h), out=w, where=flavor == 1)
    np.multiply(w, f != g, out=w, where=same)
    if not counts:
        return out
    nx, ny, nz = out
    ny[...] = 0
    for site, flavor in ends:  # -2 (f R[s, t] or g R[t, s])
        np.minimum(ny, -2 * flavor, out=ny, where=tau[site] >= h)
        h2 -= ones_below[site, h]  # to x + y off the diagonal
    ny += f + g + 1
    np.subtract(h2, ny, out=nx)
    np.copyto(out[:2], 0, where=same)
    np.subtract(nz, h2, out=nz, where=~same)
    return out


def _fenwick_levels(n_modes: int):
    """Per-end exponent tables of :func:`_fenwick_pairs`, one level ``h`` at a time.

    Yields ``(h, o, p, r, p_last)`` for ``h = 0 .. log2(n) - 1``.  Two sites
    first differing at bit ``h`` lie in the two halves of one block of
    ``2^(h + 1)`` modes; ``o``, ``p`` and ``r`` are ``O``, ``P`` and ``R`` at
    the sites of block 0, and every block has the same ones but at its last
    site, whose trailing ones run on into the block number: ``p_last`` is
    ``P`` at the last site of every block, where ``O = h`` and ``R = 1``.
    """
    _, tau, ones_below = _fenwick_bits(n_modes)
    tau = tau.astype(np.int64)
    for h in range(n_modes.bit_length() - 1):
        size = 2 << h
        yield (h, ones_below[:size, h].astype(np.int64), h - np.abs(tau[:size] - h),
               tau[:size] >= h, h - np.abs(tau[size - 1::size] - h))


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
        # Drop boxes of noise.momentum_error_map by etas: they do not depend on the state.
        self._drop_boxes: Dict[tuple, tuple] = {}

    @cached_property
    def _qubit_order(self) -> np.ndarray:
        """Qubit of every site under Jordan-Wigner, computed once per model."""
        if self.kind == "jw1d":
            return self.lattice.coords[:, 0]
        return snake_index_vector(self.lattice)

    def _jordan_wigner_counts(self, s: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """X/Y/Z counts of the pairs ``(2s + f, 2t + g)`` from the qubit order, in int32."""
        o = self._qubit_order[s].astype(np.int32)
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

    def string_composition(self, a: int, b: int) -> StringComposition:
        """Exact X/Y/Z composition of the encoded bilinear (concrete encodings)."""
        self._check_pair(a, b)
        return StringComposition(*self.pair_weights([a, b], counts=True)[:, 0, 1].tolist())

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
            return _fenwick_pairs(self.lattice.n_sites, sites[:, None], sites[None, :], f, g,
                                  counts)
        if counts:
            return self._jordan_wigner_counts(sites, f, g)
        if self.kind == "local":
            return self.phi0 + self.lattice.pair_distances(sites)
        o = self._qubit_order[sites].astype(np.int32)
        return 1 + np.abs(np.subtract.outer(o, o))

    def __repr__(self) -> str:
        extra = f", phi0={self.phi0}" if self.kind == "local" else ""
        return f"EncodingWeightModel({self.kind!r}, {self.lattice!r}{extra})"
