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
    inverse, both by recursive doubling.  It is held as a bit-packed
    symplectic table: per Majorana, the x and z bits of its string in uint64
    words.  Majorana ``2s`` has x = column ``s`` of ``beta`` and z = the
    parity of the modes below ``s``, the XOR of rows ``k < s`` of
    ``beta^-1``; ``2s + 1`` adds row ``s`` to z.  A bilinear is the XOR of
    two rows, one per chunk of pairs: its weight is the popcount of
    ``x | z``, its Y count that of ``x & z``, and its X and Z counts those of
    ``x`` and ``z`` less the Ys.

Weights and counts of every pair of a Majorana index set come from one
method, :meth:`EncodingWeightModel.pair_weights`.  A circuit's light cone
and a noisy measurement ask for them on the observable's support only, and
the weight and composition of a single bilinear ``gamma_a gamma_b`` are the
``[0, 1]`` entry of the index set ``[a, b]``.  All pairs come as flavor
blocks of shape ``(F, F, N, N)`` with entry ``[f, g, s, t]`` for the pair
``(2s + f, 2t + g)``: ``F = 1`` when one value serves every flavor pair and
broadcasts, ``F = 2`` when the flavors differ.
Where the weight depends on the displacement ``x - y`` of the two sites
alone (``local`` and ``jw1d``), :meth:`displacement_weights` gives it as one
value per displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .lattice import Lattice, snake_index_vector

ENCODING_KINDS = ("local", "jw1d", "jw2d_snake", "bravyi_kitaev")

# Pair-table work is chunked to about this many uint64 words per temporary, and
# at least two rows: one row per chunk was slower at 8192 Majoranas.
_CHUNK_WORDS = 1 << 16


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
# binary encoder matrices and the symplectic table
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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian uint64 words (bit q = qubit q)."""
    n_rows, n_bits = bits.shape
    packed = np.zeros((n_rows, 8 * -(-n_bits // 64)), dtype=np.uint8)
    packed[:, :-(-n_bits // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _symplectic_table(beta: np.ndarray, inverse: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and z words of the ``2n`` Majoranas of the encoder ``beta``."""
    occupation = _pack(inverse)
    parity = np.bitwise_xor.accumulate(occupation, axis=0)  # modes k <= s
    x = np.repeat(_pack(beta.T), 2, axis=0)
    z = np.zeros_like(x)
    z[2::2] = parity[:-1]
    z[1::2] = parity
    x.setflags(write=False)
    z.setflags(write=False)
    return x, z


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

    @cached_property
    def _qubit_order(self) -> np.ndarray:
        """Qubit of every site under Jordan-Wigner, computed once per model."""
        if self.kind == "jw1d":
            return self.lattice.coords[:, 0]
        return snake_index_vector(self.lattice)

    @cached_property
    def _table(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.lattice.n_sites
        return _symplectic_table(bk_beta_matrix(n), _bk_beta_inverse(n))

    def pauli_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(x, z)``: read-only (2N, words) uint64 bits of every Bravyi-Kitaev Majorana."""
        if self.kind != "bravyi_kitaev":
            raise ValueError(f"only bravyi_kitaev is held as a Pauli table, not {self.kind!r}")
        return self._table

    def _table_pairs(self, rows: np.ndarray, counts: bool) -> np.ndarray:
        """Weights, or X/Y/Z counts, of every pair of table rows: one XOR per chunk."""
        x, z = (bits[rows] for bits in self.pauli_table())
        n_maj, words = x.shape
        out = np.empty((3, n_maj, n_maj) if counts else (n_maj, n_maj), dtype=np.int32)
        step = max(2, _CHUNK_WORDS // max(1, n_maj * words))
        for lo in range(0, n_maj, step):
            px, pz = x[lo:lo + step, None] ^ x, z[lo:lo + step, None] ^ z
            if counts:
                ny = np.bitwise_count(px & pz).sum(axis=-1)
                out[:, lo:lo + step] = (np.bitwise_count(px).sum(axis=-1) - ny, ny,
                                        np.bitwise_count(pz).sum(axis=-1) - ny)
            else:
                out[lo:lo + step] = np.bitwise_count(px | pz).sum(axis=-1)
        return out

    def _jordan_wigner_counts(self, idx: np.ndarray) -> np.ndarray:
        """X/Y/Z counts of every pair of the Majoranas ``idx`` from the qubit order, in int32."""
        o = self._qubit_order[idx // 2].astype(np.int32)
        f = (idx % 2).astype(np.int32)
        d, flip = np.subtract.outer(o, o), np.subtract.outer(f, f)
        apart = d != 0
        ys = np.sign(d) * flip  # (n_y - n_x) / 2: the lower qubit swaps its Pauli
        return np.stack([apart - ys, apart + ys, np.abs(d) - apart + (~apart) * np.abs(flip)])

    # -- weights and compositions ----------------------------------------

    def _check_pair(self, a: int, b: int) -> None:
        n = self.lattice.n_majorana
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"Majorana indices ({a}, {b}) outside [0, {n})")
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

    def pair_weights(self, idx: Optional[np.ndarray] = None,
                     counts: bool = False) -> np.ndarray:
        """Weights, or X/Y/Z counts, of every pair of the Majoranas ``idx``.

        ``(len(idx), len(idx))`` weights, or with ``counts`` the
        ``(3, len(idx), len(idx))`` X, Y and Z counts (concrete encodings
        only); entry ``[i, j]`` belongs to the bilinear
        ``gamma_idx[i] gamma_idx[j]``, and diagonal entries are not
        bilinears.  Without ``idx`` every Majorana pair is returned in flavor
        blocks, ``(F, F, N, N)`` and ``(3, 2, 2, N, N)``: the all-indices
        case of the same code.
        """
        n = self.lattice.n_sites
        if counts and self.kind == "local":
            raise ValueError("the 'local' model assigns Pauli weights only, not the X/Y/Z strings "
                             "that exact attenuation under a non-uniform mix needs; "
                             "use mode='worst-case'")
        if counts or self.kind == "bravyi_kitaev":
            rows = np.arange(2 * n) if idx is None else np.asarray(idx)
            out = (self._table_pairs(rows, counts) if self.kind == "bravyi_kitaev"
                   else self._jordan_wigner_counts(rows))
            if idx is None:  # (..., s, f, t, g) -> (..., f, g, s, t)
                out = np.moveaxis(out.reshape(out.shape[:-2] + (n, 2, n, 2)), (-3, -1), (-4, -3))
            return out
        sites = np.arange(n) if idx is None else np.asarray(idx) // 2
        if self.kind == "local":
            w = self.phi0 + self.lattice.pair_distances(sites)
        else:  # int32 and in place: the N x N weights are at most N + 1
            o = self._qubit_order[sites].astype(np.int32)
            w = np.subtract.outer(o, o)
            np.abs(w, out=w)
            w += 1
        return w[None, None] if idx is None else w

    def displacement_weights(self) -> Optional[np.ndarray]:
        """Weight of every site pair as a function of its displacement alone.

        A box array of :meth:`Lattice.displacement_box`, the weight of every
        flavor pair of sites ``x`` and ``y`` at index ``x - y``: ``phi0`` plus
        the torus distance for ``local`` (circulant) and ``1 + |x - y|`` on
        the open chain for ``jw1d`` (Toeplitz).  ``None`` for ``jw2d_snake``
        and ``bravyi_kitaev``, whose weights depend on where the pair sits.
        """
        if self.kind not in ("local", "jw1d"):
            return None
        axes = self.lattice.displacement_box()
        if self.kind == "jw1d":
            return 1 + np.abs(axes[0])
        return self.phi0 + sum(self.lattice._wrap(r) for r in axes)

    def __repr__(self) -> str:
        extra = f", phi0={self.phi0}" if self.kind == "local" else ""
        return f"EncodingWeightModel({self.kind!r}, {self.lattice!r}{extra})"
