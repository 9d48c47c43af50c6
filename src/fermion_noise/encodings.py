"""Pauli-weight models of fermion-to-qubit encodings.

For a pair of Majorana operators ``gamma_a gamma_b`` each encoding maps the
bilinear to a single Pauli string (up to phase); what matters for
single-qubit noise is how many tensor factors of that string are X, Y and Z.
Four models are provided:

``local``
    An abstract geometrically local encoding: weight ``phi0 + d(r, r')`` with
    ``d`` the torus distance and ``phi0`` a constant overhead per bilinear.
    Only the weight is modelled, not the X/Y/Z content of the string.
``jw1d``, ``jw2d_snake``, ``bravyi_kitaev``
    Concrete encodings in the binary-encoder form of Seeley, Richard and
    Love (2012): qubit bits ``b = beta n (mod 2)`` for occupations ``n``.
    Jordan-Wigner is ``beta = I`` over the modes in qubit order (the chain,
    or the boustrophedon "snake" through a 2D lattice); Bravyi-Kitaev uses
    the Fenwick-tree matrix :func:`bk_beta_matrix` (number of modes a power
    of two).

Every concrete encoding carries one bit-packed symplectic table: per
Majorana, the x and z bits of its Pauli string over the qubits, in uint64
words.  Majorana ``2s`` has x = column ``s`` of ``beta`` (the qubits whose
bit depends on ``n_s``) and z = the parity of the modes below ``s``, the XOR
of rows ``k < s`` of ``beta^-1``; Majorana ``2s + 1`` adds row ``s`` of
``beta^-1`` to z.  A bilinear is the XOR of two rows: its weight is the
popcount of ``x | z``, its X/Y/Z counts those of ``x & ~z``, ``x & z`` and
``~x & z``.  Jordan-Wigner weights, single or all-pairs, keep the closed
form ``1 + |o(s) - o(t)|`` (``o`` the qubit order) as a fast path.

Weights and counts of every pair of a Majorana index set come from one
method, :meth:`EncodingWeightModel.pair_weights`; a circuit's light cone and
a noisy measurement ask for them on the observable's support only.  All
pairs come as flavor blocks of shape ``(F, F, N, N)`` with entry
``[f, g, s, t]`` for the pair ``(2s + f, 2t + g)``: ``F = 1`` when one value
serves every flavor pair and broadcasts, ``F = 2`` when the flavors differ.
Where the weight depends on the displacement ``x - y`` of the two sites
alone (``local`` and ``jw1d``), :meth:`displacement_weights` gives it as one
value per displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .lattice import Lattice, snake_index_vector

ENCODING_KINDS = ("local", "jw1d", "jw2d_snake", "bravyi_kitaev")

# Pair-table work is chunked to about this many uint64 words per temporary.
_CHUNK_WORDS = 1 << 20


@dataclass(frozen=True)
class StringComposition:
    """Multiplicities of X, Y, and Z factors in an encoded bilinear."""

    n_x: int
    n_y: int
    n_z: int

    @property
    def weight(self) -> int:
        return self.n_x + self.n_y + self.n_z


# Bits of one Pauli factor type in the product string with x bits ``x`` and
# z bits ``z``; "weight" selects every non-identity factor.
_FACTOR_BITS: Dict[str, Callable] = {
    "weight": lambda x, z: x | z,
    "X": lambda x, z: x & ~z,
    "Y": lambda x, z: x & z,
    "Z": lambda x, z: ~x & z,
}


def interleave_flavors(blocks: np.ndarray) -> np.ndarray:
    """The ``(2N, 2N)`` Majorana-index matrix of ``(F, F, N, N)`` flavor blocks."""
    n = blocks.shape[-1]
    out = np.empty((2 * n, 2 * n), dtype=blocks.dtype)
    out.reshape(n, 2, n, 2)[...] = blocks.transpose(2, 0, 3, 1)
    return out


def _require_power_of_two(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"Bravyi-Kitaev requires a power-of-two mode count, got {n}")


# ----------------------------------------------------------------------
# binary encoder matrices and the symplectic table
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def bk_beta_matrix(n_modes: int) -> np.ndarray:
    """Binary encoder matrix beta with qubit bits ``b = beta n (mod 2)``.

    Built by the standard recursive doubling: two copies of the half-size
    block on the diagonal, and the last qubit of the upper half additionally
    accumulates every mode of the lower half.
    """
    _require_power_of_two(n_modes)
    beta = np.array([[1]], dtype=np.uint8)
    while beta.shape[0] < n_modes:
        m = beta.shape[0]
        grown = np.zeros((2 * m, 2 * m), dtype=np.uint8)
        grown[:m, :m] = beta
        grown[m:, m:] = beta
        grown[2 * m - 1, :m] = 1
        beta = grown
    out = beta.copy()
    out.setflags(write=False)
    return out


def _gf2_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a binary matrix over GF(2) by Gaussian elimination."""
    n = mat.shape[0]
    a = (mat % 2).astype(np.uint8)
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot_rows = np.nonzero(a[col:, col])[0]
        if pivot_rows.size == 0:
            raise ValueError("matrix is singular over GF(2)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        rows = np.nonzero(a[:, col])[0]
        rows = rows[rows != col]
        a[rows] ^= a[col]
        inv[rows] ^= inv[col]
    return inv


@lru_cache(maxsize=None)
def _bk_beta_inverse(n_modes: int) -> np.ndarray:
    inv = _gf2_inverse(np.asarray(bk_beta_matrix(n_modes)))
    inv.setflags(write=False)
    return inv


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
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- the symplectic table ----------------------------------------------

    def _qubit_order(self) -> np.ndarray:
        """Qubit of every site under Jordan-Wigner."""
        if self.kind == "jw1d":
            return self.lattice.coords[:, 0]
        return snake_index_vector(self.lattice)

    def pauli_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(x, z)``: (2N, words) uint64 bits of every encoded Majorana."""
        if self.kind == "local":
            raise ValueError(
                "the 'local' model assigns Pauli weights only, not the X/Y/Z strings "
                "that exact attenuation under a non-uniform mix needs; use mode='worst-case'"
            )
        if self._table is None:
            n = self.lattice.n_sites
            if self.kind == "bravyi_kitaev":
                x, z = _symplectic_table(bk_beta_matrix(n), _bk_beta_inverse(n))
            else:
                eye = np.eye(n, dtype=np.uint8)
                x, z = _symplectic_table(eye, eye)
                rows = (2 * self._qubit_order()[:, None] + np.arange(2)).ravel()
                x, z = x[rows], z[rows]
            x.setflags(write=False)
            z.setflags(write=False)
            self._table = (x, z)
        return self._table

    def _pair_popcounts(self, bits: Callable, rows: Union[slice, np.ndarray]) -> np.ndarray:
        """Popcount of ``bits(x, z)`` over the product of every pair of Majoranas ``rows``."""
        x, z = self.pauli_table()
        x, z = x[rows], z[rows]
        n_maj, words = x.shape
        out = np.empty((n_maj, n_maj), dtype=np.int64)
        step = max(1, _CHUNK_WORDS // max(1, n_maj * words))
        for lo in range(0, n_maj, step):
            sel = bits(x[lo:lo + step, None] ^ x, z[lo:lo + step, None] ^ z)
            out[lo:lo + step] = np.bitwise_count(sel).sum(axis=-1)
        return out

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
        if self.kind == "local":
            return self.phi0 + self.lattice.distance(a // 2, b // 2)
        if self.kind == "bravyi_kitaev":
            return self.string_composition(a, b).weight
        o = self._qubit_order()
        return 1 + abs(int(o[a // 2]) - int(o[b // 2]))

    def string_composition(self, a: int, b: int) -> StringComposition:
        """Exact X/Y/Z composition of the encoded bilinear (concrete encodings)."""
        self._check_pair(a, b)
        x, z = self.pauli_table()
        dx, dz = x[a] ^ x[b], z[a] ^ z[b]
        return StringComposition(*(int(np.bitwise_count(_FACTOR_BITS[p](dx, dz)).sum())
                                   for p in "XYZ"))

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
        if counts or self.kind == "bravyi_kitaev":
            rows = slice(None) if idx is None else np.asarray(idx)
            if counts:
                out = np.stack([self._pair_popcounts(_FACTOR_BITS[p], rows) for p in "XYZ"])
            else:
                out = self._pair_popcounts(_FACTOR_BITS["weight"], rows)
            if idx is None:  # (..., s, f, t, g) -> (..., f, g, s, t)
                out = np.moveaxis(out.reshape(out.shape[:-2] + (n, 2, n, 2)), (-3, -1), (-4, -3))
            return out
        sites = np.arange(n) if idx is None else np.asarray(idx) // 2
        if self.kind == "local":
            w = self.phi0 + self.lattice.pair_distances(sites)
        else:
            o = self._qubit_order()[sites]
            w = 1 + np.abs(o[:, None] - o[None, :])
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
        length = self.lattice.length
        return self.phi0 + sum(np.minimum(np.abs(r), length - np.abs(r)) for r in axes)

    def __repr__(self) -> str:
        extra = f", phi0={self.phi0}" if self.kind == "local" else ""
        return f"EncodingWeightModel({self.kind!r}, {self.lattice!r}{extra})"
