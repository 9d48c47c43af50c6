"""Noisy free-fermion brickwork circuits on the covariance level.

A circuit is a sequence of layers; each layer is a Gaussian unitary
``U = exp(-i H)`` with ``H = (i/4) sum_ab h_ab gamma_a gamma_b`` and acts
through its orthogonal Majorana rotation ``R = exp(h)``:

    U^dag gamma_a U = sum_b R_ab gamma_b,
    state:       Gamma -> R Gamma R^T,
    observable:  O     -> R^T O R.

Every layer is followed by the single-qubit Pauli noise of three etas on
all qubits, so the Heisenberg-picture pullback of an observable through one
layer damps its coefficient matrix elementwise by the encoding's
attenuation factors and then rotates it.  Layers tile the torus with
Haar-random special-orthogonal gates on blocks of ``radius + 1`` consecutive
sites, cycling the block axis every layer and sliding the brick offset each
full axis cycle, which enforces a light cone of ``radius`` sites per layer.

Noise never grows the trace norm of the pulled-back coefficient matrix, but
at depth >= 2 a local expectation need not move monotonically toward its
maximally mixed value: the elementwise damping does not commute with the
next rotation.

A layer is stored as its gate blocks and a stream key, not as ``R``: one
``(G, k)`` array of the Majorana indices of ``G`` disjoint blocks per gate
size ``k`` (:class:`Layer`).  ``R`` is the identity outside the blocks and
is never built as a ``2N x 2N`` matrix, and a gate is drawn and
orthogonalized only when a light cone reaches it.

The Haar stream is the package's own and counter based: the ``k x k``
standard normals of a gate are a pure function of the circuit's seed words,
the layer and the gate (its first Majorana index).  The seed words and the
layer fold into the layer's 64-bit key by SplitMix64's finalizer; the gate
seeds a SplitMix64 sequence from that key, whose ``k * k`` uint64 outputs
become uniforms in ``(0, 1]`` and, by Box-Muller in pairs, the normals;
:func:`~fermion_noise.gaussian.haar_rotations` turns them into a Haar gate of
SO(k).  Any subset of a layer's gates, or of several layers' gates stacked
with their keys, is drawn bit for bit as in the whole layer.  The integers
depend on no generator state and no numpy version; the normals pass through
numpy's ``log``, ``cos`` and ``sin`` and the gates through LAPACK's QR.

Expectations follow the light cone.  A layer's window (:meth:`Layer.window`)
maps an index set ``W`` to the set ``T`` that ``R[W]`` reaches: the gate
blocks that touch ``W`` and the indices of ``W`` no gate touches.  ``R[T,
T]`` is block diagonal, so both pictures apply the touched gates alone, by
gather, stacked ``k x k`` matmul and scatter, at ``O(|T|^2 k)`` per layer.
:func:`prefix_expectations` builds the windows backwards from the
observable, ``W_depth = supp(O)`` and ``W_(d-1)`` the window of layer ``d``
from ``W_d``, draws the gates of every window in one batch per gate size
for the whole sweep (:func:`_draw`), gathers the covariance on ``W_0`` once
and sweeps one copy per run forward, ideal and noisy: rotate, restrict to
``W_d``, damp the noisy copy by the attenuation on ``W_d`` alone, and read
prefix ``d`` on ``supp(O)``.
The damping is elementwise and ``R`` is zero between ``W_d`` and the indices
outside ``W_(d-1)``, so this is the dense evolution restricted, not an
approximation.  In a brickwork circuit a window grows by at most ``radius``
sites per layer, so every prefix of a ``depth``-layer circuit costs
``O(depth * |W|^2 k)`` with ``|W|`` the light-cone volume, whatever the
system size, and only the gates inside the cone are drawn and orthogonalized,
once for both runs; a layer with one gate on every index gives the full
window and the dense cost.  The state is read on ``W_0`` alone, so a state
that holds its ``C(r)`` (the circulant power-law state) costs the circuit no
FFT.

That sweep is the package's one circuit evolution.  Its references are
test code: the Heisenberg pullback of the observable on the same windows
walked backwards, the dense ``2N x 2N`` evolution of the whole covariance,
and the light-cone check of a product state's correlations built on it.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .encodings import EncodingWeightModel, checked_etas
from .gaussian import CovarianceBlocks, QuadraticObservable, haar_rotations
from .lattice import Lattice
from .noise import attenuation_block

# Per gate size: the (g, k) positions of g touched blocks in a window, and their Majorana
# indices as a window finds them, or their rotations once drawn.
Touched = Tuple[Tuple[np.ndarray, np.ndarray], ...]

_MASK = (1 << 64) - 1
# Normals drawn per batch of a sweep (2 MB); a light cone of a local observable needs one.
_BATCH_ENTRIES = 1 << 18
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2^64 over the golden ratio, odd


def _mix(z):
    """SplitMix64's finalizer: a bijection of 64-bit words that spreads every input bit.

    ``z`` is a Python int below ``2^64`` or a uint64 array; the products are
    taken modulo ``2^64`` either way.
    """
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _stream_key(words: Sequence[int]) -> int:
    """The 64-bit key of seed words in ``[0, 2^64)``, each folded in by :func:`_mix`."""
    key = 0
    for word in words:
        key = _mix((key ^ word) + _GAMMA & _MASK)
    return key


def _gate_normals(key: Union[int, np.ndarray], first: np.ndarray, size: int) -> np.ndarray:
    """``(g, size, size)`` standard normals of the gates whose first Majoranas are ``first``.

    ``key`` is one layer's key, or a uint64 array of one key per gate
    broadcast against ``first``.  A gate seeds a SplitMix64 sequence at
    ``_mix(first * gamma ^ key)``; its outputs ``_mix(seed + j * gamma)``,
    ``j = 1, 2, ...``, are the counters of its uniforms
    ``(top 53 bits + 1) / 2^53`` in ``(0, 1]``, and each pair ``(u, v)``
    gives the normals ``r cos(2 pi v)`` and ``r sin(2 pi v)``,
    ``r = sqrt(-2 log u)``, filled row by row.
    """
    pairs = (size * size + 1) // 2
    seeds = _mix(np.asarray(first, dtype=np.uint64) * _GAMMA & _MASK ^ key)
    # (2, 1, pairs): the odd counters j give the u of each pair, the even ones its v.
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2).T[:, None] * _GAMMA
    u, v = ((_mix(seeds[:, None] + counters) >> 11) + 1) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u))
    angle = 2.0 * np.pi * v
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return normals.reshape(len(seeds), -1)[:, :size * size].reshape(-1, size, size)


@dataclass(frozen=True, eq=False)
class Layer:
    """Haar-random rotations on disjoint blocks of Majorana indices, the identity elsewhere.

    ``blocks`` holds one ``(G, k)`` index array per gate size ``k``, and
    gate ``g`` of it acts as ``R[indices[g], indices[g]] = gates(indices[g :
    g + 1])[0]``: a Haar rotation of SO(k) drawn from the layer's ``key`` and
    the gate's first Majorana index alone.  A window finds the gates that
    it touches and draws none; any subset of gates, of one layer or stacked
    across layers with their keys, comes out bit for bit as in the whole
    stack.
    """

    n_majorana: int
    blocks: Tuple[np.ndarray, ...]
    key: int

    def __post_init__(self):
        if not 0 <= self.key <= _MASK:
            raise ValueError(f"a layer key is a 64-bit word, got {self.key}")
        if hasattr(self, "_where"):  # a copy by _rekeyed shares its checked blocks' lookup
            return
        # Per Majorana: its block group (-1 if none) and its gate in that group; int32
        # holds both at any size the CLI allows (at most 2^23 Majoranas).
        where = np.full((2, self.n_majorana), -1, dtype=np.int32)
        for group, idx in enumerate(self.blocks):
            if idx.ndim != 2:
                raise ValueError(f"gate blocks must be a (G, k) array, got shape {idx.shape}")
            where[0, idx] = group
            where[1, idx] = np.arange(len(idx))[:, None]
        if np.count_nonzero(where[0] >= 0) != sum(idx.size for idx in self.blocks):
            raise ValueError("gate blocks must be disjoint")
        object.__setattr__(self, "_where", where)

    def _rekeyed(self, key: int) -> "Layer":
        """This layer's gate blocks under ``key``, sharing its index arrays and lookup."""
        layer = copy.copy(self)
        object.__setattr__(layer, "key", key)
        layer.__post_init__()
        return layer

    def gates(self, rows: np.ndarray) -> np.ndarray:
        """The ``(g, k, k)`` Haar rotations of the gates on ``rows``, rows of one block array."""
        return haar_rotations(_gate_normals(self.key, rows[:, 0], rows.shape[1]))

    def window(self, support: np.ndarray) -> Tuple[np.ndarray, Touched]:
        """``(T, reached)``: the sorted columns ``T`` that ``R[support]`` reaches, and their blocks.

        ``T`` is the union of the gate blocks that touch ``support``, plus the
        indices of ``support`` that no gate touches, so ``R[T, T]`` is block
        diagonal.  ``reached`` holds one ``(positions, rows)`` pair per gate
        size: the blocks' positions in ``T`` and their Majorana indices, whose
        rotations are ``gates(rows)``; none is drawn here.  The cost is set by
        ``len(support)``, not by the layer's size.
        """
        group, gate = self._where[:, support]
        cols, hit_rows = [support[group < 0]], []
        for g, idx in enumerate(self.blocks):
            hit = np.sort(gate[group == g])
            rows = idx[hit[np.diff(hit, prepend=-1) > 0]]  # distinct; np.unique imports numpy.ma
            cols.append(rows.ravel())
            hit_rows.append(rows)
        cols = np.sort(np.concatenate(cols))
        return cols, tuple((np.searchsorted(cols, rows), rows) for rows in hit_rows if len(rows))


def _draw(layers: Sequence[Layer], reached: Sequence[Touched]) -> List[Touched]:
    """The gates each layer's window reached, ``(positions, rotations)`` per gate size.

    The rows of every layer are stacked by gate size, each with its layer's
    key, and drawn and orthogonalized by one :func:`_gate_normals` and one
    :func:`~fermion_noise.gaussian.haar_rotations` call per size, then split
    back by layer: every gate bit for bit as :meth:`Layer.gates` draws it.
    A stack of more than ``_BATCH_ENTRIES`` normals, a cone that fills a
    deep circuit, is drawn in batches of about that many, which bounds the
    temporaries of the draw.
    """
    stacks = {}  # gate size -> [(layer number, positions, rows, key)]
    for d, (layer, blocks) in enumerate(zip(layers, reached)):
        for pos, rows in blocks:
            stacks.setdefault(rows.shape[1], []).append((d, pos, rows, layer.key))
    touched: List[list] = [[] for _ in layers]
    for size, stack in stacks.items():
        counts = [len(rows) for _, _, rows, _ in stack]
        keys = np.repeat(np.array([key for *_, key in stack], dtype=np.uint64), counts)
        first = np.concatenate([rows[:, 0] for _, _, rows, _ in stack])
        gates = np.empty((len(first), size, size))
        per_batch = max(1, _BATCH_ENTRIES // (size * size))
        for at in range(0, len(first), per_batch):
            batch = slice(at, at + per_batch)
            gates[batch] = haar_rotations(_gate_normals(keys[batch], first[batch], size))
        for (d, pos, _, _), part in zip(stack, np.split(gates, np.cumsum(counts)[:-1])):
            touched[d].append((pos, part))
    return [tuple(step) for step in touched]


def _rotate(mat: np.ndarray, touched: Touched) -> np.ndarray:
    """``mat = R[T, T] @ mat`` in place, for rows on a window ``T`` and ``touched`` its gates.

    Only the touched rows are gathered, rotated and written back; the blocks
    are disjoint, so each gather is complete before its scatter.
    """
    for pos, gates in touched:
        mat[pos] = gates @ mat[pos]
    return mat


@dataclass(frozen=True)
class Circuit:
    """A fixed sequence of gate layers over one lattice."""

    lattice: Lattice
    radius: int
    layers: Tuple[Layer, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def brickwork_circuit(lattice: Lattice, depth: int, radius: int = 1,
                      seed: Union[int, Sequence[int]] = 0) -> Circuit:
    """Haar-random brickwork circuit of the given depth.

    Layer ``l`` places gates on blocks of up to ``radius + 1`` consecutive
    sites along axis ``l % dim``, with brick offset ``(l // dim) % (radius +
    1)``; each gate is an independent Haar sample from SO(2 * block size)
    acting on the block's Majoranas.  Lengths that are not a multiple of the
    block size get one truncated (smaller) gate per row.  ``seed`` is a
    nonnegative integer or a sequence of them, each below ``2^64``; layer
    ``l`` takes the key of the words ``(*seed, l)``, so a gate is fixed by
    the seed, its layer and its first Majorana index, and equal seeds give
    equal circuits.  Building a layer draws nothing: gates of one size are
    kept as one index array of the :class:`Layer`, and a gate is drawn and
    orthogonalized only when a light cone reaches it; layers one cycle of
    ``dim * (radius + 1)`` apart share their index arrays and lookup.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if radius < 1:
        raise ValueError(f"interaction radius must be at least 1, got {radius}")
    words = tuple(map(operator.index, [seed] if np.ndim(seed) == 0 else seed))
    if not all(0 <= word <= _MASK for word in words):
        raise ValueError(f"seed words must be integers in [0, 2^64), got {seed}")
    block = radius + 1
    dim, length = lattice.dim, lattice.length
    full = length // block * block  # sites per line in full gates
    grid = np.arange(lattice.n_sites).reshape((length,) * dim)  # grid[y, x] = x + L * y
    period = dim * block  # layers of one cycle of (axis, brick offset) layouts
    layers: List[Layer] = []
    for layer_idx in range(depth):
        key = _stream_key((*words, layer_idx))
        if layer_idx >= period:
            layers.append(layers[layer_idx - period]._rekeyed(key))
            continue
        axis = layer_idx % dim
        offset = (layer_idx // dim) % block
        # (lines, L): each line along ``axis``, from the brick offset on.
        lines = np.moveaxis(grid, dim - 1 - axis, -1).reshape(-1, length)
        sites = np.roll(lines, -offset, axis=1)
        idx = (2 * sites[:, :, None] + np.arange(2)).reshape(len(sites), 2 * length)
        gate_blocks = tuple(cols.reshape(-1, size) for size, cols in (
            (2 * (length - full), idx[:, 2 * full:]), (2 * block, idx[:, :2 * full])) if cols.size)
        layers.append(Layer(lattice.n_majorana, gate_blocks, key))
    return Circuit(lattice=lattice, radius=radius, layers=tuple(layers))


def prefix_expectations(state: CovarianceBlocks, obs: QuadraticObservable,
                        circuit: Circuit, etas: Optional[Sequence[float]] = None,
                        enc: Optional[EncodingWeightModel] = None
                        ) -> Tuple[List[float], List[float]]:
    """``(ideal, noisy)``: expectations of ``obs`` after each circuit prefix, depth 0 first.

    One forward sweep on shrinking windows runs both.  ``W_depth = supp(O)``,
    and ``W_(d-1)`` is the window that layer ``d`` reaches from ``W_d``; these
    index arrays are built once, and the gates they touch in every layer are
    drawn once, one batch per gate size (:func:`_draw`).  The covariance
    on ``W_0`` is gathered once; layer ``d`` rotates each run's copy by block
    and restricts it to ``W_d``, one copy at a time, and damps the noisy one by
    the attenuation of ``etas`` on ``W_d``, splitting it off the ideal one at
    ``d = 1`` (with ``etas`` ``None`` or all ``1.0`` both lists are the ideal
    run); entry ``d`` is read on ``supp(O)``.  That is ``depth`` window steps,
    and ``depth`` damping calls when noisy, at ``O(|W|^2 k)`` each (a caller of
    the noisy list alone pays for the ideal rotations too); entry ``d`` is the
    observable pulled back through ``d`` layers, summed in another order.
    """
    if etas is not None:
        etas = checked_etas(etas)
    noisy = etas is not None and etas != (1.0, 1.0, 1.0)
    if noisy and enc is None:
        raise ValueError("a noisy circuit needs an encoding weight model")
    if noisy and enc.lattice != circuit.lattice:
        raise ValueError("encoding and circuit lattices disagree")
    order = np.argsort(obs.support)
    support, block = obs.support[order], obs.block[np.ix_(order, order)]
    windows, reached = [support], []
    for layer in reversed(circuit.layers):
        cols, blocks = layer.window(windows[-1])
        windows.append(cols)
        reached.append(blocks)
    windows.reverse()
    steps = _draw(circuit.layers, reached[::-1])
    runs = [np.array(state.covariance_block(windows[0]))]  # ideal, rotated in place below
    values = []
    for d, window in enumerate(windows):
        if d:
            keep, step = np.searchsorted(windows[d - 1], window), steps[d - 1]
            for i in range(len(runs)):  # each old copy is freed before the next is rotated
                runs[i] = _rotate(_rotate(runs[i].T, step).T, step)[np.ix_(keep, keep)]
            if noisy:  # the noisy copy, split off the ideal one at d = 1
                runs[1:] = [runs[-1] * attenuation_block(enc, etas, window)]
        at = np.searchsorted(window, support)
        values.append([obs.offset + float(np.sum(block * run[np.ix_(at, at)])) for run in runs])
    return [row[0] for row in values], [row[-1] for row in values]
