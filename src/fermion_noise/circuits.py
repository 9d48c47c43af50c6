"""Noisy free-fermion brickwork circuits on the covariance level.

A circuit is a sequence of layers; each layer is a Gaussian unitary
``U = exp(-i H)`` with ``H = (i/4) sum_ab h_ab gamma_a gamma_b`` and acts
through its orthogonal Majorana rotation ``R = exp(h)``:

    U^dag gamma_a U = sum_b R_ab gamma_b,
    state:       Gamma -> R Gamma R^T,
    observable:  O     -> R^T O R.

Every layer is followed by the single-qubit Pauli channel on all qubits, so
the Heisenberg-picture pullback of an observable through one layer damps its
coefficient matrix elementwise by the encoding's attenuation factors and
then rotates it.  Layers tile the torus with Haar-random special-orthogonal
gates on blocks of ``radius + 1`` consecutive sites, cycling the block axis
every layer and sliding the brick offset each full axis cycle, which
enforces a light cone of ``radius`` sites per layer.

Noise never grows the trace norm of the pulled-back coefficient matrix, but
at depth >= 2 a local expectation need not move monotonically toward its
maximally mixed value: the elementwise damping does not commute with the
next rotation.

A layer is stored as its gates, not as ``R``: one ``(indices, gates)`` pair
per gate size ``k``, with the ``(G, k)`` Majorana indices of ``G`` disjoint
blocks and the ``(G, k, k)`` stack of their rotations (:class:`Layer`).
``R`` is the identity outside the blocks and is never built as a
``2N x 2N`` matrix.  A state's covariance is evolved by gather, small
matmul and scatter, per gate size.

Observables are pulled back on their support only.  With ``S`` the support
of the coefficient matrix, one layer damps the ``S x S`` block by the
attenuation on ``S`` alone and maps it to ``T x T``, with ``T`` the union of
the gate blocks that touch ``S``: the damping is elementwise, so zeros stay
zeros, and ``R[S, T]`` is formed from those gates.  This is the dense
pullback, not an approximation.  In a brickwork circuit ``S`` spreads by at
most ``radius`` sites per layer, and a pullback through ``depth`` layers
costs ``O(depth * |S|^3)`` with ``|S|`` the light-cone volume, whatever the
system size; a layer with one gate on every index gives full support and
the dense cost.  The expectation then reads the state's covariance on the
final ``S`` only (:meth:`GaussianState.covariance_block`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .encodings import EncodingWeightModel
from .gaussian import GaussianState, QuadraticObservable, haar_rotations
from .lattice import Lattice
from .noise import PauliChannel, attenuation_block


@dataclass(frozen=True, eq=False)
class Layer:
    """Rotations on disjoint blocks of Majorana indices, the identity elsewhere.

    ``blocks`` holds one ``(indices, gates)`` pair per gate size ``k``:
    ``indices`` of shape ``(G, k)`` and the stacked rotations ``gates`` of
    shape ``(G, k, k)``, gate ``g`` acting as
    ``R[indices[g], indices[g]] = gates[g]``.
    """

    n_majorana: int
    blocks: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        # Per Majorana: its block group (-1 if none), gate and row in that gate.
        where = np.full((3, self.n_majorana), -1, dtype=np.int64)
        for group, (idx, gates) in enumerate(self.blocks):
            if idx.ndim != 2 or gates.shape != idx.shape + idx.shape[-1:]:
                raise ValueError(f"gates of shape {gates.shape} do not match blocks {idx.shape}")
            where[0, idx] = group
            where[1, idx] = np.arange(len(idx))[:, None]
            where[2, idx] = np.arange(idx.shape[1])
        if np.count_nonzero(where[0] >= 0) != sum(idx.size for idx, _ in self.blocks):
            raise ValueError("gate blocks must be disjoint")
        object.__setattr__(self, "_where", where)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """``R @ mat`` for a matrix with ``n_majorana`` rows."""
        out = mat.copy()
        for idx, gates in self.blocks:
            out[idx] = gates @ mat[idx]
        return out

    def rows(self, support: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(T, R[support, T])`` with ``T`` the sorted columns ``R[support]`` reaches.

        ``T`` is the union of the gate blocks that touch ``support``, plus the
        indices of ``support`` that no gate touches; the cost is set by
        ``len(support)``, not by the layer's size.
        """
        group, gate, pos = self._where[:, support]
        loose = group < 0
        cols = np.sort(np.concatenate(
            [support[loose]] + [idx[np.unique(gate[group == g])].ravel()
                                for g, (idx, _) in enumerate(self.blocks)]))
        rot = np.zeros((len(support), len(cols)))
        rot[loose, np.searchsorted(cols, support[loose])] = 1.0
        for g, (idx, gates) in enumerate(self.blocks):
            hit = np.flatnonzero(group == g)
            rot[hit[:, None], np.searchsorted(cols, idx[gate[hit]])] = gates[gate[hit], pos[hit]]
        return cols, rot


@dataclass(frozen=True)
class Circuit:
    """A fixed sequence of gate layers over one lattice."""

    lattice: Lattice
    radius: int
    layers: Tuple[Layer, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def light_cone_radius(self, depth: Optional[int] = None) -> int:
        """Largest site distance an operator can spread after ``depth`` layers."""
        d = self.depth if depth is None else depth
        return self.radius * d


def brickwork_circuit(lattice: Lattice, depth: int, radius: int = 1,
                      rng: Optional[np.random.Generator] = None) -> Circuit:
    """Haar-random brickwork circuit of the given depth.

    Layer ``l`` places gates on blocks of up to ``radius + 1`` consecutive
    sites along axis ``l % dim``, with brick offset ``(l // dim) % (radius +
    1)``; each gate is an independent Haar sample from SO(2 * block size)
    acting on the block's Majoranas.  Lengths that are not a multiple of the
    block size get one truncated (smaller) gate per row.  A layer draws the
    normals of all its gates in one ``standard_normal`` call, in gate order
    (row by row, the truncated gate last), so the stream is that of one
    :func:`haar_special_orthogonal` call per gate; gates of one size are
    orthogonalized as one stack and kept as one ``(indices, gates)`` pair of
    the :class:`Layer`.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if radius < 1:
        raise ValueError(f"interaction radius must be at least 1, got {radius}")
    block = radius + 1
    if rng is None:
        rng = np.random.default_rng()
    dim, length = lattice.dim, lattice.length
    full = length // block * block  # sites per line in full gates
    rest = 2 * (length - full)  # Majoranas per line in the truncated gate
    split = full // block * (2 * block) ** 2  # normals per line of the full gates
    grid = np.arange(lattice.n_sites).reshape((length,) * dim)  # grid[y, x] = x + L * y
    layers = []
    for layer_idx in range(depth):
        axis = layer_idx % dim
        offset = (layer_idx // dim) % block
        # (lines, L): each line along ``axis``, from the brick offset on.
        lines = np.moveaxis(grid, dim - 1 - axis, -1).reshape(-1, length)
        sites = np.roll(lines, -offset, axis=1)
        idx = (2 * sites[:, :, None] + np.arange(2)).reshape(len(sites), 2 * length)
        normals = rng.standard_normal((len(sites), split + rest**2))
        gate_blocks = []
        for size, cols, draws in ((rest, idx[:, 2 * full:], normals[:, split:]),
                                  (2 * block, idx[:, :2 * full], normals[:, :split])):
            if cols.size:
                gate_blocks.append((cols.reshape(-1, size),
                                    haar_rotations(draws.reshape(-1, size, size))))
        layers.append(Layer(lattice.n_majorana, tuple(gate_blocks)))
    return Circuit(lattice=lattice, radius=radius, layers=tuple(layers))


_Damping = Callable[[np.ndarray], np.ndarray]


def _layer_damping(circuit: Circuit, channel: Optional[PauliChannel],
                   enc: Optional[EncodingWeightModel], mode: str) -> Optional[_Damping]:
    """The noise after each layer, as the attenuation on a Majorana index set."""
    if channel is None or channel.p == 0.0:
        return None
    if enc is None:
        raise ValueError("a noisy circuit needs an encoding weight model")
    if (enc.lattice.dim, enc.lattice.length) != (circuit.lattice.dim, circuit.lattice.length):
        raise ValueError("encoding and circuit lattices disagree")
    return lambda idx: attenuation_block(enc, channel, idx, mode)


def evolve_state(state: GaussianState, circuit: Circuit,
                 channel: Optional[PauliChannel] = None,
                 enc: Optional[EncodingWeightModel] = None,
                 mode: str = "exact") -> GaussianState:
    """Push a state through the circuit (each layer: rotate, then noise)."""
    damping = _layer_damping(circuit, channel, enc, mode)
    lam = None if damping is None else damping(np.arange(state.lattice.n_majorana))
    gamma = state.gamma
    for layer in circuit.layers:
        gamma = layer.apply(layer.apply(gamma).T).T
        if lam is not None:
            gamma = gamma * lam
    return GaussianState(state.lattice, gamma, validate=False)


def _pull_back(obs: QuadraticObservable, layers: Sequence[Layer],
               damping: Optional[_Damping]) -> Tuple[np.ndarray, np.ndarray]:
    """Heisenberg pullback restricted to the support of the coefficients.

    Returns the Majorana indices ``S`` outside of which the pulled-back
    coefficient matrix is exactly zero, and its ``S x S`` block.
    """
    support, coeffs = obs.support, obs.block
    for layer in reversed(layers):
        if damping is not None:
            coeffs = coeffs * damping(support)
        support, rot = layer.rows(support)
        coeffs = rot.T @ coeffs @ rot
    return support, coeffs


def _pulled_back_expectation(state: GaussianState, obs: QuadraticObservable,
                             layers: Sequence[Layer], damping: Optional[_Damping]) -> float:
    support, coeffs = _pull_back(obs, layers, damping)
    return obs.offset + float(np.sum(coeffs * state.covariance_block(support)))


def heisenberg_observable(obs: QuadraticObservable, circuit: Circuit,
                          channel: Optional[PauliChannel] = None,
                          enc: Optional[EncodingWeightModel] = None,
                          mode: str = "exact") -> QuadraticObservable:
    """Pull an observable back through the circuit in the Heisenberg picture.

    Layers are traversed last to first; each contributes the channel adjoint
    (the same elementwise damping, the channel being self-adjoint) followed
    by the rotation ``O -> R^T O R``.  The scalar offset is untouched since
    the channel is unital.

    Only the block on the observable's light cone is ever formed: entries
    outside it are exactly zero in the dense pullback too, so the result is
    the same, held on its support, at ``O(depth * |S|^3)`` for a light cone
    of ``|S|`` Majoranas instead of ``O(depth * N^3)``.
    """
    damping = _layer_damping(circuit, channel, enc, mode)
    support, block = _pull_back(obs, circuit.layers, damping)
    return QuadraticObservable(obs.lattice, block, offset=obs.offset, support=support,
                               validate=False)


def circuit_expectation(state: GaussianState, obs: QuadraticObservable,
                        circuit: Circuit,
                        channel: Optional[PauliChannel] = None,
                        enc: Optional[EncodingWeightModel] = None,
                        mode: str = "exact") -> float:
    """Expectation of ``obs`` after the noisy circuit acts on ``state``."""
    damping = _layer_damping(circuit, channel, enc, mode)
    return _pulled_back_expectation(state, obs, circuit.layers, damping)


def prefix_expectations(state: GaussianState, obs: QuadraticObservable,
                        circuit: Circuit,
                        channel: Optional[PauliChannel] = None,
                        enc: Optional[EncodingWeightModel] = None,
                        mode: str = "exact") -> List[float]:
    """Expectations of ``obs`` after each prefix of the circuit, depth 0 first.

    Entry ``d`` is ``circuit_expectation`` on the first ``d`` layers.
    """
    damping = _layer_damping(circuit, channel, enc, mode)
    return [_pulled_back_expectation(state, obs, circuit.layers[:d], damping)
            for d in range(circuit.depth + 1)]


@dataclass(frozen=True)
class LightConeReport:
    """Outcome of a correlation-spreading check after a brickwork circuit.

    ``allowed_distance`` is the strict cone ``2 * radius * depth`` for
    correlations (each of the two operator endpoints spreads by ``radius``
    per layer).  ``largest_violation_distance`` is 0 when the cone holds.
    """

    allowed_distance: int
    largest_correlated_distance: int
    largest_violation_distance: int
    max_outside_magnitude: float
    support_subset_of_noiseless: bool

    @property
    def ok(self) -> bool:
        return self.largest_violation_distance == 0


def lightcone_correlation_check(state: GaussianState, circuit: Circuit,
                                channel: Optional[PauliChannel] = None,
                                enc: Optional[EncodingWeightModel] = None,
                                mode: str = "exact",
                                tol: float = 1e-10) -> LightConeReport:
    """Verify that circuit evolution correlates no sites beyond the cone.

    Requires a product initial state (no correlations between distinct
    sites), evolves it exactly with and without noise, and reports the
    largest site distance carrying a correlation above ``tol`` outside the
    allowed region, plus whether the noisy support stayed inside the
    noiseless one.
    """
    lat = state.lattice
    sites = np.repeat(np.arange(lat.n_sites), 2)
    dist = lat.distance_matrix()[np.ix_(sites, sites)]
    off_site = dist > 0
    if np.abs(state.gamma[off_site]).max(initial=0.0) > tol:
        raise ValueError("light-cone check requires a product initial state")
    evolved = evolve_state(state, circuit, channel, enc, mode)
    noiseless = evolved if channel is None else evolve_state(state, circuit)
    allowed = 2 * circuit.radius * circuit.depth
    correlated = np.abs(evolved.gamma) > tol
    corr_dist = int(dist[correlated].max(initial=0))
    outside = correlated & (dist > allowed)
    violation = int(dist[outside].max(initial=0)) if outside.any() else 0
    max_outside = float(np.abs(evolved.gamma[dist > allowed]).max(initial=0.0))
    subset = bool(np.all(np.abs(noiseless.gamma)[correlated] > tol))
    return LightConeReport(
        allowed_distance=allowed,
        largest_correlated_distance=corr_dist,
        largest_violation_distance=violation,
        max_outside_magnitude=max_outside,
        support_subset_of_noiseless=subset,
    )
