"""Noisy free-fermion brickwork circuits on the covariance level.

A circuit is a sequence of layers; each layer is a Gaussian unitary
``U = exp(-i H)`` with ``H = (i/4) sum_ab h_ab gamma_a gamma_b`` and is
stored as its orthogonal Majorana rotation ``R = exp(h)``:

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

Observables are pulled back on their support only.  With ``S`` the Majorana
indices of the nonzero rows and columns of the coefficient matrix, one layer
maps the ``S x S`` block to ``T x T`` with ``T`` the columns where ``R[S]``
has a nonzero entry: the damping is elementwise, so zeros stay zeros, and a
column of ``R[S]`` that is exactly zero leaves an exactly zero row and column
behind.  This is the dense pullback, not an approximation.  Brickwork layers
are an identity with gates scattered in, so ``S`` spreads by at most
``radius`` sites per layer and a pullback through ``depth`` layers costs
``O(depth * (|S| * N + |S|^3))`` with ``|S|`` the light-cone volume; a dense
rotation gives full support and the dense cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .encodings import EncodingWeightModel
from .gaussian import GaussianState, QuadraticObservable, haar_rotations
from .lattice import Lattice
from .noise import PauliChannel, attenuation_matrix


@dataclass(frozen=True)
class Circuit:
    """A fixed sequence of Majorana-rotation layers over one lattice."""

    lattice: Lattice
    radius: int
    layers: tuple

    @property
    def depth(self) -> int:
        return len(self.layers)

    def light_cone_radius(self, depth: Optional[int] = None) -> int:
        """Largest site distance an operator can spread after ``depth`` layers."""
        d = self.depth if depth is None else depth
        return self.radius * d


def _layer_blocks(lattice: Lattice, axis: int, offset: int, block: int) -> List[List[int]]:
    """Disjoint site blocks tiling the torus along one axis with a cyclic offset.

    One row of blocks per line along ``axis``, lines ordered by the other
    coordinate.  When the length is not a multiple of the block size the
    final chunk is truncated rather than wrapped, keeping the blocks disjoint.
    """
    length = lattice.length
    along = ((offset + np.arange(length)) % length) * length ** axis
    lines = np.zeros(1, dtype=np.int64)
    for other in range(lattice.dim):
        if other != axis:
            lines = (lines[:, None] + np.arange(length) * length ** other).ravel()
    sites = (lines[:, None] + along).tolist()
    return [line[start:start + block] for line in sites for start in range(0, length, block)]


def brickwork_circuit(lattice: Lattice, depth: int, radius: int = 1,
                      rng: Optional[np.random.Generator] = None) -> Circuit:
    """Haar-random brickwork circuit of the given depth.

    Layer ``l`` places gates on blocks of up to ``radius + 1`` consecutive
    sites along axis ``l % dim``, with brick offset ``(l // dim) % (radius +
    1)``; each gate is an independent Haar sample from SO(2 * block size)
    acting on the block's Majoranas.  Lengths that are not a multiple of the
    block size get one truncated (smaller) gate per row.  A layer draws the
    normals of all its gates in one ``standard_normal`` call, in gate order,
    so the stream is that of one :func:`haar_special_orthogonal` call per
    gate; gates of one size are orthogonalized as one stack.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if radius < 1:
        raise ValueError(f"interaction radius must be at least 1, got {radius}")
    block = radius + 1
    if rng is None:
        rng = np.random.default_rng()
    n = lattice.n_majorana
    layers = []
    for layer_idx in range(depth):
        axis = layer_idx % lattice.dim
        offset = (layer_idx // lattice.dim) % block
        blocks = _layer_blocks(lattice, axis, offset, block)
        sizes = np.array([2 * len(sites) for sites in blocks])
        starts = np.cumsum(sizes**2) - sizes**2
        normals = rng.standard_normal(int(np.sum(sizes**2)))
        rot = np.eye(n)
        for size in np.unique(sizes):
            which = np.flatnonzero(sizes == size)
            gates = haar_rotations(normals[starts[which, None] + np.arange(size * size)]
                                   .reshape(-1, size, size))
            sites = np.array([blocks[g] for g in which])
            idx = (2 * sites[:, :, None] + np.arange(2)).reshape(len(which), size)
            rot[idx[:, :, None], idx[:, None, :]] = gates
        layers.append(rot)
    return Circuit(lattice=lattice, radius=radius, layers=tuple(layers))


def _layer_attenuation(circuit: Circuit, channel: Optional[PauliChannel],
                       enc: Optional[EncodingWeightModel], mode: str) -> Optional[np.ndarray]:
    if channel is None or channel.p == 0.0:
        return None
    if enc is None:
        raise ValueError("a noisy circuit needs an encoding weight model")
    if (enc.lattice.dim, enc.lattice.length) != (circuit.lattice.dim, circuit.lattice.length):
        raise ValueError("encoding and circuit lattices disagree")
    return attenuation_matrix(enc, channel, mode)


def evolve_state(state: GaussianState, circuit: Circuit,
                 channel: Optional[PauliChannel] = None,
                 enc: Optional[EncodingWeightModel] = None,
                 mode: str = "exact") -> GaussianState:
    """Push a state through the circuit (each layer: rotate, then noise)."""
    lam = _layer_attenuation(circuit, channel, enc, mode)
    gamma = state.gamma.copy()
    for rot in circuit.layers:
        gamma = rot @ gamma @ rot.T
        if lam is not None:
            gamma *= lam
    return GaussianState(state.lattice, gamma, validate=False)


def _pull_back(obs: QuadraticObservable, layers: Sequence[np.ndarray],
               lam: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Heisenberg pullback restricted to the support of the coefficients.

    Returns the Majorana indices ``S`` outside of which the pulled-back
    coefficient matrix is exactly zero, and its ``S x S`` block.
    """
    nonzero = obs.coefficients != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    coeffs = obs.coefficients[np.ix_(support, support)]
    for rot in reversed(layers):
        if lam is not None:
            coeffs = coeffs * lam[np.ix_(support, support)]
        rows = rot[support]
        support = np.flatnonzero((rows != 0).any(axis=0))
        gate = rows[:, support]
        coeffs = gate.T @ coeffs @ gate
    return support, coeffs


def _pulled_back_expectation(state: GaussianState, obs: QuadraticObservable,
                             layers: Sequence[np.ndarray],
                             lam: Optional[np.ndarray]) -> float:
    support, coeffs = _pull_back(obs, layers, lam)
    return obs.offset + float(np.sum(coeffs * state.gamma[np.ix_(support, support)]))


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
    the same, at ``O(depth * (|S| * N + |S|^3))`` for a light cone of
    ``|S|`` Majoranas instead of ``O(depth * N^3)``.
    """
    lam = _layer_attenuation(circuit, channel, enc, mode)
    support, block = _pull_back(obs, circuit.layers, lam)
    coeffs = np.zeros_like(obs.coefficients)
    coeffs[np.ix_(support, support)] = block
    return QuadraticObservable(obs.lattice, coeffs, offset=obs.offset, validate=False)


def circuit_expectation(state: GaussianState, obs: QuadraticObservable,
                        circuit: Circuit,
                        channel: Optional[PauliChannel] = None,
                        enc: Optional[EncodingWeightModel] = None,
                        mode: str = "exact") -> float:
    """Expectation of ``obs`` after the noisy circuit acts on ``state``."""
    lam = _layer_attenuation(circuit, channel, enc, mode)
    return _pulled_back_expectation(state, obs, circuit.layers, lam)


def prefix_expectations(state: GaussianState, obs: QuadraticObservable,
                        circuit: Circuit,
                        channel: Optional[PauliChannel] = None,
                        enc: Optional[EncodingWeightModel] = None,
                        mode: str = "exact") -> List[float]:
    """Expectations of ``obs`` after each prefix of the circuit, depth 0 first.

    Entry ``d`` is ``circuit_expectation`` on the first ``d`` layers; the
    attenuation matrix is built once for all ``depth + 1`` prefixes.
    """
    lam = _layer_attenuation(circuit, channel, enc, mode)
    return [_pulled_back_expectation(state, obs, circuit.layers[:d], lam)
            for d in range(circuit.depth + 1)]


def circuit_error_curve(state: GaussianState, obs: QuadraticObservable,
                        circuit: Circuit, enc: EncodingWeightModel,
                        p_grid: Sequence[float],
                        mode: str = "exact") -> List[Tuple[float, float]]:
    """|ideal - noisy| circuit expectation under depolarizing noise, per p."""
    ideal = circuit_expectation(state, obs, circuit)
    curve = []
    for p in p_grid:
        noisy = circuit_expectation(state, obs, circuit,
                                    PauliChannel.depolarizing(p), enc, mode)
        curve.append((float(p), abs(noisy - ideal)))
    return curve


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
