"""Shared fixtures, random-instance builders and dense references for the test suite.

The dense references (:class:`GaussianState`, a state held as its whole
``(2N, 2N)`` covariance, built from a correlation matrix, Haar-random or
power-law damped; an observable from or to its ``(2N, 2N)`` coefficient
matrix and the dense plane-wave mode occupation; the ``(2N, 2N)``
attenuation matrix, the Heisenberg pullback of an observable through a
circuit's light cone, the dense circuit evolution and the light-cone check
built on it, the single Haar rotation, the Bravyi-Kitaev encoder matrix and
its GF(2) inverse, the Jordan-Wigner and Bravyi-Kitaev Pauli rows) are what
the package's mode-diagonal, support-held, light-cone, displacement-summed
and closed-form paths are checked against; no package code needs them.  The ``(F, F, N, N)`` flavor
blocks of every Majorana pair come from independent data, the popcounts of
the Pauli tables or the lattice's distance matrix, and their drops folded by
displacement are the reference for the package's drop boxes, as their
contraction with a covariance is for its error maps.  So is the full-width
direct polylogarithm sum, which the padded in-place sum of the package must
match bit for bit, and the ``(2L)^D`` Fourier route, which the package's
``L^D`` torus is checked against: ``C(r)`` as one FFT of ``n(q)`` on the
displacement box, where every grid momentum ``2 pi m / L`` is the integer
frequency ``2m``, and every momentum sum read off one more FFT of the box.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np
import pytest

from fermion_noise import (
    EncodingWeightModel,
    InvariantViolation,
    Lattice,
    ModeDiagonalState,
    QuadraticObservable,
    attenuation_block,
    mode_etas,
    momentum_grid,
    snake_index_vector,
)
from fermion_noise import encodings
from fermion_noise.encodings import _require_power_of_two
from fermion_noise.gaussian import haar_rotations
from fermion_noise.special import _SKIP_DIGITS
from oracle import gf2_inverse, pauli_string

SEED = 20240817
NORM_SLACK = 1e-8


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(SEED)


def lattice_coords(lattice):
    """``(n_sites, dim)`` coordinates of every site, by the package's one layout formula."""
    return lattice._coords_of(np.arange(lattice.n_sites))


class GaussianState:
    """A fermionic Gaussian state held as its Majorana covariance matrix."""

    def __init__(self, lattice: Lattice, gamma: np.ndarray, *, validate: bool = True):
        g = np.array(gamma, dtype=float)
        n = lattice.n_majorana
        if g.shape != (n, n):
            raise ValueError(f"covariance matrix must be ({n}, {n}), got {g.shape}")
        if validate:
            if not np.allclose(g, -g.T, atol=1e-10):
                raise ValueError("covariance matrix must be antisymmetric")
            norm = np.linalg.norm(g, 2)
            if norm > 1.0 + NORM_SLACK:
                raise InvariantViolation(
                    f"covariance norm {norm:.6g} exceeds 1; state is unphysical"
                )
        g.setflags(write=False)
        self.lattice = lattice
        self._gamma = g

    # -- constructors ---------------------------------------------------

    @classmethod
    def vacuum(cls, lattice: Lattice) -> "GaussianState":
        """The Fock vacuum: every site empty."""
        n_sites = lattice.n_sites
        gamma = np.zeros((2 * n_sites, 2 * n_sites))
        idx = np.arange(n_sites)
        gamma[2 * idx, 2 * idx + 1] = -1.0
        gamma[2 * idx + 1, 2 * idx] = 1.0
        return cls(lattice, gamma, validate=False)

    # -- accessors ------------------------------------------------------

    @property
    def gamma(self) -> np.ndarray:
        """The (read-only) covariance matrix."""
        return self._gamma

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def occupation(self, site: int) -> float:
        """Mean occupation of one site, ``(1 + Gamma[2x, 2x+1]) / 2``."""
        return 0.5 * (1.0 + self.covariance_block([2 * site, 2 * site + 1])[0, 1])

    def covariance_block(self, idx: np.ndarray) -> np.ndarray:
        """The covariance on a Majorana index set, ``gamma[np.ix_(idx, idx)]``."""
        idx = self.lattice._majoranas(idx)
        return self.gamma[np.ix_(idx, idx)]

    def expectation(self, obs: QuadraticObservable) -> float:
        """Expectation value of a quadratic observable in this state."""
        return obs.offset + float(np.sum(obs.block * self.covariance_block(obs.support)))

    def particle_number(self) -> float:
        """Total mean particle number."""
        diag = self.gamma[2 * np.arange(self.n_sites), 2 * np.arange(self.n_sites) + 1]
        return float(0.5 * np.sum(1.0 + diag))

    def __repr__(self) -> str:
        return f"GaussianState({self.lattice!r}, N={self.particle_number():.4g})"


def full_covariance(state):
    """The whole ``(2N, 2N)`` covariance of any state, gathered as its block on every index."""
    return state.covariance_block(np.arange(state.lattice.n_majorana))


def dense_state(state):
    """A mode-diagonal state as the dense reference, held as its whole covariance."""
    return GaussianState(state.lattice, full_covariance(state))


def refuse_full_covariance(monkeypatch):
    """Make ``ModeDiagonalState.covariance_block`` refuse index sets covering all 2N Majoranas."""
    original = ModeDiagonalState.covariance_block

    def guarded(state, idx):
        if np.unique(np.asarray(idx)).size == state.lattice.n_majorana:
            raise AssertionError("the whole covariance was gathered")
        return original(state, idx)

    monkeypatch.setattr(ModeDiagonalState, "covariance_block", guarded)


def observable_from_matrix(lattice, coeffs, offset=0.0, validate=True):
    """The observable of a ``(2N, 2N)`` matrix, held on its nonzero rows and columns."""
    coeffs = np.array(coeffs, dtype=float)
    n = lattice.n_majorana
    if coeffs.shape != (n, n):
        raise ValueError(f"coefficient matrix must be ({n}, {n}), got {coeffs.shape}")
    nonzero = coeffs != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    return QuadraticObservable(lattice, coeffs[np.ix_(support, support)], offset,
                               support=support, validate=validate)


def momentum_occupation_observable(lattice, k):
    """Mode occupation ``n_k = b_k^dag b_k`` of the plane wave at k, densely.

    With ``b_k = N^{-1/2} sum_x e^{-i k.x} c_x`` the operator is a rank-one
    projector (unit trace norm, coefficient trace norm 1/2).  Its coefficient
    matrix couples all site pairs through ``sin``/``cos`` of ``k . (x - y)``.
    """
    k_vec = np.atleast_1d(np.asarray(k, dtype=float))
    if k_vec.shape != (lattice.dim,):
        raise ValueError(f"momentum must have {lattice.dim} components, got {k_vec.shape}")
    n_sites = lattice.n_sites
    phase = lattice_coords(lattice) @ k_vec
    delta = phase[None, :] - phase[:, None]
    sin_block = np.sin(delta) / (4.0 * n_sites)
    cos_block = np.cos(delta) / (4.0 * n_sites)
    coeffs = np.zeros((2 * n_sites, 2 * n_sites))
    coeffs[0::2, 0::2] = sin_block
    coeffs[1::2, 1::2] = sin_block
    coeffs[0::2, 1::2] = cos_block
    coeffs[1::2, 0::2] = -cos_block
    return observable_from_matrix(lattice, coeffs, offset=0.5, validate=False)


def dense_momentum_occupation(state, k):
    """``<n_k>`` of any state from its covariance and the dense observable."""
    return state.expectation(momentum_occupation_observable(state.lattice, k))


def random_antisymmetric(rng, n):
    """Real antisymmetric matrix with O(1) entries."""
    a = rng.normal(size=(n, n))
    return a - a.T


def random_normalized_observable(lattice, rng):
    """Random traceless quadratic observable with unit coefficient trace norm."""
    coeffs = random_antisymmetric(rng, lattice.n_majorana)
    coeffs /= np.linalg.svd(coeffs, compute_uv=False).sum()
    return observable_from_matrix(lattice, coeffs, validate=False)


def random_correlation(rng, n_sites):
    """Hermitian N x N matrix with eigenvalues drawn uniformly from [0, 1]."""
    a = rng.normal(size=(n_sites, n_sites)) + 1j * rng.normal(size=(n_sites, n_sites))
    q, _ = np.linalg.qr(a)
    fillings = rng.uniform(0.0, 1.0, size=n_sites)
    return (q * fillings) @ q.conj().T


def state_from_correlation(lattice, corr, validate=True):
    """Gaussian state of a number-conserving ensemble with ``C_xy = <c_x^dag c_y>``.

    The covariance blocks are ``Gamma^{11} = Gamma^{22} = -2 Im C`` and
    ``Gamma^{12} = -Gamma^{21} = 2 Re C - 1`` (flavor 1 row, flavor 2 column).
    """
    c = np.asarray(corr, dtype=complex)
    n = lattice.n_sites
    if c.shape != (n, n):
        raise ValueError(f"correlation matrix must be ({n}, {n}), got {c.shape}")
    if validate and not np.allclose(c, c.conj().T, atol=1e-10):
        raise ValueError("correlation matrix must be Hermitian")
    gamma = np.empty((2 * n, 2 * n))
    gamma[0::2, 0::2] = gamma[1::2, 1::2] = -2.0 * c.imag
    gamma[0::2, 1::2] = 2.0 * c.real - np.eye(n)
    gamma[1::2, 0::2] = -gamma[0::2, 1::2]
    return GaussianState(lattice, gamma, validate=validate)


def random_gaussian_state(lattice, rng):
    """Generally mixed Gaussian state from a random correlation matrix."""
    corr = random_correlation(rng, lattice.n_sites)
    return state_from_correlation(lattice, corr)


def haar_special_orthogonal(n, rng):
    """Haar-random ``n x n`` rotation in SO(n): one ``standard_normal((n, n))`` draw."""
    return haar_rotations(rng.standard_normal((n, n)))


def random_pure_state(lattice, rng):
    """Haar-random pure Gaussian state: the filled state rotated by one Haar ``Q`` in SO(2N)."""
    q = haar_special_orthogonal(lattice.n_majorana, rng)
    filled = state_from_correlation(lattice, np.eye(lattice.n_sites), validate=False).gamma
    return GaussianState(lattice, q @ filled @ q.T, validate=False)


def power_law_mask(lattice, mu):
    """Positive-semidefinite ``(2N, 2N)`` Schur mask decaying as ``(1 + d)^{-mu}``.

    Off-diagonal entries are scaled so each row sums (off the diagonal) to at
    most 0.9, making the mask diagonally dominant with unit diagonal; Schur
    multiplication by it therefore cannot push a covariance past norm 1.
    """
    if mu <= 0:
        raise ValueError(f"decay exponent must be positive, got {mu}")
    decay = (1.0 + lattice.pair_distances(np.arange(lattice.n_sites))) ** (-mu)
    row_offdiag = decay.sum(axis=1).max() - 1.0
    scale = min(1.0, 0.9 / row_offdiag) if row_offdiag > 0 else 1.0
    mask = scale * decay
    np.fill_diagonal(mask, 1.0)
    return np.repeat(np.repeat(mask, 2, axis=0), 2, axis=1)


def damped_random_state(lattice, mu, rng):
    """Random state whose correlations decay at least as ``(1 + d)^{-mu}``."""
    gamma = random_pure_state(lattice, rng).gamma * power_law_mask(lattice, mu)
    return GaussianState(lattice, gamma, validate=False)


def decay_constant(state, mu):
    """Smallest K with ``|Gamma_ab| <= K (1 + d(a, b))^{-mu}`` for all pairs."""
    lat = state.lattice
    d = lat.pair_distances(np.repeat(np.arange(lat.n_sites), 2))
    return float((np.abs(full_covariance(state)) * (1.0 + d) ** mu).max())


def coefficient_trace_norm(obs):
    """Trace norm (sum of singular values) of an observable's coefficient block.

    ``number`` observables have norm 1/2, ``hopping`` has norm 1.  Error
    bounds stated for unit-norm observables apply after dividing by this
    value.
    """
    return float(np.linalg.svd(obs.block, compute_uv=False).sum())


def dense_coefficients(obs):
    """The ``(2N, 2N)`` coefficient matrix of an observable, scattered from its support."""
    coeffs = np.zeros((obs.lattice.n_majorana,) * 2)
    coeffs[np.ix_(obs.support, obs.support)] = obs.block
    return coeffs


def interleave_flavors(blocks):
    """The ``(2N, 2N)`` Majorana-index matrix of ``(F, F, N, N)`` flavor blocks."""
    n = blocks.shape[-1]
    out = np.empty((2 * n, 2 * n), dtype=blocks.dtype)
    out.reshape(n, 2, n, 2)[...] = blocks.transpose(2, 0, 3, 1)
    return out


def plane_wave_correlation(grid, occupations):
    """``C_xy = (1/N) sum_q n(q) e^{i q.(x - y)}`` as a product of plane-wave matrices."""
    lat = grid.lattice
    phi = np.exp(1j * (lattice_coords(lat) @ grid.momenta.T)) / np.sqrt(lat.n_sites)
    return (phi * occupations) @ phi.conj().T


def plane_wave_pair_sum(lattice, pairs, momenta):
    """``Re sum_{s,t} e^{i k.(r_s - r_t)} pairs[s, t]`` per momentum, by plane-wave matrices."""
    phi = np.exp(1j * (np.asarray(momenta) @ lattice_coords(lattice).T))
    return np.sum((phi @ pairs) * phi.conj(), axis=1).real


def correlation_of(state):
    """Extract the complex <c^dag c> matrix back out of a covariance matrix."""
    g = full_covariance(state)
    real = 0.5 * (g[0::2, 1::2] + np.eye(state.lattice.n_sites))
    imag = -0.5 * g[0::2, 0::2]
    return real + 1j * imag


def dense_rotation(layer):
    """The (2N, 2N) rotation of a gate-block layer: an identity with the gates scattered in.

    Each size's whole stack of gates is drawn and orthogonalized at once.
    """
    rot = np.eye(layer.n_majorana)
    for idx in layer.blocks:
        rot[idx[:, :, None], idx[:, None, :]] = layer.gates(idx)
    return rot


def evolve_state(state, circuit, channel=None, enc=None):
    """Push a state through the circuit densely: per layer ``R Gamma R^T``, then the noise.

    The ``(2N, 2N)`` reference of the package's light-cone sweep: each layer
    is :func:`dense_rotation`, and the noise the whole :func:`attenuation_matrix`.
    """
    lam = None if channel is None else attenuation_matrix(enc, channel)
    gamma = full_covariance(state)
    for rot in map(dense_rotation, circuit.layers):
        gamma = rot @ gamma @ rot.T
        if lam is not None:
            gamma = gamma * lam
    return GaussianState(state.lattice, gamma, validate=False)


def heisenberg_observable(obs, circuit, etas=None, enc=None):
    """Pull an observable back through the circuit in the Heisenberg picture.

    Layers are traversed last to first; each contributes the noise's adjoint
    (the same elementwise damping by the attenuation of ``etas``, the channel
    being self-adjoint) followed by the rotation ``O -> R^T O R``; the offset
    is untouched since the channel is unital.  The support ``S`` moves to the
    layer's window ``T`` (:meth:`Layer.window`): the damped block is placed in
    a ``T x T`` zero matrix and rotated by the touched gates transposed, so
    the result is the dense pullback held on its light cone.  The reference
    of ``prefix_expectations``, which sweeps the same windows forward; the
    gates are drawn here a layer at a time (:meth:`Layer.gates`), there in
    one batch per sweep, so the two draw paths are checked against each
    other.
    """
    noisy = etas is not None and not np.array_equal(etas, (1.0, 1.0, 1.0))
    support, coeffs = obs.support, obs.block
    for layer in reversed(circuit.layers):
        if noisy:
            coeffs = coeffs * attenuation_block(enc, etas, support)
        cols, reached = layer.window(support)
        at = np.searchsorted(cols, support)
        pulled = np.zeros((len(cols),) * 2)
        pulled[np.ix_(at, at)] = coeffs
        touched = [(pos, layer.gates(rows)) for pos, rows in reached]  # drawn layer by layer
        for mat in (pulled, pulled.T):  # R^T O on the rows, then O R on the columns
            for pos, gates in touched:
                mat[pos] = np.swapaxes(gates, 1, 2) @ mat[pos]
        support, coeffs = cols, pulled
    return QuadraticObservable(obs.lattice, coeffs, offset=obs.offset, support=support,
                               validate=False)


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


def lightcone_correlation_check(state, circuit, channel=None, enc=None):
    """Check that dense circuit evolution correlates no sites beyond the cone.

    Requires a product initial state (no correlations between distinct
    sites), evolves it with and without noise by :func:`evolve_state`, and
    reports the largest site distance carrying a correlation above ``tol =
    1e-10`` outside the allowed region, plus whether the noisy support stayed
    inside the noiseless one.
    """
    lat, tol = state.lattice, 1e-10
    dist = lat.pair_distances(np.repeat(np.arange(lat.n_sites), 2))
    if np.abs(full_covariance(state)[dist > 0]).max(initial=0.0) > tol:
        raise ValueError("light-cone check requires a product initial state")
    evolved = evolve_state(state, circuit, channel, enc)
    noiseless = evolved if channel is None else evolve_state(state, circuit)
    allowed = 2 * circuit.radius * circuit.depth
    correlated = np.abs(evolved.gamma) > tol
    outside = correlated & (dist > allowed)
    return LightConeReport(
        allowed_distance=allowed,
        largest_correlated_distance=int(dist[correlated].max(initial=0)),
        largest_violation_distance=int(dist[outside].max(initial=0)),
        max_outside_magnitude=float(np.abs(evolved.gamma[dist > allowed]).max(initial=0.0)),
        support_subset_of_noiseless=bool(np.all(np.abs(noiseless.gamma)[correlated] > tol)),
    )


def assert_close(actual, expected, atol, label=""):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    worst = float(np.abs(actual - expected).max())
    assert worst <= atol, f"{label} max deviation {worst:.3e} > {atol:.1e}"


def jordan_wigner_bits(lattice):
    """Reference x and z bits, (2N, N) 0/1 arrays, of the Jordan-Wigner Majoranas.

    Site ``s`` sits on qubit ``o(s)``, its chain coordinate or in 2D its snake
    index; Majorana ``2s`` is ``Z_(<o) X_o`` and ``2s + 1`` is ``Z_(<o) Y_o``.
    """
    order = lattice_coords(lattice)[:, 0] if lattice.dim == 1 else snake_index_vector(lattice)
    qubit = np.repeat(order, 2)[:, None]
    flavor = (np.arange(lattice.n_majorana) % 2)[:, None]
    q = np.arange(lattice.n_sites)
    return (q == qubit).astype(np.uint8), ((q < qubit) | (q == qubit) & flavor).astype(np.uint8)


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


@functools.lru_cache(maxsize=None)
def bk_beta_matrix(n_modes: int) -> np.ndarray:
    """Binary encoder matrix beta with qubit bits ``b = beta n (mod 2)``.

    Built by the standard recursive doubling: two copies of the half-size
    block on the diagonal, and the last qubit of the upper half additionally
    accumulates every mode of the lower half.
    """
    return _doubling(n_modes, lambda m: slice(m))


@functools.lru_cache(maxsize=None)
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




def bravyi_kitaev_bits(n_modes):
    """Reference x and z bits, (2N, N) 0/1 arrays, of the Bravyi-Kitaev Majoranas.

    Built from the encoder matrix ``beta`` and its GF(2) elimination: x is
    column ``s`` of ``beta`` for both flavors of site ``s``; z is the parity
    of the modes below ``s``, the XOR of rows ``k < s`` of ``beta^-1``, and
    for flavor 1 also of row ``s``.
    """
    beta = bk_beta_matrix(n_modes)
    parity = np.bitwise_xor.accumulate(gf2_inverse(beta), axis=0)  # modes k <= s
    x = np.repeat(beta.T, 2, axis=0)
    z = np.zeros_like(x)
    z[2::2] = parity[:-1]
    z[1::2] = parity
    return x, z


def table_bits(enc):
    """Every encoded Majorana as (2N, N) 0/1 x and z arrays.

    The package answers every concrete encoding in closed form; these are
    the tables it is checked against: :func:`bravyi_kitaev_bits` and
    :func:`jordan_wigner_bits`.
    """
    if enc.kind == "bravyi_kitaev":
        return bravyi_kitaev_bits(enc.lattice.n_sites)
    return jordan_wigner_bits(enc.lattice)


def table_strings(enc):
    """Dense Pauli string of every encoded Majorana, rendered from the table."""
    x, z = table_bits(enc)
    labels = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return [pauli_string(enc.lattice.n_sites,
                         {q: labels[(xq, zq)] for q, (xq, zq) in enumerate(zip(xm, zm))
                          if xq or zq})
            for xm, zm in zip(x, z)]


def _packed_words(bits):
    """Rows of 0/1 bits packed 64 to a uint64 word, zero-padded."""
    packed = np.packbits(bits, axis=1)
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)


def reference_counts(x, z):
    """(3, 2N, 2N) X/Y/Z counts of every product of two rows of 0/1 x and z bits.

    A product is the XOR of two rows, its Y count the popcount of ``x & z``,
    and its X and Z counts those of ``x`` and ``z`` less the Ys.  Counts are
    int16: the tables of up to 1024 modes are kept for the session.
    """
    x, z = _packed_words(x), _packed_words(z)
    out = np.empty((3, len(x), len(x)), dtype=np.int16)
    rows = max(1, (1 << 19) // max(1, x.size))  # about 4 MB per temporary
    for lo in range(0, len(x), rows):
        px, pz = x[lo:lo + rows, None] ^ x, z[lo:lo + rows, None] ^ z
        ny = np.bitwise_count(px & pz).sum(axis=-1)
        out[:, lo:lo + rows] = (np.bitwise_count(px).sum(axis=-1) - ny, ny,
                                np.bitwise_count(pz).sum(axis=-1) - ny)
    return out


@functools.lru_cache(maxsize=None)
def _table_counts(kind, dim, length):
    counts = reference_counts(*table_bits(EncodingWeightModel(kind, Lattice(dim, length))))
    counts.setflags(write=False)
    return counts


def flavor_blocks(enc, counts=False):
    """Weights, or X/Y/Z counts, of every Majorana pair as ``(2, 2, N, N)`` flavor blocks.

    Entry ``[f, g, s, t]`` belongs to the pair ``(2s + f, 2t + g)``, with the
    counts stacked in front.  The concrete encodings take the popcounts of
    their Pauli tables (:func:`table_bits`, 0 for a Majorana with itself);
    ``local`` takes ``phi0`` plus :meth:`Lattice.distance_matrix` for every
    flavor pair and has no counts.
    """
    lat = enc.lattice
    n = lat.n_sites
    if enc.kind == "local":
        if counts:
            raise ValueError("the 'local' model has no X/Y/Z strings")
        return np.broadcast_to(enc.phi0 + lat.distance_matrix(), (2, 2, n, n))
    table = _table_counts(enc.kind, lat.dim, lat.length)
    table = table if counts else table.sum(axis=0)
    table = table.reshape(table.shape[:-2] + (n, 2, n, 2))  # [..., s, f, t, g]
    return np.moveaxis(table, (-4, -3, -2, -1), (-2, -4, -1, -3))


def attenuation_blocks(enc, etas):
    """``ex**nx * ey**ny * ez**nz`` on the flavor blocks, or ``eta**weight`` when the etas agree."""
    ex, ey, ez = etas
    if ex == ey == ez:
        return ex ** flavor_blocks(enc)
    nx, ny, nz = flavor_blocks(enc, counts=True)
    return ex**nx * ey**ny * ez**nz


def attenuation_matrix(enc, channel, mode="exact"):
    """Dense ``(2N, 2N)`` attenuation (diagonal 1) from the reference flavor blocks.

    The reference the index-set route of ``attenuation_block`` is checked
    against.
    """
    lam = interleave_flavors(attenuation_blocks(enc, mode_etas(channel, mode)))
    np.fill_diagonal(lam, 1.0)
    return lam


def displacement_index(lat, sites, cols=None):
    """Flat index into a raveled box array of ``x_s - x_t``, for every pair of ``sites``.

    With ``cols``, the rectangle of pairs ``s`` in ``sites``, ``t`` in ``cols``.
    """
    period = 2 * lat.length
    cols = sites if cols is None else cols
    index = 0
    for row, col in zip(lattice_coords(lat)[sites].T, lattice_coords(lat)[cols].T):
        index = index * period + (row[:, None] - col[None, :]) % period
    return index


def fold(lat, pairs):
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
        key = displacement_index(lat, sites[lo:lo + step], sites).ravel()
        for out, at in zip(box, np.ndindex(lead)):
            out += np.bincount(key, pairs[at][lo:lo + step].ravel(), box.shape[1])
    return box.reshape(lead + (period,) * lat.dim)


def drops(enc, etas):
    """Flavor blocks of ``1 - lambda`` over all pairs."""
    return 1.0 - attenuation_blocks(enc, etas)


def fold_drop_box(enc, etas):
    """The drop boxes as the fold of all ``N x N`` drop blocks: ``(same, cross)`` flavor means."""
    drop = fold(enc.lattice, drops(enc, etas))
    return (drop[0, 0] + drop[1, 1]) / 2.0, (drop[0, 1] + drop[1, 0]) / 2.0


def dense_momentum_error_map(state, enc, channel, momenta, mode="exact"):
    """``momentum_error_map`` of any Gaussian state, from its covariance.

    With the covariance flavor blocks ``G_fg = Gamma[f::2, g::2]`` and the
    drops ``D_fg``, the error is ``Re sum_st e^{i k.(r_s - r_t)} T_st / (4N)``
    with ``T = (D01 o G01 - D10 o G10) + i (D00 o G00 + D11 o G11)``, folded
    onto the box and read off its FFT.
    """
    lat = state.lattice
    drop = drops(enc, mode_etas(channel, mode))
    g = full_covariance(state)
    t = np.stack([drop[0, 1] * g[0::2, 1::2] - drop[1, 0] * g[1::2, 0::2],
                  drop[0, 0] * g[0::2, 0::2] + drop[1, 1] * g[1::2, 1::2]])
    real, imag = fold(lat, t)
    return box_sum(lat, real + 1j * imag, np.atleast_2d(momenta)) / (4.0 * lat.n_sites)


def displacement_box(lat):
    """Per-axis displacements ``r_i = x_i - y_i`` on the box of period ``2L``.

    A box array has shape ``(2L,) * dim`` and holds displacement ``r`` at
    index ``r mod 2L`` along every axis; axis ``i`` of the result carries the
    values ``r_i`` in ``[-L, L)`` and broadcasts against the others.  Every
    site-pair displacement, ``(-L, L)`` per axis, has its own entry (no wrap
    around the torus); ``r_i = -L`` joins no pair.
    """
    period = 2 * lat.length
    r = (np.arange(period) + lat.length) % period - lat.length
    return tuple(r.reshape((-1,) + (1,) * (lat.dim - 1 - i)) for i in range(lat.dim))


def displacement_multiplicity(lat):
    """Number of site pairs at each displacement, ``prod_i (L - |r_i|)``, a box array."""
    return math.prod(lat.length - np.abs(r) for r in displacement_box(lat))


def fold_onto_torus(lat, box, signs):
    """A box array folded onto the ``L^D`` torus, ``box[r] + signs[i] box[r - L]`` on axis i."""
    for axis, sign in enumerate(signs):
        near = box[(slice(None),) * axis + (slice(None, lat.length),)]
        far = box[(slice(None),) * axis + (slice(lat.length, None),)]
        box = near + far if sign > 0 else near - far
    return box


def folded_drops(lat, same, cross):
    """``drops(signs)`` for ``ModeDiagonalState.occupation_shift``: two box arrays folded."""
    return lambda signs: (fold_onto_torus(lat, same, signs), fold_onto_torus(lat, cross, signs))


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


def _fenwick_box(lat: Lattice, etas: Tuple[float, float, float]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Bravyi-Kitaev's ``(same, cross)`` drop boxes by Fenwick level, FFTs on the box.

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

    tau = encodings._trailing_ones(np.arange(n)).astype(np.int64)
    for h, o, p, r, p_last in _fenwick_levels(tau):
        size = len(o)
        factors = ends(h, o, p, r)
        factors[:, size // 2:] *= n // size
        factors[:, -1] = ends(h, h, p_last, True).sum(axis=1)
        grids = np.zeros((2, 4) + box)
        for grid, sites in zip(grids, np.split(np.arange(size), 2)):
            grid[(slice(None),) + tuple(lattice_coords(lat)[sites].T)] = factors[:, sites]
        (li, l0, l1, l2), (ui, u0, u1, u2) = np.fft.rfftn(grids, axes=axes)
        a0, au0 = li + l0, ui + u0
        spectra[0] += (ey * (a0 * u0.conj() + l0 * ui.conj() + (li + l1) * u1.conj()
                         + l1 * ui.conj() + swap * l2 * u2.conj())).real
        spectra[1] += (ex * (a0 * u1.conj() + l0 * ui.conj() + au0 * l1.conj() + u0 * li.conj())
                   + swap * (a0 * u2.conj() + au0 * l2.conj())).real
    mult = displacement_multiplicity(lat)
    lam = np.fft.irfftn(spectra, box, axes=axes)
    same, cross = np.multiply.outer((1.0 - ey, 1.0 - ex), mult) - lam
    for drop in (same, cross):
        drop[mult == 0] = 0.0
    origin = (0,) * dim
    same[origin] = 0.0
    cross[origin] = np.sum(1.0 - ez ** (1 + tau))
    return same, cross


def _jordan_wigner_box(lat: Lattice, etas: Tuple[float, float, float]
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Jordan-Wigner's ``(same, cross)`` drop boxes by qubit separation.

    In either qubit order ``o`` the X/Y/Z counts of a site pair, averaged over
    its two flavor pairs, depend on the separation ``m = |o_s - o_t|`` alone
    (:meth:`EncodingWeightModel._jordan_wigner_counts`), so the drops are
    ``h(m)``: ``1 - ex ey ez**(m - 1)`` within a flavor (0 on site) and
    ``1 - (ex**2 + ey**2)/2 ez**(m - 1)`` across (``1 - ez`` on site), both
    ``1 - eta**(m + 1)`` when the etas agree, each evaluated once per
    separation ``m < N``.  The chain has ``L - |r|`` pairs at ``r``, all at
    ``m = |r|``.  The snake,
    ``o = y L + x'`` with ``x' = x`` on even rows and ``L - 1 - x`` on odd
    ones, has at ``(u, d)`` the separation ``|d L + x1' - x2'|``.  For ``d``
    even both rows share a parity and ``x1' - x2'`` is ``u`` on even rows and
    ``-u`` on odd ones, over ``L - |u|`` columns each.  For ``d`` odd,
    whichever row is even, it runs once over ``-(L - 1 - |u|) .. L - 1 - |u|``
    in steps of 2, on each of the ``L - |d|`` row pairs: a stride-2 running sum
    of ``h(|d L + t|) + h(|d L - t|)`` from ``t = 0`` out.  ``O(N)`` from one
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
        r = np.abs(displacement_box(lat)[0])
        boxes = [h[r] * (length - r) for h in drops(np.arange(length + 1))]
    else:
        t = np.arange(1 - length, length)  # the row offset d, and x1' - x2'
        pairs = length - np.abs(t)
        odd = t % 2 == 1
        # Even rows y1 in [max(0, d), L - 1 + min(0, d)], read at even d.
        even = ((length - 1 + np.minimum(t, 0)) // 2 - (np.maximum(t, 0) - 1) // 2)[~odd, None]
        at = np.ix_(t % (2 * length), t % (2 * length))
        boxes = []
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
            box = np.zeros((2 * length,) * 2)
            box[at] = by_rows.T
            boxes.append(box)
    return boxes[0], boxes[-1]


def box_drops(enc, etas):
    """The ``(same, cross)`` drops summed on the ``(2L)^D`` box, by the box-route producers.

    What ``EncodingWeightModel.drop_torus`` folds as it sums: ``local`` in
    closed form, Jordan-Wigner by qubit separation and Bravyi-Kitaev by
    Fenwick level with its FFTs on the box.
    """
    lat = enc.lattice
    if enc.kind == "local":
        drop = 1.0 - etas[0] ** (enc.phi0 + sum(map(lat._wrap, displacement_box(lat))))
        drop = drop * displacement_multiplicity(lat)
        return drop, drop
    if enc.kind == "bravyi_kitaev":
        return _fenwick_box(lat, etas)
    return _jordan_wigner_box(lat, etas)


def full_width_polylog_direct(s, z):
    """``sum z^k / k^s`` with every chunk summed at its full length.

    Chunks of 2^16 doubling to 2^21 terms; the terms past ``k_last`` (for
    ``s >= 0``) are zeros, and each chunk is evaluated out of place as
    ``exp(-w k - s log k)``.  The reference for the package's direct sum,
    which pads only to the next power of two and evaluates in place.
    """
    w = -math.log(z)
    k_last = 1 + math.ceil((_SKIP_DIGITS - math.log(-math.expm1(-w))) / w) \
        if s >= 0 else math.inf
    chunks = []
    k0 = 1
    chunk = 1 << 16
    while True:
        n_live = int(min(chunk, max(1, k_last - k0 + 1)))
        k = np.arange(k0, k0 + n_live, dtype=float)
        terms = np.zeros(chunk)
        terms[:n_live] = np.exp(-w * k - s * np.log(k))
        chunks.append(float(np.sum(terms)))
        k_end = k0 + n_live - 1
        last = terms[n_live - 1]
        ratio = z * ((k_end + 1.0) / k_end) ** max(0.0, -s)
        if ratio < 1.0:
            tail = last * ratio / (1.0 - ratio)
            if tail < 1e-13:
                return math.fsum(chunks)
        k0 += chunk
        chunk = min(2 * chunk, 1 << 21)


def box_sum(lat, box, momenta):
    """``Re sum_r box[r] e^{i k.r}`` by one FFT of the ``(2L)^D`` box, or the direct sum.

    Momenta with ``k L / pi`` an integer on every axis are integer
    frequencies of the box; the others take the direct sum over it.
    """
    momenta = np.asarray(momenta, dtype=float)
    period = 2 * lat.length
    freq = momenta * (lat.length / np.pi)
    index = np.rint(freq)
    on_box = np.all(np.abs(freq - index) <= 1e-12 * np.maximum(1.0, np.abs(freq)), axis=1)
    out = np.empty(len(momenta))
    if on_box.any():
        table = np.fft.ifftn(box, norm="forward")  # sum_r box(r) e^{2 pi i j.r / 2L}
        out[on_box] = table[tuple((index[on_box].astype(np.int64) % period).T)].real
    if not on_box.all():
        r = np.stack(np.broadcast_arrays(*displacement_box(lat))).reshape(lat.dim, -1)
        out[~on_box] = (np.exp(1j * momenta[~on_box] @ r) @ box.ravel()).real
    return out


def box_conj_correlation(state):
    """``conj C(r)`` on the ``(2L)^D`` box: one FFT of ``n(q)`` placed at frequency ``2m = k L / pi``."""
    lat = state.lattice
    period = 2 * lat.length
    box = np.zeros((period,) * lat.dim)
    freq = np.rint(state.grid.momenta * (lat.length / np.pi)).astype(np.int64)
    box[tuple((freq % period).T)] = state.occupations
    return np.fft.fftn(box) / lat.n_sites


def box_covariance_block(state, idx):
    """The covariance of a mode-diagonal state on an index set, gathered from the box."""
    sites, flavor = np.divmod(np.asarray(idx), 2)
    corr = box_conj_correlation(state).ravel()[displacement_index(state.lattice, sites)]
    corr = corr.conj()
    gamma = 2.0 * corr.real - (sites[:, None] == sites[None, :])
    gamma[flavor[:, None] > flavor[None, :]] *= -1.0
    same = flavor[:, None] == flavor[None, :]
    gamma[same] = -2.0 * corr.imag[same]
    return gamma


def box_occupation_shift(state, same, cross, momenta):
    """``ModeDiagonalState.occupation_shift`` with ``C(r)`` and the sum on the box."""
    lat = state.lattice
    summand = box_conj_correlation(state)
    summand[(0,) * lat.dim] -= 0.5
    summand.real *= cross / lat.n_sites
    summand.imag *= same / lat.n_sites
    return box_sum(lat, summand, momenta)


def box_momentum_error_map(state, enc, channel, momenta, mode="exact"):
    """``momentum_error_map`` of a mode-diagonal state by the box route."""
    return box_occupation_shift(state, *box_drops(enc, mode_etas(channel, mode)),
                                np.atleast_2d(momenta))


def box_momentum_occupation(state, k):
    """``momentum_occupation`` of a mode-diagonal state by the box route."""
    pairs = displacement_multiplicity(state.lattice)
    return 0.5 + float(box_occupation_shift(state, pairs, pairs, np.atleast_2d(k))[0])


def on_both_grids(state, map_of):
    """The momenta of the state's grid, then of the other parity's, and ``map_of`` on both.

    ``map_of(parity)`` is a momentum map of the state, ``None`` its own grid.
    """
    other = "even" if state.grid.parity == "odd" else "odd"
    momenta = np.concatenate([state.grid.momenta, momentum_grid(state.lattice, other).momenta])
    return momenta, np.concatenate([map_of(None), map_of(other)])
