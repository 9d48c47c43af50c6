"""Fermionic Gaussian states on a torus, in Majorana covariance form.

Site ``x`` carries two Majorana operators, ``gamma^1_x = c_x^dag + c_x`` at
even index ``2x`` and ``gamma^2_x = i (c_x^dag - c_x)`` at odd index
``2x + 1``.  A Gaussian state is summarized by the real antisymmetric
covariance matrix ``Gamma`` with

    <gamma_a gamma_b> = delta_ab - i Gamma_ab,

so physical states satisfy ``||Gamma|| <= 1`` (pure states saturate it in
every direction) and the on-site entry ``Gamma[2x, 2x+1]`` equals
``2 <n_x> - 1``.  Observables quadratic in the Majoranas are a scalar
offset plus a real antisymmetric coefficient matrix ``O`` with
``<O> = offset + sum_ab O_ab Gamma_ab``, held on their support: the indices
``S`` of the nonzero rows and columns and the ``S x S`` block (2 x 2 for a
site occupation, 4 x 4 for a hopping), with the full matrix scattered only
on request.  An expectation reads the covariance on ``S`` alone
(:meth:`GaussianState.covariance_block`).

Mode-diagonal states (every Fermi sea, the scaling probes, the circulant
power-law state) are :class:`ModeDiagonalState`: the momentum grid and the
occupations ``n(q)``, with the covariance built only when something asks
for all of it.  ``C(r)`` is one FFT of ``n(q)`` on the ``(2L)^D``
displacement box; the covariance on an index set is gathered from it, and
``<n_k>`` and noise-induced ``n_k`` errors are one more FFT for a whole
grid (:meth:`ModeDiagonalState.occupation_shift`).  The dense covariance
stays the reference both are tested against.

Besides those, the module provides synthetic families used to probe
correlation-decay premises: Haar-random pure states, their Schur-damped
power-law variants, and a translation-invariant circulant family with an
exactly known power-law envelope, whose ``n(q)`` is one FFT of that
envelope.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation
from .lattice import Lattice, MomentumGrid, momentum_grid, parity_of
from .special import riemann_zeta

NORM_SLACK = 1e-8
# How far a mode occupation may leave [0, 1] by rounding.
OCCUPATION_SLACK = 1e-12


class QuadraticObservable:
    """Observable ``offset + sum_ab O_ab Gamma_ab`` with O real antisymmetric.

    Held on its support: the Majorana indices ``S`` outside of which ``O``
    is zero, and the ``S x S`` block.  The ``(2N, 2N)`` matrix
    :attr:`coefficients` is scattered from them on first use.

    Parameters
    ----------
    lattice : Lattice
        Lattice fixing the Majorana index space (2 * n_sites).
    coefficients : ndarray
        Real antisymmetric matrix of shape (2N, 2N), or with ``support`` its
        block on those indices.
    offset : float, optional
        Scalar part of the expectation value.
    support : array of int, optional
        Distinct Majorana indices of the block; without it the support is
        the set of nonzero rows and columns of the full matrix.
    """

    def __init__(self, lattice: Lattice, coefficients: np.ndarray, offset: float = 0.0,
                 *, support: Optional[np.ndarray] = None, validate: bool = True):
        block = np.array(coefficients, dtype=float)
        n = lattice.n_majorana
        dense = None
        if support is None:
            if block.shape != (n, n):
                raise ValueError(f"coefficient matrix must be ({n}, {n}), got {block.shape}")
            nonzero = block != 0
            support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
            dense, block = block, block[np.ix_(support, support)]
            dense.setflags(write=False)
        else:
            support = np.array(support, dtype=np.int64)
            if support.ndim != 1 or block.shape != (len(support),) * 2:
                raise ValueError(f"block of shape {block.shape} does not match "
                                 f"{len(support)} support indices")
            if support.size and (support.min() < 0 or support.max() >= n
                                 or np.unique(support).size != support.size):
                raise ValueError(f"support must be distinct Majorana indices in [0, {n})")
        if validate and not np.allclose(block, -block.T, atol=1e-12):
            raise ValueError("coefficient matrix must be antisymmetric")
        support.setflags(write=False)
        block.setflags(write=False)
        self.lattice = lattice
        self.support = support
        self.block = block
        self.offset = float(offset)
        self._coefficients = dense

    @property
    def coefficients(self) -> np.ndarray:
        """The (read-only) ``(2N, 2N)`` coefficient matrix, built on first use."""
        if self._coefficients is None:
            coeffs = np.zeros((self.lattice.n_majorana,) * 2)
            coeffs[np.ix_(self.support, self.support)] = self.block
            coeffs.setflags(write=False)
            self._coefficients = coeffs
        return self._coefficients

    @classmethod
    def number(cls, lattice: Lattice, site: int) -> "QuadraticObservable":
        """Occupation ``n_x = c_x^dag c_x`` of a single site."""
        if not 0 <= site < lattice.n_sites:
            raise IndexError(f"site {site} outside [0, {lattice.n_sites})")
        return cls(lattice, [[0.0, 0.25], [-0.25, 0.0]], offset=0.5,
                   support=[2 * site, 2 * site + 1], validate=False)

    @classmethod
    def hopping(cls, lattice: Lattice, site_a: int, site_b: int) -> "QuadraticObservable":
        """Hermitian hopping ``c_a^dag c_b + c_b^dag c_a`` between two sites."""
        n_sites = lattice.n_sites
        if not (0 <= site_a < n_sites and 0 <= site_b < n_sites):
            raise IndexError(f"sites ({site_a}, {site_b}) outside [0, {n_sites})")
        if site_a == site_b:
            raise ValueError("hopping requires two distinct sites")
        support = np.sort([2 * site_a, 2 * site_a + 1, 2 * site_b, 2 * site_b + 1])
        block = np.zeros((4, 4))
        for u, v in ((2 * site_a, 2 * site_b + 1), (2 * site_b, 2 * site_a + 1)):
            i, j = np.searchsorted(support, (u, v))
            block[i, j] = 0.25
            block[j, i] = -0.25
        return cls(lattice, block, support=support, validate=False)

    @classmethod
    def momentum_occupation(cls, lattice: Lattice, k: Sequence[float]) -> "QuadraticObservable":
        """Mode occupation ``n_k = b_k^dag b_k`` of the plane wave at k.

        With ``b_k = N^{-1/2} sum_x e^{-i k.x} c_x`` the operator is a
        rank-one projector (unit trace norm).  Its coefficient matrix couples
        all site pairs through ``sin``/``cos`` of ``k . (x - y)``.
        """
        k_vec = np.atleast_1d(np.asarray(k, dtype=float))
        if k_vec.shape != (lattice.dim,):
            raise ValueError(f"momentum must have {lattice.dim} components, got {k_vec.shape}")
        n_sites = lattice.n_sites
        phase = lattice.coords @ k_vec
        delta = phase[None, :] - phase[:, None]
        sin_block = np.sin(delta) / (4.0 * n_sites)
        cos_block = np.cos(delta) / (4.0 * n_sites)
        coeffs = np.zeros((2 * n_sites, 2 * n_sites))
        coeffs[0::2, 0::2] = sin_block
        coeffs[1::2, 1::2] = sin_block
        coeffs[0::2, 1::2] = cos_block
        coeffs[1::2, 0::2] = -cos_block
        return cls(lattice, coeffs, offset=0.5, validate=False)

    def scaled(self, factor: float) -> "QuadraticObservable":
        """The observable multiplied by a scalar (offset included)."""
        return QuadraticObservable(self.lattice, factor * self.block, offset=factor * self.offset,
                                   support=self.support, validate=False)

    def coefficient_trace_norm(self) -> float:
        """Trace norm (sum of singular values) of the coefficient matrix.

        ``number`` and ``momentum_occupation`` observables have norm 1/2,
        ``hopping`` has norm 1.  Error bounds stated for unit-norm
        observables apply after dividing by this value.
        """
        return float(np.linalg.svd(self.block, compute_uv=False).sum())

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self.block))
        return f"QuadraticObservable(offset={self.offset}, nnz={nnz})"


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

    @classmethod
    def from_correlation_matrix(cls, lattice: Lattice, corr: np.ndarray,
                                *, validate: bool = True) -> "GaussianState":
        """State of a number-conserving ensemble with ``C_xy = <c_x^dag c_y>``.

        The covariance blocks are ``Gamma^{11} = Gamma^{22} = -2 Im C`` and
        ``Gamma^{12} = 2 Re C - 1`` (flavor 1 row, flavor 2 column).
        """
        c = np.asarray(corr, dtype=complex)
        n_sites = lattice.n_sites
        if c.shape != (n_sites, n_sites):
            raise ValueError(f"correlation matrix must be ({n_sites}, {n_sites}), got {c.shape}")
        if validate and not np.allclose(c, c.conj().T, atol=1e-10):
            raise ValueError("correlation matrix must be Hermitian")
        same = -2.0 * c.imag
        cross = 2.0 * c.real - np.eye(n_sites)
        gamma = np.zeros((2 * n_sites, 2 * n_sites))
        gamma[0::2, 0::2] = same
        gamma[1::2, 1::2] = same
        gamma[0::2, 1::2] = cross
        gamma[1::2, 0::2] = -cross.T
        return cls(lattice, gamma, validate=validate)

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
        if not 0 <= site < self.lattice.n_sites:
            raise IndexError(f"site {site} outside [0, {self.lattice.n_sites})")
        return 0.5 * (1.0 + self.gamma[2 * site, 2 * site + 1])

    def covariance_block(self, idx: np.ndarray) -> np.ndarray:
        """The covariance on a Majorana index set, ``gamma[np.ix_(idx, idx)]``."""
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


class ModeDiagonalState(GaussianState):
    """Translation-invariant state diagonal in the plane waves of a momentum grid.

    Held as the grid and the mode occupations ``n(q)``; the two-point
    function is ``C_xy = C(x - y)`` with ``C(r) = (1/N) sum_q n(q) e^{i q.r}``.
    The covariance matrix is built from them on first use of :attr:`gamma`
    and cached, so a state that only meets :meth:`occupation_shift` never
    holds a ``2N x 2N`` array.  Construction checks ``0 <= n(q) <= 1`` to
    ``OCCUPATION_SLACK``, the tolerance :func:`correlation_from_mode_occupations`
    applies when it builds :attr:`gamma`, so a state that constructs also
    builds.  It is built from a grid and occupations only: the dense
    constructors :meth:`vacuum` and :meth:`from_correlation_matrix` belong to
    :class:`GaussianState`.
    """

    def __init__(self, grid: MomentumGrid, occupations: np.ndarray):
        n = np.array(occupations, dtype=float)
        if n.shape != (len(grid),):
            raise ValueError(f"occupations must have shape ({len(grid)},), got {n.shape}")
        if n.min() < -OCCUPATION_SLACK or n.max() > 1.0 + OCCUPATION_SLACK:
            raise InvariantViolation(
                f"mode occupations span [{n.min():.6g}, {n.max():.6g}], outside [0, 1]; "
                "state is unphysical"
            )
        n.setflags(write=False)
        self.lattice = grid.lattice
        self.grid = grid
        self.occupations = n
        self._gamma: Optional[np.ndarray] = None
        self._box: Optional[np.ndarray] = None

    @classmethod
    def vacuum(cls, lattice: Lattice) -> "GaussianState":
        """Not available: the dense vacuum is :meth:`GaussianState.vacuum`."""
        raise TypeError("ModeDiagonalState is built from a grid and occupations; "
                        "use GaussianState.vacuum")

    @classmethod
    def from_correlation_matrix(cls, lattice: Lattice, corr: np.ndarray,
                                *, validate: bool = True) -> "GaussianState":
        """Not available: see :meth:`GaussianState.from_correlation_matrix`."""
        raise TypeError("ModeDiagonalState is built from a grid and occupations; "
                        "use GaussianState.from_correlation_matrix")

    @property
    def gamma(self) -> np.ndarray:
        """The (read-only) covariance matrix, built on first use."""
        if self._gamma is None:
            self._gamma = self._build_gamma()
        return self._gamma

    def _build_gamma(self) -> np.ndarray:
        corr = correlation_from_mode_occupations(self.grid, self.occupations)
        return GaussianState.from_correlation_matrix(self.lattice, corr, validate=False).gamma

    def _conj_correlation_box(self) -> np.ndarray:
        """``conj C(r)`` on the box of :meth:`Lattice.displacement_box`, cached.

        On the box of period ``2L`` a grid momentum ``2 pi m / L`` is the
        integer frequency ``2m``, so this is one FFT of ``n(q)`` placed there.
        """
        if self._box is None:
            lat = self.lattice
            period = 2 * lat.length
            box = np.zeros((period,) * lat.dim)
            box[tuple((np.rint(2 * self.grid.m_vectors).astype(np.int64) % period).T)] = \
                self.occupations
            self._box = np.fft.fftn(box) / lat.n_sites
            self._box.setflags(write=False)
        return self._box

    def covariance_block(self, idx: np.ndarray) -> np.ndarray:
        """The covariance on a Majorana index set, gathered from ``C(r)``.

        Equals ``gamma[np.ix_(idx, idx)]`` without building :attr:`gamma`:
        ``Gamma`` is ``-2 Im C`` between equal flavors and ``+-(2 Re C - delta)``
        between flavors 1 and 2 (``-`` for a flavor-2 row), with ``C_xy = C(x - y)``.
        """
        idx = np.asarray(idx)
        lat = self.lattice
        sites, flavor = idx // 2, idx % 2
        coords = lat.coords[sites]
        disp = (coords[:, None, :] - coords[None, :, :]) % (2 * lat.length)
        corr = np.conj(self._conj_correlation_box()[tuple(np.moveaxis(disp, -1, 0))])
        cross = 2.0 * corr.real - (sites[:, None] == sites[None, :])
        sign = np.where(flavor[:, None] < flavor[None, :], 1.0, -1.0)
        return np.where(flavor[:, None] == flavor[None, :], -2.0 * corr.imag, sign * cross)

    def particle_number(self) -> float:
        """Total mean particle number, ``sum_q n(q)``."""
        return float(self.occupations.sum())

    def occupation_shift(self, drop, momenta: np.ndarray) -> np.ndarray:
        """``Re sum_{x,y} e^{i k.(x-y)} drop(x-y) [conj C_xy - delta_xy/2] / N`` per momentum.

        The change of ``<n_k>`` when every bilinear between two sites at
        displacement ``r`` is damped by ``1 - drop(r)``: the noise-induced
        error of ``n_k`` for the drop ``1 - lambda(r)``, and ``<n_k> - 1/2``
        for ``drop = 1``.  ``drop`` is a scalar or an array on the box of
        :meth:`Lattice.displacement_box`; ``momenta`` has one row per momentum.

        The pair sum is a sum over displacements weighted by their
        multiplicity ``prod_i (L - |r_i|)``.  On the box of period ``2L`` a
        grid momentum ``2 pi m / L`` is the integer frequency ``2m``, so
        ``conj C`` is one FFT of ``n(q)`` placed there, every momentum with
        ``k L / pi`` an integer is read off one more FFT of the summand, and
        other momenta take the direct ``O(N)`` sum.
        """
        lat = self.lattice
        momenta = np.asarray(momenta, dtype=float)
        if momenta.ndim != 2 or momenta.shape[1] != lat.dim:
            raise ValueError(f"momenta must have shape (n, {lat.dim}), got {momenta.shape}")
        period = 2 * lat.length
        axes = lat.displacement_box()
        summand = self._conj_correlation_box().copy()
        summand[(0,) * lat.dim] -= 0.5
        summand *= drop * math.prod(lat.length - np.abs(r) for r in axes) / lat.n_sites
        freq = momenta * (lat.length / np.pi)
        index = np.rint(freq)
        on_box = np.all(np.abs(freq - index) <= 1e-12 * np.maximum(1.0, np.abs(freq)), axis=1)
        out = np.empty(len(momenta))
        if on_box.any():
            table = np.fft.ifftn(summand, norm="forward")  # sum_r S(r) e^{2 pi i j.r / 2L}
            out[on_box] = table[tuple((index[on_box].astype(np.int64) % period).T)].real
        if not on_box.all():
            off = momenta[~on_box]
            phases = [np.exp(1j * np.multiply.outer(k, r.ravel())) for k, r in zip(off.T, axes)]
            vals = phases[0] @ summand.reshape(period, -1)
            if lat.dim == 2:
                vals = np.sum(vals * phases[1], axis=1)
            out[~on_box] = vals.reshape(-1).real
        return out

    def __repr__(self) -> str:
        return (f"ModeDiagonalState({self.lattice!r}, parity={self.grid.parity!r}, "
                f"N={self.particle_number():.4g})")


# ----------------------------------------------------------------------
# Mode-occupation (Fermi sea) states
# ----------------------------------------------------------------------


def free_dispersion(momenta: np.ndarray) -> np.ndarray:
    """Euclidean momentum magnitude, filling modes outward from k = 0."""
    return np.linalg.norm(np.atleast_2d(momenta), axis=1)


def tight_binding_dispersion(momenta: np.ndarray) -> np.ndarray:
    """Nearest-neighbor band energy ``-2 sum_i cos(k_i)`` (unit hopping)."""
    return -2.0 * np.cos(np.atleast_2d(momenta)).sum(axis=1)


def occupied_modes(grid: MomentumGrid, n_occ: int,
                   energies: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the ``n_occ`` lowest-energy modes of a momentum grid.

    Ties are broken lexicographically on the integer mode vector so the
    selection is deterministic.  ``energies`` defaults to the free dispersion
    ``|k|``.
    """
    n_modes = grid.momenta.shape[0]
    if not 0 <= n_occ <= n_modes:
        raise ValueError(f"n_occ must lie in [0, {n_modes}], got {n_occ}")
    if energies is None:
        energies = free_dispersion(grid.momenta)
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (n_modes,):
        raise ValueError(f"energies must have shape ({n_modes},), got {energies.shape}")
    dim = grid.m_vectors.shape[1]
    keys = tuple(grid.m_vectors[:, d] for d in reversed(range(dim))) + (energies,)
    order = np.lexsort(keys)
    return np.sort(order[:n_occ])


def correlation_from_mode_occupations(grid: MomentumGrid,
                                      occupations: np.ndarray) -> np.ndarray:
    """Two-point function of a mode-diagonal ensemble with fillings in [0, 1].

    ``C_xy = (1/N) sum_q n(q) e^{i q.(x - y)}``, summed over the modes with
    ``n(q) != 0`` (a half-filled sea costs what its filled modes cost); a
    sharp Fermi sea is the 0/1 case.
    """
    n = np.asarray(occupations, dtype=float)
    n_modes = grid.momenta.shape[0]
    if n.shape != (n_modes,):
        raise ValueError(f"occupations must have shape ({n_modes},), got {n.shape}")
    if np.any(n < -OCCUPATION_SLACK) or np.any(n > 1 + OCCUPATION_SLACK):
        raise ValueError("mode occupations must lie in [0, 1]")
    lat = grid.lattice
    filled = np.flatnonzero(n)
    phases = lat.coords @ grid.momenta[filled].T
    phi = np.exp(1j * phases) / np.sqrt(lat.n_sites)
    return (phi * n[filled]) @ np.conj(phi).T


def fermi_sea(grid: MomentumGrid, n_occ: int,
              energies: Optional[np.ndarray] = None,
              dispersion: Optional[Callable[[np.ndarray], np.ndarray]] = None,
              ) -> Tuple[ModeDiagonalState, np.ndarray]:
    """Ground state filling the ``n_occ`` lowest modes; returns (state, occupied).

    ``dispersion`` maps the (n_modes, dim) momentum array to energies and is
    a convenience alternative to passing ``energies`` directly.
    """
    if energies is not None and dispersion is not None:
        raise ValueError("pass either energies or dispersion, not both")
    if dispersion is not None:
        energies = dispersion(grid.momenta)
    occ = occupied_modes(grid, n_occ, energies)
    occupations = np.zeros(len(grid))
    occupations[occ] = 1.0
    return ModeDiagonalState(grid, occupations), occ


def fermi_sea_1d(lattice: Lattice, n_occ: int,
                 ) -> Tuple[ModeDiagonalState, MomentumGrid, np.ndarray]:
    """1D free-fermion ground state with ``n_occ`` particles.

    The momentum grid parity follows the particle number so that the lowest
    ``|k|`` modes fill symmetrically; returns (state, grid, occupied).
    """
    if lattice.dim != 1:
        raise ValueError(f"expected a 1D lattice, got dim={lattice.dim}")
    grid = momentum_grid(lattice, parity_of(n_occ))
    state, occ = fermi_sea(grid, n_occ, dispersion=free_dispersion)
    return state, grid, occ


def tight_binding_ground_state_2d(lattice: Lattice, n_occ: int,
                                  ) -> Tuple[ModeDiagonalState, MomentumGrid, np.ndarray]:
    """2D nearest-neighbour tight-binding ground state with ``n_occ`` particles."""
    if lattice.dim != 2:
        raise ValueError(f"expected a 2D lattice, got dim={lattice.dim}")
    grid = momentum_grid(lattice, parity_of(n_occ))
    state, occ = fermi_sea(grid, n_occ, dispersion=tight_binding_dispersion)
    return state, grid, occ


def momentum_occupation(state: GaussianState, k: Sequence[float]) -> float:
    """Expectation ``<n_k>`` of the plane-wave mode occupation at momentum k.

    A mode-diagonal state answers with the box sum of
    :meth:`ModeDiagonalState.occupation_shift` (``n(k)`` on its grid);
    any other state contracts its covariance with the dense observable.
    """
    if isinstance(state, ModeDiagonalState):
        k_vec = np.atleast_1d(np.asarray(k, dtype=float))
        return 0.5 + float(state.occupation_shift(1.0, k_vec[None, :])[0])
    return state.expectation(QuadraticObservable.momentum_occupation(state.lattice, k))


# ----------------------------------------------------------------------
# Synthetic states with controlled correlation decay
# ----------------------------------------------------------------------


def haar_rotations(normals: np.ndarray) -> np.ndarray:
    """Haar-random rotations in SO(n) from a stack of standard normal matrices.

    ``normals`` has shape ``(..., n, n)``.  QR of a standard Gaussian matrix
    with the columns of Q signed by ``diag(R)`` is Haar on O(n); flipping the
    first column when the determinant is negative maps that onto Haar on
    SO(n).  Each matrix of the stack gets the same QR, sign fix and
    determinant fix as it would alone.
    """
    q, r = np.linalg.qr(normals)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q


def haar_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ``n x n`` rotation in SO(n), drawn only from ``rng``.

    One ``standard_normal((n, n))`` draw through :func:`haar_rotations`; the
    stream is fixed by numpy's ``Generator`` alone.
    """
    return haar_rotations(rng.standard_normal((n, n)))


def random_pure_state(lattice: Lattice, rng: np.random.Generator) -> GaussianState:
    """Haar-random pure Gaussian state, ``Gamma = Q S Q^T`` with Q in SO(2N)."""
    n = lattice.n_majorana
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sigma = np.kron(np.eye(lattice.n_sites), block)
    q = haar_special_orthogonal(n, rng)
    return GaussianState(lattice, q @ sigma @ q.T, validate=False)


def power_law_mask(lattice: Lattice, mu: float) -> np.ndarray:
    """Positive-semidefinite Schur mask decaying as ``(1 + d)^{-mu}``.

    Off-diagonal entries are scaled so each row sums (off the diagonal) to at
    most 0.9, making the mask diagonally dominant with unit diagonal; Schur
    multiplication by it therefore cannot push a covariance past norm 1.
    """
    if mu <= 0:
        raise ValueError(f"decay exponent must be positive, got {mu}")
    d = lattice.distance_matrix().astype(float)
    decay = (1.0 + d) ** (-mu)
    row_offdiag = decay.sum(axis=1).max() - 1.0
    scale = min(1.0, 0.9 / row_offdiag) if row_offdiag > 0 else 1.0
    mask = scale * decay
    np.fill_diagonal(mask, 1.0)
    return np.repeat(np.repeat(mask, 2, axis=0), 2, axis=1)


def damped_random_state(lattice: Lattice, mu: float,
                        rng: np.random.Generator) -> GaussianState:
    """Random state whose correlations decay at least as ``(1 + d)^{-mu}``."""
    pure = random_pure_state(lattice, rng)
    gamma = pure.gamma * power_law_mask(lattice, mu)
    return GaussianState(lattice, gamma, validate=False)


def decay_constant(state: GaussianState, mu: float) -> float:
    """Smallest K with ``|Gamma_ab| <= K (1 + d(a, b))^{-mu}`` for all pairs."""
    lat = state.lattice
    d = np.repeat(np.repeat(lat.distance_matrix(), 2, axis=0), 2, axis=1).astype(float)
    ratio = np.abs(state.gamma) * (1.0 + d) ** mu
    return float(ratio.max())


def _offdiagonal_decay_sum(dim: int, mu: float) -> float:
    """Infinite-lattice sum of ``(1 + |s|_1)^{-mu}`` over nonzero sites.

    There are 2 sites (dim 1) or 4d sites (dim 2) at taxicab distance d, so
    the sum telescopes into Riemann zeta values.
    """
    if mu <= dim:
        raise ValueError(f"need mu > dim for a convergent sum, got mu={mu}, dim={dim}")
    if dim == 1:
        return float(2.0 * (riemann_zeta(mu) - 1.0))
    return float(4.0 * (riemann_zeta(mu - 1.0) - riemann_zeta(mu)))


def circulant_power_law_state(lattice: Lattice, mu: float
                              ) -> Tuple[ModeDiagonalState, float]:
    """Translation-invariant state with an exact power-law covariance envelope.

    The two-point function is real circulant: ``C(x, y) = 1/2`` on the
    diagonal and ``A (1 + d(x, y))^{-mu}`` off it, with A normalized against
    the infinite-lattice sum so every mode occupation stays in
    ``[0.05, 0.95]`` on any torus size.  The state is mode-diagonal on the
    periodic grid (L even): ``n(q)`` is one FFT of that profile over the
    displacements of the torus.  Returns the state and the exact decay
    constant ``K = 2 A`` of its covariance matrix.
    """
    amp = 0.45 / _offdiagonal_decay_sum(lattice.dim, mu)
    length = lattice.length
    r = np.arange(length)
    dist = sum(np.minimum(r, length - r).reshape((-1,) + (1,) * (lattice.dim - 1 - i))
               for i in range(lattice.dim))
    profile = amp * (1.0 + dist) ** (-mu)
    profile[(0,) * lattice.dim] = 0.5
    grid = momentum_grid(lattice, "odd")
    n_q = np.fft.fftn(profile).real
    occupations = n_q[tuple((grid.m_vectors.astype(np.int64) % length).T)]
    return ModeDiagonalState(grid, occupations), 2.0 * amp
