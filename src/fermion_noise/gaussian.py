"""Translation-invariant fermionic Gaussian states, in Majorana covariance form.

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
site occupation, 4 x 4 for a hopping).  An expectation reads the covariance
on ``S`` alone, through the state's ``covariance_block``.

The one state class is :class:`ModeDiagonalState` (every Fermi sea, the
scaling probes, the circulant power-law state): the momentum grid with the
occupations ``n(q)`` or with ``C(r)`` on the ``L^D`` torus.  Either is one
FFT of the other (with a half-period twist on the antiperiodic grid) and is
computed only when read: a Fermi sea is built from its ``n(q)``, the
circulant state from its exact ``C(r)``
(:meth:`ModeDiagonalState.from_correlation`), so a circuit on it loads no
``numpy.fft``.  The covariance on an index set is gathered from ``C(r)``, and
``<n_k>`` and noise-induced ``n_k`` errors for a whole grid are read off
one more ``L^D`` FFT of the drops, summed onto the same torus by the
encoding (:meth:`ModeDiagonalState.occupation_shift`,
:meth:`Lattice.torus_sum`).  No package path reads the whole covariance.
The dense references live with the tests: a state held as its whole
``2N x 2N`` covariance (from a correlation matrix, Haar-random or
power-law damped), an observable's ``(2N, 2N)`` coefficient matrix and the
dense plane-wave occupation.  Measurements and circuits read any state
through :class:`CovarianceBlocks`, so those dense states reach them too.

Besides those, the module provides a synthetic family used to probe
correlation-decay premises: a translation-invariant circulant state with an
exactly known power-law envelope, held as that envelope.  Haar rotations
serve the circuits' gates.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Optional, Protocol, Tuple

import numpy as np

from .errors import InvariantViolation
from .lattice import Lattice, MomentumGrid, momentum_grid, parity_of
from .special import riemann_zeta

# How far a mode occupation may leave [0, 1] by rounding.
OCCUPATION_SLACK = 1e-12


def _check_occupations(n: np.ndarray) -> None:
    """``InvariantViolation`` unless every ``n(q)`` lies in ``[0, 1]`` to ``OCCUPATION_SLACK``."""
    if not (n.min() >= -OCCUPATION_SLACK and n.max() <= 1.0 + OCCUPATION_SLACK):  # NaN too
        raise InvariantViolation(
            f"mode occupations span [{n.min():.6g}, {n.max():.6g}], outside [0, 1]; "
            "state is unphysical"
        )


class QuadraticObservable:
    """Observable ``offset + sum_ab O_ab Gamma_ab`` with O real antisymmetric.

    Held on its support: the Majorana indices ``S`` outside of which ``O``
    is zero, and the ``S x S`` block.

    Parameters
    ----------
    lattice : Lattice
        Lattice fixing the Majorana index space (2 * n_sites).
    coefficients : ndarray
        Real antisymmetric block of ``O`` on the support.
    offset : float, optional
        Scalar part of the expectation value.
    support : array of int
        Distinct Majorana indices of the block.
    """

    def __init__(self, lattice: Lattice, coefficients: np.ndarray, offset: float = 0.0,
                 *, support: np.ndarray, validate: bool = True):
        block = np.array(coefficients, dtype=float)
        n = lattice.n_majorana
        support = np.array(support, dtype=np.int64)
        if support.ndim != 1 or block.shape != (len(support),) * 2:
            raise ValueError(f"block of shape {block.shape} does not match "
                             f"{len(support)} support indices")
        ordered = np.sort(support)
        if support.size and (ordered[0] < 0 or ordered[-1] >= n
                             or np.any(ordered[1:] == ordered[:-1])):
            raise ValueError(f"support must be distinct Majorana indices in [0, {n})")
        if validate and not np.allclose(block, -block.T, atol=1e-12):
            raise ValueError("coefficient matrix must be antisymmetric")
        support.setflags(write=False)
        block.setflags(write=False)
        self.lattice = lattice
        self.support = support
        self.block = block
        self.offset = float(offset)

    @classmethod
    def number(cls, lattice: Lattice, site: int) -> "QuadraticObservable":
        """Occupation ``n_x = c_x^dag c_x`` of a single site."""
        site = operator.index(site)
        if not 0 <= site < lattice.n_sites:
            raise IndexError(f"site {site} outside [0, {lattice.n_sites})")
        return cls(lattice, [[0.0, 0.25], [-0.25, 0.0]], offset=0.5,
                   support=[2 * site, 2 * site + 1], validate=False)

    @classmethod
    def hopping(cls, lattice: Lattice, site_a: int, site_b: int) -> "QuadraticObservable":
        """Hermitian hopping ``c_a^dag c_b + c_b^dag c_a`` between two sites."""
        site_a, site_b = operator.index(site_a), operator.index(site_b)
        n_sites = lattice.n_sites
        if not (0 <= site_a < n_sites and 0 <= site_b < n_sites):
            raise IndexError(f"sites ({site_a}, {site_b}) outside [0, {n_sites})")
        if site_a == site_b:
            raise ValueError("hopping requires two distinct sites")
        support = np.sort([2 * site_a, 2 * site_a + 1, 2 * site_b, 2 * site_b + 1])
        # 1/4 at the support's (2a, 2b + 1) and (2b, 2a + 1): the same block either site order
        block = [[0, 0, 0, 0.25], [0, 0, -0.25, 0], [0, 0.25, 0, 0], [-0.25, 0, 0, 0]]
        return cls(lattice, block, support=support, validate=False)

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self.block))
        return f"QuadraticObservable(offset={self.offset}, nnz={nnz})"


class CovarianceBlocks(Protocol):
    """What a measurement or a circuit reads of a state: its covariance on index sets.

    :class:`ModeDiagonalState` is one; the tests' dense states are others.
    """

    lattice: Lattice

    def covariance_block(self, idx: np.ndarray) -> np.ndarray: ...


class ModeDiagonalState:
    """Translation-invariant state diagonal in the plane waves of a momentum grid.

    Held as the grid and the mode occupations ``n(q)``, or the grid and the
    correlation torus (:meth:`from_correlation`); the two-point function is
    ``C_xy = C(x - y)`` with ``C(r) = (1/N) sum_q n(q) e^{i q.r}``, kept as
    ``conj C(r)`` on the ``L^D`` torus, periodic on the periodic grid and
    antiperiodic on the other.  Each of ``n(q)`` and the torus is one
    ``L^D`` FFT of the other, taken when first read.  The covariance on an
    index set is gathered from the torus, and noise-induced ``n_k`` errors
    are the drops on the torus weighted by ``C(r)`` (:meth:`occupation_shift`)
    for every encoding, mode and mix.  Construction checks
    ``0 <= n(q) <= 1`` to ``OCCUPATION_SLACK``, which a NaN occupation fails
    too.
    """

    def __init__(self, grid: MomentumGrid, occupations: np.ndarray):
        n = np.array(occupations, dtype=float)
        if n.shape != (len(grid),):
            raise ValueError(f"occupations must have shape ({len(grid)},), got {n.shape}")
        _check_occupations(n)
        n.setflags(write=False)
        self._set_grid(grid)
        self.occupations = n

    @classmethod
    def from_correlation(cls, grid: MomentumGrid, conj_corr: np.ndarray) -> "ModeDiagonalState":
        """The state whose ``conj C(r)`` on the ``L^D`` torus is ``conj_corr``.

        ``conj_corr`` is laid out as :attr:`_conj_correlation` and kept as
        the state's torus, so a state that knows its ``C(r)`` exactly (the
        circulant power-law state) pays no FFT for it; ``n(q)`` is read off
        the torus when first asked for (:attr:`occupations`).  The check of
        ``0 <= n(q) <= 1`` is the constructor's, made first by the triangle
        bound ``|n(q) - C(0)| <= sum_{r != 0} |C(r)|`` in ``O(N)``, and on
        ``n(q)`` itself only when that bound leaves ``[0, 1]``.
        """
        lat = grid.lattice
        torus = np.array(conj_corr, dtype=complex)
        if torus.shape != (lat.length,) * lat.dim:
            raise ValueError(f"a correlation torus must have shape {(lat.length,) * lat.dim}, "
                             f"got {torus.shape}")
        torus.setflags(write=False)
        state = cls.__new__(cls)
        state._set_grid(grid)
        state._conj_correlation = torus
        origin = torus[(0,) * lat.dim]
        spread = float(np.abs(torus).sum()) - abs(origin)
        if not (origin.real - spread >= -OCCUPATION_SLACK
                and origin.real + spread <= 1.0 + OCCUPATION_SLACK):  # NaN too
            _check_occupations(state.occupations)
        return state

    def _set_grid(self, grid: MomentumGrid) -> None:
        self.lattice = grid.lattice
        self.grid = grid
        self._half = grid.parity == "even"  # half-integer modes, an antiperiodic C(r)

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        """``n(q)`` in grid order, read-only: given, or read off the correlation torus.

        A state built by :meth:`from_correlation` reads
        ``n(q) = Re sum_r conj C(r) e^{i q.r}``, one inverse ``L^D`` FFT with
        the half-period twist on the antiperiodic grid
        (:meth:`Lattice.torus_sum`), the exact inverse of
        :attr:`_conj_correlation`.
        """
        lat = self.lattice
        table = lat.torus_sum(self._conj_correlation.copy(), (self._half,) * lat.dim)
        n = self.grid._roll(table).ravel()
        n.setflags(write=False)
        return n

    @functools.cached_property
    def _conj_correlation(self) -> np.ndarray:
        """``conj C(r)`` for ``r`` in ``[0, L)^D``, the ``L^D`` torus, read-only.

        A grid momentum is ``2 pi (n + h) / L`` per axis, ``n`` an integer and
        ``h`` 0 on the periodic grid or 1/2 on the antiperiodic one, so this is
        one ``L^D`` FFT of ``n(q)`` placed at ``n mod L`` (by the grid's
        half-period roll), times the half-period twist ``e^{-i pi r / L}`` per
        axis when ``h = 1/2``.  ``C(r - L) = C(r)`` per axis on the periodic
        grid and ``-C(r)`` on the antiperiodic one.  A state built by
        :meth:`from_correlation` holds it from the start.
        """
        lat = self.lattice
        torus = np.fft.fftn(self.grid._roll(self.occupations),
                            out=np.empty((lat.length,) * lat.dim, dtype=complex))
        if self._half:
            for axis in range(lat.dim):
                torus *= lat.half_twist(axis, -1)
        torus /= lat.n_sites
        torus.setflags(write=False)
        return torus

    def covariance_block(self, idx: np.ndarray) -> np.ndarray:
        """The covariance on a Majorana index set, gathered from ``C(r)``.

        ``Gamma[np.ix_(idx, idx)]`` of the whole covariance, which is never
        built: with ``C_xy = <c_x^dag c_y> = C(x - y)`` on the sites of ``idx``, read
        off the torus at ``x - y mod L`` (negated when it wraps on an odd
        number of axes of the antiperiodic grid), ``Gamma`` is ``-2 Im C``
        between equal flavors and ``+-(2 Re C - delta_xy)`` between flavors 1
        and 2 (``-`` for a flavor-2 row).
        """
        sites, flavor = np.divmod(self.lattice._majoranas(idx), 2)
        index, wraps = self.lattice.torus_index(sites)
        corr = self._conj_correlation.ravel()[index]
        np.conj(corr, out=corr)
        if self._half:
            np.negative(corr, out=corr, where=wraps)
        gamma = 2.0 * corr.real
        gamma -= sites[:, None] == sites[None, :]
        np.negative(gamma, out=gamma, where=flavor[:, None] > flavor[None, :])
        np.multiply(corr.imag, -2.0, out=gamma, where=flavor[:, None] == flavor[None, :])
        return gamma

    def expectation(self, obs: QuadraticObservable) -> float:
        """Expectation value of a quadratic observable, read on its support."""
        return obs.offset + float(np.sum(obs.block * self.covariance_block(obs.support)))

    def particle_number(self) -> float:
        """Total mean particle number, ``sum_q n(q)``."""
        return float(self.occupations.sum())

    def occupation_shift(self, drops: Callable[[Tuple[int, ...]], Tuple[np.ndarray, np.ndarray]],
                         momenta: np.ndarray) -> np.ndarray:
        """``Re sum_r e^{i k.r} [cross(r) (Re C(r) - delta_r0/2) - i same(r) Im C(r)] / N``.

        The change of ``<n_k>``, per row ``k`` of ``momenta``, when bilinears
        are damped by ``1 - drop``.  ``drops(signs)`` gives ``same`` and
        ``cross`` on the ``L^D`` torus: at slot ``t``, the drops of the
        equal-flavor and of the cross-flavor bilinears summed over the site
        pairs at displacement ``t`` and at ``t - L`` per axis, the latter taken
        with ``signs[i]`` on axis ``i``, each the mean of its two flavor pairs.
        Since the covariance blocks are ``G00 = G11 = -2 Im C(r)`` and
        ``G01 = -G10 = 2 Re C(r) - delta``, no other pair sum is needed.  With
        the drops ``1 - lambda`` (:meth:`EncodingWeightModel.drop_torus`) this
        is the noise-induced error of ``n_k``; with the pair counts
        (:meth:`Lattice.pair_counts`, every drop 1) it is ``<n_k> - 1/2``.

        On an axis where ``k`` has the state's grid parity, ``e^{i k.r} C(r)``
        has period ``L``, so ``t - L`` folds onto ``t`` with sign ``+1``; where
        it has the other parity (``fermi1d``'s ``q0``), the product changes
        sign after ``L`` and the sign is ``-1``.  Each class of momenta
        (:meth:`Lattice.frequency_classes`, which refuses a momentum off every
        grid) is then one ``L^D`` FFT (:meth:`Lattice.torus_sum`); ``momenta``
        that are the state's own ``grid.momenta`` array are one class, read
        back in grid order by the grid's roll (:meth:`MomentumGrid._roll`).
        """
        lat = self.lattice
        if momenta is self.grid.momenta:
            table = lat.torus_sum(self._summand(*drops((1,) * lat.dim)), (self._half,) * lat.dim)
            return self.grid._roll(table).ravel()
        out = np.empty(len(momenta))
        for rows, odd, index in lat.frequency_classes(momenta):
            signs = tuple(1 if o == self._half else -1 for o in odd)
            out[rows] = lat.torus_sum(self._summand(*drops(signs)), odd, index)
        return out

    def _summand(self, same: np.ndarray, cross: np.ndarray) -> np.ndarray:
        """``cross (Re C - delta_r0/2) - i same Im C``, over ``N``, built in one complex torus."""
        corr, origin, n = self._conj_correlation, (0,) * self.lattice.dim, self.lattice.n_sites
        summand = np.empty_like(corr)
        np.divide(cross, n, out=summand.real)
        np.divide(same, n, out=summand.imag)
        at_origin = summand.real[origin]
        summand.real *= corr.real
        summand.imag *= corr.imag
        summand.real[origin] = (corr.real[origin] - 0.5) * at_origin
        return summand

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


def _check_filling(grid: MomentumGrid, n_occ: int) -> None:
    if not 0 <= n_occ <= len(grid):
        raise ValueError(f"n_occ must lie in [0, {len(grid)}], got {n_occ}")


def _fill_order(grid: MomentumGrid, energies: np.ndarray) -> np.ndarray:
    """Every mode, lowest energy first, ties broken lexicographically on the mode vector.

    The mode vector ``m`` is the site's coordinates shifted by a constant, so
    a stable sort of the sites ordered by ``x``, then ``y``, breaks the ties.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (len(grid),):
        raise ValueError(f"energies must have shape ({len(grid)},), got {energies.shape}")
    lat = grid.lattice
    sites = np.arange(lat.n_sites).reshape((lat.length,) * lat.dim).T.ravel()
    return sites[np.argsort(energies[sites], kind="stable")]


def occupied_modes(grid: MomentumGrid, n_occ: int,
                   energies: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the ``n_occ`` lowest-energy modes of a momentum grid.

    Ties are broken lexicographically on the integer mode vector so the
    selection is deterministic.  ``energies`` defaults to the free dispersion
    ``|k|``.
    """
    _check_filling(grid, n_occ)
    if energies is None:
        energies = free_dispersion(grid.momenta)
    return np.sort(_fill_order(grid, energies)[:n_occ])


def fermi_sea(grid: MomentumGrid, n_occ: int,
              dispersion: Callable[[np.ndarray], np.ndarray] = free_dispersion,
              ) -> Tuple[ModeDiagonalState, np.ndarray]:
    """Ground state filling the ``n_occ`` lowest modes; returns (state, occupied).

    ``dispersion`` maps the (n_modes, dim) momentum array to energies.  The
    modes of :func:`occupied_modes` are the first ``n_occ`` of one fill
    order, which is sorted once per grid and dispersion and kept on the
    grid (int32), so the fillings of one grid cut the same order.
    """
    _check_filling(grid, n_occ)
    orders = grid._fill_orders
    if dispersion not in orders:
        orders[dispersion] = _fill_order(grid, dispersion(grid.momenta)).astype(np.int32)
        orders[dispersion].setflags(write=False)
    occ = np.sort(orders[dispersion][:n_occ])
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
    state, occ = fermi_sea(grid, n_occ)
    return state, grid, occ


def momentum_occupation(state: ModeDiagonalState, momenta: np.ndarray) -> np.ndarray:
    """``<n_k>`` of the plane-wave mode occupation for each row ``k`` of ``momenta``.

    :meth:`ModeDiagonalState.occupation_shift` with every drop 1: the pair
    counts on the state's torus (:meth:`Lattice.pair_counts`; ``n(k)`` on its
    grid).
    """
    def pairs(signs):
        count = math.prod(state.lattice.pair_counts(signs))
        return count, count

    return 0.5 + state.occupation_shift(pairs, np.atleast_2d(momenta))


# ----------------------------------------------------------------------
# Haar rotations and the circulant power-law state
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
    periodic grid and is built from that profile over the displacements of
    the torus, its exact ``C(r)`` (:meth:`ModeDiagonalState.from_correlation`,
    whose triangle bound is the normalization of A); ``n(q)``, one FFT of
    the profile, is taken only if read.  Returns the state and the exact
    decay constant ``K = 2 A`` of its covariance matrix.
    """
    amp = 0.45 / _offdiagonal_decay_sum(lattice.dim, mu)
    length = lattice.length
    r = np.arange(length)
    dist = sum(lattice._wrap(r.reshape((-1,) + (1,) * (lattice.dim - 1 - i)))
               for i in range(lattice.dim))
    profile = amp * (1.0 + dist) ** (-mu)
    profile[(0,) * lattice.dim] = 0.5
    return ModeDiagonalState.from_correlation(momentum_grid(lattice, "odd"), profile), 2.0 * amp
