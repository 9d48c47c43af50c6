"""Periodic lattice geometry, momentum grids, and Majorana indexing.

The lattices are D-dimensional tori of ``L**D`` sites with D in {1, 2}.  Sites
carry two Majorana flavors each, indexed as ``a = 2 * site + (flavor - 1)``
with flavor 1 for ``c^dag + c`` and flavor 2 for ``i (c^dag - c)``.  The
site layout is one formula, :meth:`Lattice._coords_of` on the sites a
caller needs, inverted by :meth:`Lattice.site_index`; the one torus metric
is :meth:`Lattice.pair_distances` on a set of sites, and two sites are the
set's ``[0, 1]`` entry.  Neither builds the table of all sites.

Momentum grids follow the free-fermion quantization on a ring of even length
L: states with an odd particle number use periodic boundary conditions
(integer mode numbers m in {-L/2, ..., L/2 - 1}), states with an even particle
number use antiperiodic ones (half-integer m in {-L/2 + 1/2, ..., L/2 - 1/2}),
with momenta ``k = 2 pi m / L`` per axis.  A :class:`MomentumGrid` holds
its lattice, parity and momenta; mode ``i`` has ``m = x - L/2`` per axis of
its site's coordinates ``x`` (plus 1/2 on the antiperiodic grid), so a
mode's torus slot ``floor(m) mod L`` is a half-period roll of grid order
(:meth:`MomentumGrid._roll`), and no table of slots or coordinates is kept.

The half-period twist is a ``functools.cached_property`` of the lattice,
built on first use and then kept; the dense :meth:`Lattice.distance_matrix`
of tests and benchmarks keeps its own attribute.

Momentum sums run on the ``L^D`` torus, the one geometry of pair sums.  A
pair displacement ``r`` lies in ``(-L, L)`` per axis, and slot ``t`` of the
torus collects ``r = t`` and ``r = t - L``.  A momentum of either parity of
grid is ``k = pi f / L`` with ``f`` an integer on every axis, even on the
periodic grid and odd on the antiperiodic one, so ``e^{i k.r}`` has period
``L`` (``f`` even) or is ``-1`` times itself after ``L`` (``f`` odd).
Every pair sum is therefore folded as it is summed, the ``t - L`` pairs
taken with one sign per axis (their signed count is
:meth:`Lattice.pair_counts`), and the sum for every momentum of a grid is
read off one ``L^D`` FFT, with a half-period twist on the antiperiodic grid
(:meth:`Lattice.torus_sum`), and back into grid order by the roll.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

Coords = Union[int, Sequence[int]]


class Lattice:
    """A periodic hypercubic lattice with two Majorana flavors per site.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    length : int
        Linear size L; the lattice has ``L**dim`` sites.

    Notes
    -----
    Sites are flattened with the first coordinate varying fastest, so in 2D
    the flat index of ``(x, y)`` is ``x + L * y`` and row ``y`` occupies the
    contiguous block ``[y * L, (y + 1) * L)``.
    """

    def __init__(self, dim: int, length: int):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim!r}")
        if int(length) != length or length < 1:
            raise ValueError(f"length must be an integer >= 1, got {length!r}")
        self.dim = int(dim)
        self.length = int(length)
        self.n_sites = self.length ** self.dim
        self.n_majorana = 2 * self.n_sites
        self._distance_matrix = None

    # ------------------------------------------------------------------
    # site indexing
    # ------------------------------------------------------------------

    def site_index(self, r: Coords) -> int:
        """Flat index of the site with coordinates ``r``, the inverse of :meth:`_coords_of`."""
        arr = np.atleast_1d(np.asarray(r))
        if arr.shape != (self.dim,):
            raise ValueError(f"coordinate {r!r} does not match lattice dimension {self.dim}")
        if arr.dtype.kind not in "iu":  # numpy integers too, but no float is truncated
            raise TypeError(f"coordinate {r!r} must have integer entries")
        arr = arr.astype(np.int64)
        if np.any(arr < 0) or np.any(arr >= self.length):
            raise IndexError(f"coordinate {r!r} outside lattice of size {self.length}")
        return int(arr @ self.length ** np.arange(self.dim))

    def _majoranas(self, idx) -> np.ndarray:
        """``idx`` as an array of Majorana indices, checked to lie in ``[0, 2N)``."""
        idx = np.asarray(idx)
        if idx.size and not (0 <= idx.min() and idx.max() < self.n_majorana):
            raise IndexError(f"Majorana indices {idx.min()}..{idx.max()} "
                             f"outside [0, {self.n_majorana})")
        return idx

    def _coords_of(self, sites: np.ndarray) -> np.ndarray:
        """Array of shape (len(sites), dim) with the coordinates of the given sites."""
        sites = np.asarray(sites, dtype=np.int64)
        if sites.size and not (0 <= sites.min() and sites.max() < self.n_sites):
            raise IndexError(f"sites {sites.min()}..{sites.max()} outside [0, {self.n_sites})")
        coords = np.empty(sites.shape + (self.dim,), dtype=np.int64)
        for j in range(self.dim):
            np.remainder(sites // self.length ** j, self.length, out=coords[..., j])
        return coords

    def _snake_of(self, sites: np.ndarray) -> np.ndarray:
        """Snake index ``y L + (x if y even else L - 1 - x)`` of the given sites (2D only)."""
        x, y = self._coords_of(sites).T
        return y * self.length + np.where(y % 2 == 0, x, self.length - 1 - x)

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------

    def _wrap(self, r: np.ndarray) -> np.ndarray:
        """Torus distance ``min(|r|, L - |r|)`` of displacements ``r`` along one axis each."""
        r = np.abs(r)
        return np.minimum(r, self.length - r, out=r)

    def pair_distances(self, sites: np.ndarray) -> np.ndarray:
        """(len(sites), len(sites)) torus (L1) distances between the given sites, axis by axis."""
        return sum(self._wrap(np.subtract.outer(x, x)) for x in self._coords_of(sites).T)

    def distance_matrix(self) -> np.ndarray:
        """(n_sites, n_sites) matrix of pairwise torus distances, cached."""
        if self._distance_matrix is None:
            self._distance_matrix = self.pair_distances(np.arange(self.n_sites))
            self._distance_matrix.setflags(write=False)
        return self._distance_matrix

    def pair_counts(self, signs: Sequence[int]) -> List[Union[int, np.ndarray]]:
        """Per-axis factors of the signed number of site pairs at each torus slot.

        Along axis ``i``, slot ``t`` holds the ``L - t`` pairs at ``t`` and the
        ``t`` pairs at ``t - L``, the latter taken with ``signs[i]``: the factor
        is the number ``L`` where the sign is ``+1`` and the array ``L - 2t``
        where it is ``-1``.  They broadcast against each other and against a
        torus array.
        """
        return [self.length if sign > 0 else np.arange(self.length, -self.length, -2.0)
                .reshape((-1,) + (1,) * (self.dim - 1 - axis)) for axis, sign in enumerate(signs)]

    def torus_index(self, sites: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flat index into a raveled torus array of ``x_s - x_t mod L``, all pairs of ``sites``.

        Also whether the displacement wraps on an odd number of axes
        (``x_s - x_t < 0`` there), where an antiperiodic function changes sign.
        """
        index, wraps = 0, False
        for x in self._coords_of(sites).T:
            r = np.subtract.outer(x, x)
            index = index * self.length + r % self.length
            wraps = wraps ^ (r < 0)
        return index, wraps

    @functools.cached_property
    def _twist(self) -> np.ndarray:
        """``e^{i pi j / L}`` for ``j`` in ``[0, L)``, the half-period twist table."""
        return np.exp(1j * np.pi / self.length * np.arange(self.length))

    def half_twist(self, axis: int, sign: int = 1) -> np.ndarray:
        """``e^{i sign pi j / L}`` for ``j`` in ``[0, L)`` along ``axis`` of a torus array."""
        twist = self._twist if sign > 0 else self._twist.conj()
        return twist.reshape((-1,) + (1,) * (self.dim - 1 - axis))

    def torus_sum(self, torus: np.ndarray, odd: Sequence[bool]) -> np.ndarray:
        """``Re sum_j torus[j] e^{i pi f.j / L}`` with ``f = 2 n + odd``, one ``L^D`` FFT.

        The whole ``(L,) * D`` table, ``n`` in ``[0, L)`` per axis; the axes
        where ``odd`` is true take the half-period twist ``e^{i pi j / L}``.
        ``torus``, a complex array, is twisted and transformed in place.
        """
        for axis in range(self.dim):
            if odd[axis]:
                torus *= self.half_twist(axis)
        table = np.fft.ifftn(torus, norm="forward", out=torus)  # sum_j torus(j) e^{2 pi i n.j / L}
        return table.real

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lattice) and (self.dim, self.length) == (other.dim, other.length)

    def __hash__(self) -> int:
        return hash((self.dim, self.length))

    def __repr__(self) -> str:
        return f"Lattice(dim={self.dim}, length={self.length})"


# ----------------------------------------------------------------------
# snake (boustrophedon) ordering for 2D Jordan-Wigner
# ----------------------------------------------------------------------


def snake_index_vector(lat: Lattice) -> np.ndarray:
    """Boustrophedon (snake) index of every site, ordered by flat site index.

    Row ``y`` is traversed left-to-right when ``y`` is even and right-to-left
    when ``y`` is odd, so consecutive indices are always nearest neighbors:
    ``index(x, y) = y * L + (x if y even else L - 1 - x)``, which
    :meth:`Lattice._snake_of` gives for any set of sites.
    """
    if lat.dim != 2:
        raise ValueError("snake ordering is defined for 2D lattices only")
    return lat._snake_of(np.arange(lat.n_sites))


# ----------------------------------------------------------------------
# momentum grids
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGrid:
    """Momentum quantization grid of a finite torus: its lattice, parity and momenta.

    Attributes
    ----------
    lattice : Lattice
        The underlying real-space lattice (L must be even).
    parity : str
        ``"odd"`` (periodic, integer modes) or ``"even"`` (antiperiodic,
        half-integer modes), referring to the particle-number parity.
    momenta : np.ndarray
        (n_sites, dim) momenta ``2 pi m / L`` componentwise in [-pi, pi),
        first axis varying fastest: mode ``i`` has ``m = x - L/2`` per axis
        of its site's coordinates ``x``, plus 1/2 on the antiperiodic grid.

    A mode sits on the ``L^D`` torus at ``floor(m) mod L``, a half-period
    roll of grid order (:meth:`_roll`); the fill order of each dispersion
    (:func:`fermion_noise.gaussian.fermi_sea`) is kept in a dict by
    dispersion.
    """

    lattice: Lattice
    parity: str
    momenta: np.ndarray = field(repr=False, compare=False)  # fixed by the lattice and parity
    _fill_orders: Dict[object, np.ndarray] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __len__(self) -> int:
        return self.momenta.shape[0]

    def _roll(self, values: np.ndarray) -> np.ndarray:
        """One value per mode from grid order onto the ``L^D`` torus, or back: ``(L,) * D``.

        Mode ``i`` sits at ``floor(m) mod L = (x + L/2) mod L`` per axis, the
        slot ``n`` of :meth:`Lattice.torus_sum`'s table on either parity of
        grid: the grid-order array, its axes reversed (sites run with ``x``
        fastest), rolled by ``L/2`` on every axis, which for even ``L`` is its
        own inverse.  The roll swaps the two halves of every axis, copied in
        one pass into a C-ordered array, so its ``ravel`` is a view.
        """
        lat = self.lattice
        values = values.reshape((lat.length,) * lat.dim).T
        rolled = np.empty(values.shape, values.dtype)
        halves = (slice(lat.length // 2), slice(lat.length // 2, None))
        for corner in itertools.product((0, 1), repeat=lat.dim):
            rolled[tuple(halves[i] for i in corner)] = values[tuple(halves[1 - i] for i in corner)]
        return rolled


def momentum_grid(lat: Lattice, occupation_parity: str) -> MomentumGrid:
    """Momentum grid matched to the parity of the particle number.

    Parameters
    ----------
    lat : Lattice
        Lattice with even linear size.
    occupation_parity : str
        ``"odd"`` for periodic quantization (integer m, includes k = 0),
        ``"even"`` for antiperiodic quantization (half-integer m).

    Returns
    -------
    MomentumGrid
    """
    if lat.length % 2 != 0:
        raise ValueError(f"momentum grids require even L, got L={lat.length}")
    if occupation_parity not in ("odd", "even"):
        raise ValueError(
            f"occupation_parity must be 'odd' or 'even', got {occupation_parity!r}"
        )
    half = lat.length // 2
    m = np.arange(-half, half, dtype=np.float64) + (0.5 if occupation_parity == "even" else 0.0)
    k = np.stack(np.meshgrid(*(2.0 * np.pi * m / lat.length,) * lat.dim, copy=False),
                 axis=-1).reshape(-1, lat.dim)  # meshgrid's "xy" order: x fastest, as sites run
    k.setflags(write=False)
    return MomentumGrid(lattice=lat, parity=occupation_parity, momenta=k)


def parity_of(n_occ: int) -> str:
    """Particle-number parity string for a given occupation count."""
    if n_occ < 0:
        raise ValueError(f"n_occ must be >= 0, got {n_occ}")
    return "odd" if n_occ % 2 == 1 else "even"
