"""Periodic lattice geometry, momentum grids, and Majorana indexing.

The lattices are D-dimensional tori of ``L**D`` sites with D in {1, 2}.  Sites
carry two Majorana flavors each, indexed as ``a = 2 * site + (flavor - 1)``
with flavor 1 for ``c^dag + c`` and flavor 2 for ``i (c^dag - c)``.

Momentum grids follow the free-fermion quantization on a ring of even length
L: states with an odd particle number use periodic boundary conditions
(integer mode numbers m in {-L/2, ..., L/2 - 1}), states with an even particle
number use antiperiodic ones (half-integer m in {-L/2 + 1/2, ..., L/2 - 1/2}),
with momenta ``k = 2 pi m / L`` per axis.  On a box of period ``2L`` every
such momentum is the integer frequency ``2m``, whichever the parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

Coords = Union[int, Sequence[int]]


def _as_coord_array(r: Coords, dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(r, dtype=np.int64))
    if arr.shape != (dim,):
        raise ValueError(
            f"coordinate {r!r} does not match lattice dimension {dim}"
        )
    return arr


def torus_distance(r1: Coords, r2: Coords, length: int) -> int:
    """Graph (L1) distance between two sites on a periodic torus.

    Parameters
    ----------
    r1, r2 : int or sequence of int
        Site coordinates; scalars are treated as 1D coordinates.
    length : int
        Linear size L of the torus in every direction.

    Returns
    -------
    int
        ``sum_i min(|r1_i - r2_i|, L - |r1_i - r2_i|)``.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    a = np.atleast_1d(np.asarray(r1, dtype=np.int64))
    b = np.atleast_1d(np.asarray(r2, dtype=np.int64))
    if a.shape != b.shape:
        raise ValueError("coordinates have mismatched dimensions")
    diff = np.abs(a - b) % length
    return int(np.minimum(diff, length - diff).sum())


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
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self.dim = int(dim)
        self.length = int(length)
        self.n_sites = self.length ** self.dim
        self.n_majorana = 2 * self.n_sites
        self._coords = None
        self._distance_matrix = None

    # ------------------------------------------------------------------
    # site indexing
    # ------------------------------------------------------------------

    def site_index(self, r: Coords) -> int:
        """Flat index of the site with coordinates ``r``."""
        arr = _as_coord_array(r, self.dim)
        if np.any(arr < 0) or np.any(arr >= self.length):
            raise IndexError(f"coordinate {r!r} outside lattice of size {self.length}")
        return int(sum(int(c) * self.length ** j for j, c in enumerate(arr)))

    def site_coords(self, index: int) -> Tuple[int, ...]:
        """Coordinates of the site with flat index ``index``."""
        if not 0 <= index < self.n_sites:
            raise IndexError(f"site index {index} outside [0, {self.n_sites})")
        return tuple((index // self.length ** j) % self.length for j in range(self.dim))

    @property
    def coords(self) -> np.ndarray:
        """Array of shape (n_sites, dim) with the coordinates of every site."""
        if self._coords is None:
            idx = np.arange(self.n_sites)
            cols = [(idx // self.length ** j) % self.length for j in range(self.dim)]
            self._coords = np.stack(cols, axis=1).astype(np.int64)
            self._coords.setflags(write=False)
        return self._coords

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------

    def distance(self, i: int, j: int) -> int:
        """Torus distance between the sites with flat indices i and j."""
        return torus_distance(self.site_coords(i), self.site_coords(j), self.length)

    def pair_distances(self, sites: np.ndarray) -> np.ndarray:
        """(len(sites), len(sites)) torus distances between the given sites."""
        c = self.coords[sites]
        diff = np.abs(c[:, None, :] - c[None, :, :])
        diff = np.minimum(diff, self.length - diff)
        return diff.sum(axis=2)

    def distance_matrix(self) -> np.ndarray:
        """(n_sites, n_sites) matrix of pairwise torus distances, cached."""
        if self._distance_matrix is None:
            self._distance_matrix = self.pair_distances(np.arange(self.n_sites))
            self._distance_matrix.setflags(write=False)
        return self._distance_matrix

    def displacement_box(self) -> Tuple[np.ndarray, ...]:
        """Per-axis displacements ``r_i = x_i - y_i`` on the box of period ``2L``.

        A box array has shape ``(2L,) * dim`` and holds displacement ``r`` at
        index ``r mod 2L`` along every axis; axis ``i`` of the result carries
        the values ``r_i`` in ``[-L, L)`` and broadcasts against the others.
        Every site-pair displacement, ``(-L, L)`` per axis, has its own entry
        (no wrap around the torus); ``r_i = -L`` joins no pair.
        """
        period = 2 * self.length
        r = (np.arange(period) + self.length) % period - self.length
        return tuple(r.reshape((-1,) + (1,) * (self.dim - 1 - i)) for i in range(self.dim))

    def __repr__(self) -> str:
        return f"Lattice(dim={self.dim}, length={self.length})"


# ----------------------------------------------------------------------
# snake (boustrophedon) ordering for 2D Jordan-Wigner
# ----------------------------------------------------------------------


def snake_index(lat: Lattice, x: int, y: int) -> int:
    """Boustrophedon ordering of a 2D lattice.

    Row ``y`` is traversed left-to-right when ``y`` is even and right-to-left
    when ``y`` is odd, so consecutive indices are always nearest neighbors:

        ``index(x, y) = y * L + (x if y even else L - 1 - x)``.
    """
    if lat.dim != 2:
        raise ValueError("snake ordering is defined for 2D lattices only")
    if not (0 <= x < lat.length and 0 <= y < lat.length):
        raise IndexError(f"({x}, {y}) outside lattice of size {lat.length}")
    return y * lat.length + (x if y % 2 == 0 else lat.length - 1 - x)


def snake_index_vector(lat: Lattice) -> np.ndarray:
    """Snake index of every site, ordered by flat site index."""
    if lat.dim != 2:
        raise ValueError("snake ordering is defined for 2D lattices only")
    x = lat.coords[:, 0]
    y = lat.coords[:, 1]
    return y * lat.length + np.where(y % 2 == 0, x, lat.length - 1 - x)


# ----------------------------------------------------------------------
# momentum grids
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGrid:
    """Momentum quantization grid of a finite torus.

    Attributes
    ----------
    lattice : Lattice
        The underlying real-space lattice (L must be even).
    parity : str
        ``"odd"`` (periodic, integer modes) or ``"even"`` (antiperiodic,
        half-integer modes), referring to the particle-number parity.
    m_vectors : np.ndarray
        (n_sites, dim) mode numbers, first axis varying fastest.
    momenta : np.ndarray
        (n_sites, dim) momenta ``2 pi m / L`` componentwise in [-pi, pi).
    """

    lattice: Lattice
    parity: str
    m_vectors: np.ndarray = field(repr=False)
    momenta: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.momenta.shape[0]


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
    if occupation_parity == "odd":
        axis = np.arange(-half, half, dtype=np.float64)
    else:
        axis = np.arange(-half, half, dtype=np.float64) + 0.5
    idx = np.arange(lat.n_sites)
    cols = [axis[(idx // lat.length ** j) % lat.length] for j in range(lat.dim)]
    m = np.stack(cols, axis=1)
    k = 2.0 * np.pi * m / lat.length
    m.setflags(write=False)
    k.setflags(write=False)
    return MomentumGrid(lattice=lat, parity=occupation_parity, m_vectors=m, momenta=k)


def parity_of(n_occ: int) -> str:
    """Particle-number parity string for a given occupation count."""
    if n_occ < 0:
        raise ValueError(f"n_occ must be >= 0, got {n_occ}")
    return "odd" if n_occ % 2 == 1 else "even"
