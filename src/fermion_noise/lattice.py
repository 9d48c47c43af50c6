"""Periodic lattice geometry, momentum grids, and Majorana indexing.

The lattices are D-dimensional tori of ``L**D`` sites with D in {1, 2}.  Sites
carry two Majorana flavors each, indexed as ``a = 2 * site + (flavor - 1)``
with flavor 1 for ``c^dag + c`` and flavor 2 for ``i (c^dag - c)``.  The
site layout is :attr:`Lattice.coords`, inverted by :meth:`Lattice.site_index`;
the one torus metric is :meth:`Lattice.pair_distances` on a set of sites,
and two sites are the set's ``[0, 1]`` entry.

Momentum grids follow the free-fermion quantization on a ring of even length
L: states with an odd particle number use periodic boundary conditions
(integer mode numbers m in {-L/2, ..., L/2 - 1}), states with an even particle
number use antiperiodic ones (half-integer m in {-L/2 + 1/2, ..., L/2 - 1/2}),
with momenta ``k = 2 pi m / L`` per axis.  On a box of period ``2L`` every
such momentum is the integer frequency ``2m``, whichever the parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

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
        self._coords = None
        self._distance_matrix = None

    # ------------------------------------------------------------------
    # site indexing
    # ------------------------------------------------------------------

    def site_index(self, r: Coords) -> int:
        """Flat index of the site with coordinates ``r``, the inverse of :attr:`coords`."""
        arr = np.atleast_1d(np.asarray(r, dtype=np.int64))
        if arr.shape != (self.dim,):
            raise ValueError(f"coordinate {r!r} does not match lattice dimension {self.dim}")
        if np.any(arr < 0) or np.any(arr >= self.length):
            raise IndexError(f"coordinate {r!r} outside lattice of size {self.length}")
        return int(arr @ self.length ** np.arange(self.dim))

    def site_coords(self, index: int) -> Tuple[int, ...]:
        """Coordinates of the site with flat index ``index``: row ``index`` of :attr:`coords`."""
        if not 0 <= index < self.n_sites:
            raise IndexError(f"site index {index} outside [0, {self.n_sites})")
        return tuple(self.coords[index].tolist())

    def _majoranas(self, idx) -> np.ndarray:
        """``idx`` as an array of Majorana indices, checked to lie in ``[0, 2N)``."""
        idx = np.asarray(idx)
        if idx.size and not (0 <= idx.min() and idx.max() < self.n_majorana):
            raise IndexError(f"Majorana indices {idx.min()}..{idx.max()} "
                             f"outside [0, {self.n_majorana})")
        return idx

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

    def _wrap(self, r: np.ndarray) -> np.ndarray:
        """Torus distance ``min(|r|, L - |r|)`` of displacements ``r`` along one axis each."""
        r = np.abs(r)
        return np.minimum(r, self.length - r)

    def pair_distances(self, sites: np.ndarray) -> np.ndarray:
        """(len(sites), len(sites)) torus (L1) distances between the given sites."""
        c = self.coords[sites]
        return self._wrap(c[:, None, :] - c[None, :, :]).sum(axis=2)

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

    def displacement_multiplicity(self) -> np.ndarray:
        """Number of site pairs at each displacement, ``prod_i (L - |r_i|)``, a box array."""
        return math.prod(self.length - np.abs(r) for r in self.displacement_box())

    def displacement_index(self, sites: np.ndarray, cols: Optional[np.ndarray] = None
                           ) -> np.ndarray:
        """Flat index into a raveled box array of ``x_s - x_t``, for every pair of ``sites``.

        With ``cols``, the rectangle of pairs ``s`` in ``sites``, ``t`` in ``cols``.
        """
        period = 2 * self.length
        cols = sites if cols is None else cols
        index = 0
        for row, col in zip(self.coords[sites].T, self.coords[cols].T):
            index = index * period + (row[:, None] - col[None, :]) % period
        return index

    def box_sum(self, box: np.ndarray, momenta: np.ndarray) -> np.ndarray:
        """``Re sum_r box[r] e^{i k.r}`` for every row ``k`` of ``momenta``.

        ``box`` is a box array of :meth:`displacement_box`.  Momenta with
        ``k L / pi`` an integer are integer frequencies of the box and are read
        off one FFT of it; the others take the direct sum over the box.
        """
        momenta = np.asarray(momenta, dtype=float)
        if momenta.ndim != 2 or momenta.shape[1] != self.dim:
            raise ValueError(f"momenta must have {self.dim} columns, got shape {momenta.shape}")
        period = 2 * self.length
        freq = momenta * (self.length / np.pi)
        index = np.rint(freq)
        on_box = np.all(np.abs(freq - index) <= 1e-12 * np.maximum(1.0, np.abs(freq)), axis=1)
        out = np.empty(len(momenta))
        if on_box.any():
            table = np.fft.ifftn(box, norm="forward")  # sum_r box(r) e^{2 pi i j.r / 2L}
            out[on_box] = table[tuple((index[on_box].astype(np.int64) % period).T)].real
        if not on_box.all():
            off = momenta[~on_box]
            phases = [np.exp(1j * np.multiply.outer(k, r.ravel()))
                      for k, r in zip(off.T, self.displacement_box())]
            vals = phases[0] @ box.reshape(period, -1)
            if self.dim == 2:
                vals = np.sum(vals * phases[1], axis=1)
            out[~on_box] = vals.reshape(-1).real
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lattice) and (self.dim, self.length) == (other.dim, other.length)

    def __hash__(self) -> int:
        return hash((self.dim, self.length))

    def __repr__(self) -> str:
        return f"Lattice(dim={self.dim}, length={self.length})"


# ----------------------------------------------------------------------
# snake (boustrophedon) ordering for 2D Jordan-Wigner
# ----------------------------------------------------------------------


def snake_index(lat: Lattice, x: int, y: int) -> int:
    """Snake index of the site ``(x, y)``, read from :func:`snake_index_vector`."""
    return int(snake_index_vector(lat)[lat.site_index((x, y))])


def snake_index_vector(lat: Lattice) -> np.ndarray:
    """Boustrophedon (snake) index of every site, ordered by flat site index.

    Row ``y`` is traversed left-to-right when ``y`` is even and right-to-left
    when ``y`` is odd, so consecutive indices are always nearest neighbors:

        ``index(x, y) = y * L + (x if y even else L - 1 - x)``.
    """
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
    m = axis[lat.coords]
    k = 2.0 * np.pi * m / lat.length
    m.setflags(write=False)
    k.setflags(write=False)
    return MomentumGrid(lattice=lat, parity=occupation_parity, m_vectors=m, momenta=k)


def parity_of(n_occ: int) -> str:
    """Particle-number parity string for a given occupation count."""
    if n_occ < 0:
        raise ValueError(f"n_occ must be >= 0, got {n_occ}")
    return "odd" if n_occ % 2 == 1 else "even"
