"""Tests for the Pauli-weight models of the fermion-to-qubit encodings."""

import itertools
import tracemalloc
from typing import Set, Tuple

import numpy as np
import pytest

from conftest import _bk_beta_inverse, bk_beta_matrix, bk_number_operator_weight_from_beta, \
    flavor_blocks, interleave_flavors, jordan_wigner_bits, lattice_coords, reference_counts, \
    table_bits, table_strings
from fermion_noise import (
    ENCODING_KINDS,
    EncodingWeightModel,
    Lattice,
    PauliChannel,
    attenuation_block,
    bk_max_number_operator_weight,
    mode_etas,
    snake_index_vector,
)
from oracle import dense_majorana, gf2_inverse, pauli_string


# ----------------------------------------------------------------------
# closed-form references the table is certified against
# ----------------------------------------------------------------------


def update_set(q: int, n_modes: int) -> Set[int]:
    """Qubits (above q) whose stored parity flips when mode q flips."""
    out: Set[int] = set()
    idx = q + 1
    idx += idx & (-idx)
    while idx <= n_modes:
        out.add(idx - 1)
        idx += idx & (-idx)
    return out


def parity_set(q: int) -> Set[int]:
    """Qubits that together store the parity of modes 0..q-1."""
    out: Set[int] = set()
    idx = q
    while idx > 0:
        out.add(idx - 1)
        idx &= idx - 1
    return out


def occupation_set(q: int) -> Set[int]:
    """Qubits whose joint parity equals the occupation of mode q."""
    out = {q}
    parent = (q + 1) & q
    idx = q
    while idx != parent:
        out.add(idx - 1)
        idx &= idx - 1
    return out


def index_set_support(m: int, n_modes: int) -> Tuple[Set[int], Set[int]]:
    """X- and Z-support of Bravyi-Kitaev Majorana ``m`` from the index sets.

    Flavor 1 (even m) is X on the update set plus the mode qubit and Z on the
    parity set; flavor 2 (odd m) adds the occupation set to the Z support.
    """
    q, b = divmod(m, 2)
    x_set = update_set(q, n_modes) | {q}
    z_set = parity_set(q)
    if b == 1:
        z_set = z_set ^ occupation_set(q)
    return x_set, z_set


def bk_number_operator_weight(i: int, n_modes: int) -> int:
    """Number-operator weight ``|occupation set of i|`` from the index sets."""
    return len(occupation_set(i))


def jw1d_composition(x: int, y: int, flavor_x: int, flavor_y: int) -> Tuple[int, int, int]:
    """X, Y and Z counts of the 1D Jordan-Wigner string for gamma_a gamma_b.

    For sites ``x < y`` the product collapses to an endpoint factor at each
    site and Z on everything strictly between: the left endpoint is Y for
    flavor 1 and X for flavor 2, the right endpoint X for flavor 1 and Y for
    flavor 2.  Equal sites with different flavors give a single Z.
    """
    if x == y:
        return 0, 0, 1
    if x < y:
        lo_flavor, hi_flavor = flavor_x, flavor_y
    else:
        x, y = y, x
        lo_flavor, hi_flavor = flavor_y, flavor_x
    left = "Y" if lo_flavor == 1 else "X"
    right = "X" if hi_flavor == 1 else "Y"
    n_x = (left == "X") + (right == "X")
    n_y = (left == "Y") + (right == "Y")
    return int(n_x), int(n_y), y - x - 1


def _weights(enc):
    """(2N, 2N) weights of every Majorana pair, all Majoranas as one index set."""
    return enc.pair_weights(np.arange(enc.lattice.n_majorana))


def _count_matrices(enc):
    """(3, 2N, 2N) X/Y/Z counts of every Majorana pair, all Majoranas as one index set."""
    return enc.pair_weights(np.arange(enc.lattice.n_majorana), counts=True)


class TestModelValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown encoding kind"):
            EncodingWeightModel("toric", Lattice(1, 4))

    def test_jw1d_needs_chain(self):
        with pytest.raises(ValueError, match="1D"):
            EncodingWeightModel("jw1d", Lattice(2, 4))

    def test_snake_needs_plane(self):
        with pytest.raises(ValueError, match="2D"):
            EncodingWeightModel("jw2d_snake", Lattice(1, 4))

    def test_bravyi_kitaev_needs_power_of_two_modes(self):
        with pytest.raises(ValueError, match="power-of-two"):
            EncodingWeightModel("bravyi_kitaev", Lattice(1, 6))
        # 2D lattices qualify whenever the total site count is a power of two.
        EncodingWeightModel("bravyi_kitaev", Lattice(2, 4))

    def test_local_phi0_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError, match="phi0"):
            EncodingWeightModel("local", Lattice(1, 4), phi0=-1)
        with pytest.raises(ValueError, match="phi0"):
            EncodingWeightModel("local", Lattice(1, 4), phi0=1.5)
        assert EncodingWeightModel("local", Lattice(1, 4), phi0=0).phi0 == 0

    def test_phi0_pinned_to_one_for_string_encodings(self):
        assert EncodingWeightModel("jw1d", Lattice(1, 4), phi0=7).phi0 == 1
        assert EncodingWeightModel("jw2d_snake", Lattice(2, 4), phi0=7).phi0 == 1


class TestLocalWeights:
    def test_weight_is_offset_plus_torus_distance(self):
        lat = Lattice(2, 4)
        enc = EncodingWeightModel("local", lat, phi0=2)
        a = lat.site_index((0, 0))
        b = lat.site_index((2, 3))  # torus distance 2 + 1
        assert _weights(enc)[2 * a, 2 * b] == 5
        assert enc.bilinear_weight(2 * a, 2 * b) == 5
        assert enc.bilinear_weight(2 * a + 1, 2 * b + 1) == 5

    def test_wraps_around_the_torus(self):
        enc = EncodingWeightModel("local", Lattice(1, 10), phi0=1)
        assert _weights(enc)[0, 18] == 2  # distance 1, not 9
        assert enc.bilinear_weight(0, 19) == 2

    def test_largest_weight(self):
        enc = EncodingWeightModel("local", Lattice(2, 6), phi0=2)
        assert _weights(enc).max() == 8  # 2 + (3 + 3)

    def test_phi0_zero_on_site_weight(self):
        enc = EncodingWeightModel("local", Lattice(1, 8), phi0=0)
        assert _weights(enc)[6, 6] == 0
        assert enc.bilinear_weight(6, 7) == 0
        assert _weights(enc).max() == 4

    def test_single_weights_build_no_distance_matrix(self):
        lat = Lattice(2, 48)
        enc = EncodingWeightModel("local", lat, phi0=1)
        assert enc.bilinear_weight(0, 2 * lat.site_index((24, 24)) + 1) == 49
        assert lat._distance_matrix is None


    @pytest.mark.parametrize("kind,dim,length,bound", [
        ("local", 1, 65536, 2.1), ("local", 2, 512, 2.1), ("bravyi_kitaev", 2, 256, 34.0)])
    def test_drop_torus_is_built_in_place(self, kind, dim, length, bound):
        # local: the distances, their powers and the pair counts share one
        # array, and 1D holds one more distance table while it is built, where
        # the box held four.  Bravyi-Kitaev reuses one stack of 8 level grids
        # and transforms it into one kept stack of spectra: 33.5 tori at
        # 2D L = 256, the coordinates included, where the box took 37.7
        # boxes of four tori each.
        enc = EncodingWeightModel(kind, Lattice(dim, length))
        tracemalloc.start()
        try:
            same, cross = enc.drop_torus(PauliChannel.depolarizing(0.01).etas, (1,) * dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (same is cross) is (kind == "local")
        assert same.shape == (length,) * dim
        assert peak <= bound * same.nbytes, f"{peak} B traced for a {same.nbytes} B torus"


class TestJordanWigner1d:
    def test_weight_uses_plain_chain_separation(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 8))
        w = _weights(enc)[0::2, 0::2]
        assert w[0, 1] == 2
        assert w[2, 5] == 4
        # The string runs down the whole chain: no torus shortcut.
        assert w[0, 7] == 8
        assert enc.bilinear_weight(0, 14) == 8
        assert _weights(enc).max() == 8

    def test_all_pair_weights_expand_site_weights(self):
        lat = Lattice(1, 5)
        enc = EncodingWeightModel("jw1d", lat)
        w = enc.pair_weights(np.arange(10))
        site = np.arange(10) // 2
        assert np.array_equal(w, 1 + np.abs(site[:, None] - site[None, :]))
        for a, b in [(0, 1), (0, 7), (3, 8), (2, 9)]:
            assert enc.bilinear_weight(a, b) == 1 + abs(a // 2 - b // 2)

    def test_same_site_bilinear_is_single_z(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        assert enc.pair_weights([4, 5], counts=True)[:, 0, 1].tolist() == [0, 0, 1]
        assert enc.bilinear_weight(4, 5) == 1

    def test_neighbor_composition(self):
        # gamma^1_x gamma^1_{x+1} collapses to Y_x X_{x+1}.
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        assert enc.pair_weights([0, 2], counts=True)[:, 0, 1].tolist() == [1, 1, 0]

    def test_composition_symmetric_in_the_pair(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 6))
        for a, b in [(0, 5), (1, 8), (7, 2)]:
            counts = enc.pair_weights([a, b], counts=True)
            assert np.array_equal(counts[:, 0, 1], counts[:, 1, 0])

    def test_composition_rejected_elsewhere(self):
        enc = EncodingWeightModel("local", Lattice(1, 4))
        with pytest.raises(ValueError, match="'local'"):
            enc.pair_weights([0, 1], counts=True)
        with pytest.raises(ValueError, match="worst-case"):
            enc.pair_weights(np.arange(8), counts=True)


class TestSnakeWeights:
    def test_frozen_values(self):
        lat = Lattice(2, 4)
        enc = EncodingWeightModel("jw2d_snake", lat)
        w = _weights(enc)[0::2, 0::2]
        a = lat.site_index((0, 0))
        # (0, 1) sits at the far end of the reversed second row.
        assert w[a, lat.site_index((0, 1))] == 8
        # At the turn of the snake vertical neighbors stay adjacent.
        assert w[lat.site_index((3, 0)), lat.site_index((3, 1))] == 2

    def test_corner_pair_costs_side_plus_one(self):
        for side in (4, 6, 8):
            lat = Lattice(2, side)
            enc = EncodingWeightModel("jw2d_snake", lat)
            a = lat.site_index((0, 0))
            b = lat.site_index((side - 1, 1))
            assert _weights(enc)[2 * a, 2 * b] == side + 1
            assert enc.bilinear_weight(2 * a, 2 * b) == side + 1

    def test_largest_weight_spans_the_whole_snake(self):
        enc = EncodingWeightModel("jw2d_snake", Lattice(2, 4))
        assert _weights(enc).max() == 16  # 1 + (16 - 1)


class TestBravyiKitaev:
    def test_beta_matrix_frozen_n4(self):
        expected = np.array(
            [[1, 0, 0, 0],
             [1, 1, 0, 0],
             [0, 0, 1, 0],
             [1, 1, 1, 1]],
            dtype=np.uint8,
        )
        assert (bk_beta_matrix(4) == expected).all()

    def test_beta_matrix_rejects_other_sizes(self):
        with pytest.raises(ValueError, match="power-of-two"):
            bk_beta_matrix(12)

    @pytest.mark.parametrize("n", [2 ** k for k in range(12)])
    def test_doubled_inverse_is_the_gf2_elimination(self, n):
        beta = bk_beta_matrix(n)
        inv = _bk_beta_inverse(n)
        assert np.array_equal(inv, gf2_inverse(beta))
        product = beta.astype(np.float32) @ inv.astype(np.float32)  # exact below 2**24
        assert np.array_equal(product % 2, np.eye(n))
        assert not inv.flags.writeable

    def test_counts_are_popcounts_of_the_eliminated_table_at_512_modes(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 512))
        assert np.array_equal(_count_matrices(enc), reference_counts(*table_bits(enc)))

    def test_number_operator_weights_frozen_n8(self):
        weights = [bk_number_operator_weight_from_beta(i, 8) for i in range(8)]
        assert weights == [1, 2, 1, 3, 1, 2, 1, 4]

    def test_number_operator_weights_match_beta_oracle(self):
        for n in (2, 4, 8, 16):
            for i in range(n):
                assert bk_number_operator_weight(i, n) == \
                    bk_number_operator_weight_from_beta(i, n)

    def test_max_number_operator_weight_is_logarithmic(self):
        assert bk_max_number_operator_weight(2) == 2
        assert bk_max_number_operator_weight(4) == 3
        assert bk_max_number_operator_weight(8) == 4
        assert bk_max_number_operator_weight(16) == 5
        for n in (2, 4, 8, 16, 32):
            assert bk_max_number_operator_weight(n) == \
                max(bk_number_operator_weight(i, n) for i in range(n))

    def test_mode_index_bounds(self):
        with pytest.raises(IndexError):
            bk_number_operator_weight_from_beta(8, 8)
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 8))
        with pytest.raises(IndexError):
            enc.bilinear_weight(16, 0)

    def test_supports_anticommute_pairwise(self):
        # Distinct Majorana operators anticommute, so every pair of table
        # rows must have odd symplectic overlap.
        for n in (2, 4, 8, 16):
            x, z = table_bits(EncodingWeightModel("bravyi_kitaev", Lattice(1, n)))
            overlap = (x.astype(int) @ z.T.astype(int) + z.astype(int) @ x.T.astype(int)) % 2
            assert (overlap == 1 - np.eye(2 * n, dtype=int)).all()

    def test_onsite_bilinear_weight_equals_number_operator_weight(self):
        # gamma_{2q} gamma_{2q+1} encodes the occupation of mode q, so the
        # support-product weight must land on the occupation-set weight.
        for n in (2, 4, 8, 16):
            enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, n))
            for q in range(n):
                assert enc.bilinear_weight(2 * q, 2 * q + 1) == \
                    bk_number_operator_weight(q, n)

    def test_weights_depend_on_flavor(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 8))
        w = enc.pair_weights(np.arange(16))
        assert w.shape == (16, 16)
        assert (w == w.T).all()
        flavor_pairs = [
            (w[2 * x, 2 * y], w[2 * x + 1, 2 * y], w[2 * x, 2 * y + 1], w[2 * x + 1, 2 * y + 1])
            for x in range(8) for y in range(8) if x != y
        ]
        assert any(len(set(quad)) > 1 for quad in flavor_pairs)

    def test_all_pair_weights_are_popcounts_of_the_table_bits(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 4))
        w = enc.pair_weights(np.arange(8))
        x, z = table_bits(enc)
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert w[a, b] == np.count_nonzero((x[a] ^ x[b]) | (z[a] ^ z[b]))

    def test_number_operator_family_sits_below_the_largest_weight(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 16))
        assert bk_max_number_operator_weight(16) == 5
        assert _weights(enc).max() >= 5


CONCRETE_SMALL = [("jw1d", 1, n) for n in (1, 2, 3, 5, 8)] + \
    [("jw2d_snake", 2, 2)] + [("bravyi_kitaev", 1, n) for n in (1, 2, 4, 8)]


class TestSymplecticTable:
    @pytest.mark.parametrize("kind,dim,length", CONCRETE_SMALL)
    def test_rows_are_majorana_operators(self, kind, dim, length):
        # Rendered as dense Pauli strings, the rows square to the identity
        # and anticommute pairwise: a valid set of Majorana operators.
        enc = EncodingWeightModel(kind, Lattice(dim, length))
        gammas = table_strings(enc)
        eye = np.eye(2 ** enc.lattice.n_sites)
        for a, ga in enumerate(gammas):
            assert np.array_equal(ga @ ga, eye)
            for gb in gammas[a + 1:]:
                assert np.array_equal(ga @ gb, -(gb @ ga))

    @pytest.mark.parametrize("kind,dim,length",
                             [c for c in CONCRETE_SMALL if c[0] != "bravyi_kitaev"])
    def test_jordan_wigner_rows_equal_the_dense_majoranas(self, kind, dim, length):
        # Site s sits on qubit o(s), so its Majoranas are the dense chain
        # Majoranas 2 o(s) + f (equal up to phase; here exactly equal).
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        order = lattice_coords(lat)[:, 0] if dim == 1 else snake_index_vector(lat)
        for m, gamma in enumerate(table_strings(enc)):
            dense = dense_majorana(lat.n_sites, 2 * int(order[m // 2]) + m % 2)
            assert np.array_equal(gamma, dense)

    def test_bravyi_kitaev_matches_the_index_sets_at_1024_modes(self):
        n = 1024
        x, z = table_bits(EncodingWeightModel("bravyi_kitaev", Lattice(1, n)))
        for m in range(2 * n):
            x_set, z_set = index_set_support(m, n)
            assert set(np.flatnonzero(x[m])) == x_set
            assert set(np.flatnonzero(z[m])) == z_set

    def test_jw1d_counts_match_the_closed_form_at_48_sites(self):
        n = 48  # the 200-site chain is checked against the reference table below
        enc = EncodingWeightModel("jw1d", Lattice(1, n))
        counts = _count_matrices(enc)
        ref = np.zeros_like(counts)
        for a in range(2 * n):
            for b in range(2 * n):
                if a != b:
                    ref[:, a, b] = jw1d_composition(a // 2, b // 2, a % 2 + 1, b % 2 + 1)
        assert np.array_equal(counts, ref)

    def test_snake_weights_match_the_closed_form_on_16x16(self):
        lat = Lattice(2, 16)
        enc = EncodingWeightModel("jw2d_snake", lat)
        from_table = _count_matrices(enc).sum(axis=0)
        np.fill_diagonal(from_table, 0)
        s = snake_index_vector(lat)
        closed = np.repeat(np.repeat(1 + np.abs(s[:, None] - s[None, :]), 2, 0), 2, 1)
        np.fill_diagonal(closed, 0)
        assert np.array_equal(from_table, closed)
        weights = enc.pair_weights(np.arange(lat.n_majorana))
        np.fill_diagonal(weights, 0)
        assert np.array_equal(weights, closed)


_ALL_KINDS = [("local", Lattice(1, 8)), ("local", Lattice(2, 4)), ("jw1d", Lattice(1, 8)),
              ("jw2d_snake", Lattice(2, 4)), ("bravyi_kitaev", Lattice(1, 16)),
              ("bravyi_kitaev", Lattice(2, 4))]


class TestIndexSetPairs:
    @pytest.mark.parametrize("kind,lat", _ALL_KINDS)
    def test_weights_are_entries_of_the_flavor_blocks(self, rng, kind, lat):
        enc = EncodingWeightModel(kind, lat)
        full = interleave_flavors(flavor_blocks(enc))
        for idx in (np.arange(lat.n_majorana), rng.choice(lat.n_majorana, 9, replace=False),
                    np.array([5]), np.array([], dtype=int)):
            pairs = idx[:, None] != idx[None, :]  # a Majorana with itself is no bilinear
            assert np.array_equal(enc.pair_weights(idx)[pairs], full[np.ix_(idx, idx)][pairs]), idx

    @pytest.mark.parametrize("kind,lat", [c for c in _ALL_KINDS if c[0] != "local"])
    def test_counts_are_entries_of_the_count_blocks(self, rng, kind, lat):
        enc = EncodingWeightModel(kind, lat)
        full = np.stack([interleave_flavors(c) for c in flavor_blocks(enc, counts=True)])
        idx = rng.choice(lat.n_majorana, 11, replace=False)
        counts = enc.pair_weights(idx, counts=True)
        assert counts.shape == (3, 11, 11)
        assert np.array_equal(counts, full[:, idx[:, None], idx[None, :]])

    def test_local_index_sets_build_no_distance_matrix(self, monkeypatch):
        lat = Lattice(2, 6)
        enc = EncodingWeightModel("local", lat, phi0=2)

        def refuse(self):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(Lattice, "distance_matrix", refuse)
        w = enc.pair_weights(np.array([0, 1, 14, 71]))
        assert w.tolist() == [[2, 2, 4, 4], [2, 2, 4, 4], [4, 4, 2, 6], [4, 4, 6, 2]]


class TestSingleWeights:
    @pytest.mark.parametrize("kind,dim,length", [("jw1d", 1, 8), ("jw2d_snake", 2, 4)])
    def test_jordan_wigner_single_weights_read_no_table(self, kind, dim, length):
        lat = Lattice(dim, length)
        pairs = [(a, b) for a in range(lat.n_majorana) for b in range(lat.n_majorana) if a != b]
        from_table = reference_counts(*jordan_wigner_bits(lat)).sum(axis=0)
        enc = EncodingWeightModel(kind, lat)
        assert [enc.bilinear_weight(a, b) for a, b in pairs] == [from_table[p] for p in pairs]

    @pytest.mark.parametrize("kind,dim,weight", [("local", 1, 7), ("jw1d", 1, 6),
                                                 ("local", 2, 4), ("jw2d_snake", 2, 1025)])
    def test_a_pair_reads_its_two_sites_alone(self, monkeypatch, kind, dim, weight):
        # One pair per side is all encoding-compare asks: its cost must not
        # grow with N, so no table over all sites (coordinates, snake order).
        coords_of = Lattice._coords_of

        def two_sites(lat, sites):
            assert np.size(sites) <= 2, "a table over all sites was built"
            return coords_of(lat, sites)

        monkeypatch.setattr(Lattice, "_coords_of", two_sites)
        lat = Lattice(dim, 1 << 20 if dim == 1 else 1024)
        enc = EncodingWeightModel(kind, lat)
        # Sites 0 and 5 of the chain; (0, 0) and (L - 1, 1), L apart on the snake.
        a, b = (0, 5) if dim == 1 else (0, 2 * lat.length - 1)
        assert enc.bilinear_weight(2 * a, 2 * b + 1) == weight
        if kind != "local":
            assert enc.pair_weights([2 * a, 2 * b + 1], counts=True)[:, 0, 1].sum() == weight

    def test_a_bravyi_kitaev_pair_reads_the_bits_of_its_sites_alone(self):
        # A pair's Pauli string lies in the Fenwick block of its two sites, so
        # its counts are those of the same sites on 16 modes; at N = 2^20 a
        # per-mode table (top bit, tau, ones below each bit) would take MBs.
        idx = [0, 1, 11, 20, 31]
        want = EncodingWeightModel("bravyi_kitaev", Lattice(1, 16)).pair_weights(idx, counts=True)
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 1 << 20))
        tracemalloc.start()
        try:
            counts = enc.pair_weights(idx, counts=True)
            weights = enc.pair_weights(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"{peak} B traced: a table over the modes was built"
        assert np.array_equal(counts, want)
        assert np.array_equal(weights, want.sum(axis=0))


class TestJordanWignerCounts:
    """Jordan-Wigner X/Y/Z counts are a closed form in the qubit order, with no table."""

    @pytest.mark.parametrize("kind,dim,length", [("jw1d", 1, 8), ("jw2d_snake", 2, 4),
                                                 ("bravyi_kitaev", 1, 16)])
    def test_counts_and_non_uniform_attenuation_read_no_table(self, kind, dim, length):
        # Bravyi-Kitaev too answers from index arithmetic: its encoder matrices
        # are test references (conftest.py), not in the package.
        lat = Lattice(dim, length)
        ref = reference_counts(*table_bits(EncodingWeightModel(kind, lat)))
        enc = EncodingWeightModel(kind, lat)
        assert np.array_equal(_count_matrices(enc), ref)
        assert tuple(enc.pair_weights([3, 12], counts=True)[:, 0, 1]) == tuple(ref[:, 3, 12])
        idx = np.array([0, 3, 7, 12, 13])
        ch = PauliChannel(0.2, (0.6, 0.1, 0.3))
        etas = np.array(ch.etas)[:, None, None]
        expected = np.prod(etas ** ref[:, idx[:, None], idx[None, :]], axis=0)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(attenuation_block(enc, ch.etas, idx), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind,dim,length",
                             [("jw1d", 1, n) for n in (1, 2, 3, 4)] + [("jw2d_snake", 2, 2)])
    def test_counts_match_the_dense_product_strings(self, kind, dim, length):
        # Every product of two dense Majoranas is one Pauli string: find it
        # among all 4^n strings and count its X, Y and Z factors.  The count
        # blocks, the pair's own index set and bilinear_weight must all agree.
        lat = Lattice(dim, length)
        n = lat.n_sites
        enc = EncodingWeightModel(kind, lat)
        counts = _count_matrices(enc)
        order = lattice_coords(lat)[:, 0] if dim == 1 else snake_index_vector(lat)
        gammas = [dense_majorana(n, 2 * int(order[m // 2]) + m % 2) for m in range(2 * n)]
        labels = list(itertools.product("IXYZ", repeat=n))
        strings = np.stack([pauli_string(n, dict(enumerate(lab))) for lab in labels])
        for a, b in itertools.permutations(range(2 * n), 2):
            overlap = np.abs(np.einsum("kij,ij->k", strings.conj(), gammas[a] @ gammas[b]))
            found = labels[int(np.argmax(overlap))]
            assert overlap.max() == pytest.approx(2 ** n)
            census = tuple(found.count(p) for p in "XYZ")
            single = tuple(enc.pair_weights([a, b], counts=True)[:, 0, 1])
            assert tuple(counts[:, a, b]) == single == census
            assert enc.bilinear_weight(a, b) == sum(census)

    @pytest.mark.parametrize("kind,dim,length", [("jw1d", 1, 200), ("jw2d_snake", 2, 16)])
    def test_counts_are_popcounts_of_the_reference_table(self, kind, dim, length):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        counts = _count_matrices(enc)
        assert counts.dtype == np.int32
        assert np.array_equal(counts, reference_counts(*jordan_wigner_bits(lat)))


class TestFenwickClosedForm:
    """Bravyi-Kitaev weights and X/Y/Z counts are closed forms in the bits of the two sites."""

    @pytest.mark.parametrize("dim,length", [(1, 2 ** k) for k in range(9)] + [(2, 16)])
    def test_all_pairs_equal_the_reference_table(self, dim, length):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel("bravyi_kitaev", lat)
        ref = reference_counts(*table_bits(enc))  # diagonal included: 0 for a == b
        n = lat.n_sites
        counts, weights = _count_matrices(enc), _weights(enc)
        assert counts.dtype == weights.dtype == np.int32
        assert counts.shape == (3, 2 * n, 2 * n) and weights.shape == (2 * n, 2 * n)
        assert np.array_equal(counts, ref)
        assert np.array_equal(weights, ref.sum(axis=0))

    def test_index_sets_at_64x64_equal_the_reference_rows(self, rng):
        lat = Lattice(2, 64)
        enc = EncodingWeightModel("bravyi_kitaev", lat)
        x, z = table_bits(enc)
        picks = [rng.choice(lat.n_majorana, size, replace=False) for size in (1, 2, 160)]
        picks.append(np.concatenate([picks[-1], picks[-1][:7]]))  # repeats: a == b gives 0
        for idx in picks:
            ref = reference_counts(x[idx], z[idx])
            counts = enc.pair_weights(idx, counts=True)
            assert counts.dtype == np.int32 and np.array_equal(counts, ref)
            assert np.array_equal(enc.pair_weights(idx), ref.sum(axis=0))


class TestPairValidation:
    @pytest.mark.parametrize("kind", ENCODING_KINDS)
    def test_index_sets_outside_the_majoranas_are_refused(self, kind):
        # Index arithmetic would read -1 as some other pair, not as an error.
        enc = EncodingWeightModel(kind, Lattice(1, 16) if kind == "jw1d" else Lattice(2, 4))
        for idx in ([-1, 0], [0, 32], [5, -3, 2]):
            with pytest.raises(IndexError, match=r"outside \[0, 32\)"):
                enc.pair_weights(idx)
        with pytest.raises(IndexError, match=r"outside \[0, 32\)"):
            attenuation_block(enc, mode_etas(PauliChannel(0.1), "worst-case"), [-2, 3])

    def test_bilinear_weight_index_errors(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        with pytest.raises(IndexError):
            enc.bilinear_weight(0, 8)
        with pytest.raises(ValueError, match="distinct"):
            enc.bilinear_weight(3, 3)
