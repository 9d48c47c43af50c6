"""Tests for the Pauli-weight models of the fermion-to-qubit encodings."""

import itertools
from dataclasses import astuple
from typing import Set, Tuple

import numpy as np
import pytest

from conftest import table_bits, table_strings
from fermion_noise import (
    EncodingWeightModel,
    Lattice,
    StringComposition,
    bk_beta_matrix,
    bk_max_number_operator_weight,
    bk_number_operator_weight_from_beta,
    interleave_flavors,
    snake_index_vector,
)
from oracle import dense_majorana, pauli_string


def _pauli_terms(op, n_qubits, tol=1e-9):
    """All Pauli strings with a nonzero coefficient in ``op``."""
    dim = 2 ** n_qubits
    found = []
    for labels in itertools.product("IXYZ", repeat=n_qubits):
        factors = {i: l for i, l in enumerate(labels) if l != "I"}
        coeff = np.trace(pauli_string(n_qubits, factors).conj().T @ op) / dim
        if abs(coeff) > tol:
            found.append((labels, coeff))
    return found


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


def jw1d_composition(x: int, y: int, flavor_x: int, flavor_y: int) -> StringComposition:
    """Composition of the 1D Jordan-Wigner string for gamma_a gamma_b.

    For sites ``x < y`` the product collapses to an endpoint factor at each
    site and Z on everything strictly between: the left endpoint is Y for
    flavor 1 and X for flavor 2, the right endpoint X for flavor 1 and Y for
    flavor 2.  Equal sites with different flavors give a single Z.
    """
    if x == y:
        return StringComposition(0, 0, 1)
    if x < y:
        lo_flavor, hi_flavor = flavor_x, flavor_y
    else:
        x, y = y, x
        lo_flavor, hi_flavor = flavor_y, flavor_x
    left = "Y" if lo_flavor == 1 else "X"
    right = "X" if hi_flavor == 1 else "Y"
    n_x = (left == "X") + (right == "X")
    n_y = (left == "Y") + (right == "Y")
    return StringComposition(int(n_x), int(n_y), y - x - 1)


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

    def test_flavor_dependence_is_the_block_shape(self):
        # Flavor-independent weights come as one broadcastable block; only
        # the weight-only local model lacks X/Y/Z compositions.
        jw = EncodingWeightModel("jw1d", Lattice(1, 4))
        bk = EncodingWeightModel("bravyi_kitaev", Lattice(1, 4))
        local = EncodingWeightModel("local", Lattice(2, 4))
        assert jw.pair_weights().shape == (1, 1, 4, 4)
        assert bk.pair_weights().shape == (2, 2, 4, 4)
        assert local.pair_weights().shape == (1, 1, 16, 16)
        assert jw.pair_weights(counts=True).shape == bk.pair_weights(counts=True).shape == (3, 2, 2, 4, 4)
        with pytest.raises(ValueError, match="worst-case"):
            local.pair_weights(counts=True)


class TestLocalWeights:
    def test_weight_is_offset_plus_torus_distance(self):
        lat = Lattice(2, 4)
        enc = EncodingWeightModel("local", lat, phi0=2)
        a = lat.site_index((0, 0))
        b = lat.site_index((2, 3))  # torus distance 2 + 1
        assert enc.pair_weights()[0, 0, a, b] == 5
        assert enc.bilinear_weight(2 * a, 2 * b) == 5
        assert enc.bilinear_weight(2 * a + 1, 2 * b + 1) == 5

    def test_wraps_around_the_torus(self):
        enc = EncodingWeightModel("local", Lattice(1, 10), phi0=1)
        assert enc.pair_weights()[0, 0, 0, 9] == 2  # distance 1, not 9
        assert enc.bilinear_weight(0, 19) == 2

    def test_largest_weight(self):
        enc = EncodingWeightModel("local", Lattice(2, 6), phi0=2)
        assert enc.pair_weights().max() == 8  # 2 + (3 + 3)

    def test_phi0_zero_on_site_weight(self):
        enc = EncodingWeightModel("local", Lattice(1, 8), phi0=0)
        assert enc.pair_weights()[0, 0, 3, 3] == 0
        assert enc.bilinear_weight(6, 7) == 0
        assert enc.pair_weights().max() == 4

    def test_single_weights_build_no_distance_matrix(self):
        lat = Lattice(2, 48)
        enc = EncodingWeightModel("local", lat, phi0=1)
        assert enc.bilinear_weight(0, 2 * lat.site_index((24, 24)) + 1) == 49
        assert lat._distance_matrix is None


class TestJordanWigner1d:
    def test_weight_uses_plain_chain_separation(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 8))
        w = enc.pair_weights()[0, 0]
        assert w[0, 1] == 2
        assert w[2, 5] == 4
        # The string runs down the whole chain: no torus shortcut.
        assert w[0, 7] == 8
        assert enc.bilinear_weight(0, 14) == 8
        assert enc.pair_weights().max() == 8

    def test_all_pair_weights_expand_site_weights(self):
        lat = Lattice(1, 5)
        enc = EncodingWeightModel("jw1d", lat)
        w = enc.pair_weights(np.arange(10))
        assert w.shape == (10, 10)
        assert (w == w.T).all()
        for a, b in [(0, 1), (0, 7), (3, 8), (2, 9)]:
            assert w[a, b] == enc.bilinear_weight(a, b)

    def test_same_site_bilinear_is_single_z(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        comp = enc.string_composition(4, 5)
        assert comp == StringComposition(0, 0, 1)
        assert comp.weight == 1

    def test_neighbor_composition(self):
        # gamma^1_x gamma^1_{x+1} collapses to Y_x X_{x+1}.
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        comp = enc.string_composition(0, 2)
        assert (comp.n_x, comp.n_y, comp.n_z) == (1, 1, 0)

    def test_composition_matches_dense_strings(self):
        # Multiply the dense encoded Majoranas and read the single Pauli
        # string back off; its X/Y/Z census must match string_composition.
        n = 3
        enc = EncodingWeightModel("jw1d", Lattice(1, n))
        gammas = [dense_majorana(n, m) for m in range(2 * n)]
        for a in range(2 * n):
            for b in range(2 * n):
                if a == b:
                    continue
                terms = _pauli_terms(gammas[a] @ gammas[b], n)
                assert len(terms) == 1
                labels, coeff = terms[0]
                assert abs(abs(coeff) - 1.0) < 1e-12
                comp = enc.string_composition(a, b)
                assert labels.count("X") == comp.n_x
                assert labels.count("Y") == comp.n_y
                assert labels.count("Z") == comp.n_z
                assert enc.bilinear_weight(a, b) == comp.weight

    def test_composition_symmetric_in_the_pair(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 6))
        for a, b in [(0, 5), (1, 8), (7, 2)]:
            assert enc.string_composition(a, b) == enc.string_composition(b, a)

    def test_composition_rejected_elsewhere(self):
        enc = EncodingWeightModel("local", Lattice(1, 4))
        with pytest.raises(ValueError, match="'local'"):
            enc.string_composition(0, 1)
        jw = EncodingWeightModel("jw1d", Lattice(1, 4))
        with pytest.raises(ValueError, match="distinct"):
            jw.string_composition(3, 3)


class TestSnakeWeights:
    def test_frozen_values(self):
        lat = Lattice(2, 4)
        enc = EncodingWeightModel("jw2d_snake", lat)
        w = enc.pair_weights()[0, 0]
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
            assert enc.pair_weights()[0, 0, a, b] == side + 1
            assert enc.bilinear_weight(2 * a, 2 * b) == side + 1

    def test_largest_weight_spans_the_whole_snake(self):
        enc = EncodingWeightModel("jw2d_snake", Lattice(2, 4))
        assert enc.pair_weights().max() == 16  # 1 + (16 - 1)


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
        assert enc.pair_weights().shape == (2, 2, 8, 8)

    def test_all_pair_weights_match_pairwise_calls(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 4))
        w = enc.pair_weights(np.arange(8))
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert w[a, b] == enc.bilinear_weight(a, b)

    def test_number_operator_family_sits_below_the_largest_weight(self):
        enc = EncodingWeightModel("bravyi_kitaev", Lattice(1, 16))
        assert bk_max_number_operator_weight(16) == 5
        assert enc.pair_weights().max() >= 5


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
        order = lat.coords[:, 0] if dim == 1 else snake_index_vector(lat)
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

    def test_jw1d_counts_match_the_closed_form_at_200_sites(self):
        n = 200
        enc = EncodingWeightModel("jw1d", Lattice(1, n))
        counts = np.stack([interleave_flavors(c) for c in enc.pair_weights(counts=True)])
        ref = np.zeros_like(counts)
        for a in range(2 * n):
            for b in range(2 * n):
                if a != b:
                    ref[:, a, b] = astuple(jw1d_composition(a // 2, b // 2, a % 2 + 1, b % 2 + 1))
        assert np.array_equal(counts, ref)

    def test_snake_weights_match_the_closed_form_on_16x16(self):
        lat = Lattice(2, 16)
        enc = EncodingWeightModel("jw2d_snake", lat)
        from_table = interleave_flavors(enc.pair_weights(counts=True).sum(axis=0))
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
        blocks = enc.pair_weights()
        full = interleave_flavors(np.broadcast_to(blocks, (2, 2) + blocks.shape[2:]))
        for idx in (np.arange(lat.n_majorana), rng.choice(lat.n_majorana, 9, replace=False),
                    np.array([5]), np.array([], dtype=int)):
            assert np.array_equal(enc.pair_weights(idx), full[np.ix_(idx, idx)]), idx

    @pytest.mark.parametrize("kind,lat", [c for c in _ALL_KINDS if c[0] != "local"])
    def test_counts_are_entries_of_the_count_blocks(self, rng, kind, lat):
        enc = EncodingWeightModel(kind, lat)
        full = np.stack([interleave_flavors(c) for c in enc.pair_weights(counts=True)])
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
    def test_jordan_wigner_single_weights_read_no_table(self, monkeypatch, kind, dim, length):
        lat = Lattice(dim, length)
        pairs = [(a, b) for a in range(lat.n_majorana) for b in range(lat.n_majorana) if a != b]
        enc = EncodingWeightModel(kind, lat)
        from_table = [enc.string_composition(a, b).weight for a, b in pairs]

        def refuse(self):
            raise AssertionError("Pauli table packed for a single weight")

        monkeypatch.setattr(EncodingWeightModel, "pauli_table", refuse)
        fresh = EncodingWeightModel(kind, lat)
        assert [fresh.bilinear_weight(a, b) for a, b in pairs] == from_table


class TestDisplacementWeights:
    @pytest.mark.parametrize("kind,dim,length,phi0", [
        ("local", 1, 6, 0), ("local", 1, 7, 2), ("local", 2, 4, 1), ("local", 2, 5, 2),
        ("jw1d", 1, 7, 1),
    ])
    def test_box_holds_the_weight_of_every_site_pair(self, kind, dim, length, phi0):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat, phi0=phi0)
        box = enc.displacement_weights()
        assert box.shape == (2 * length,) * dim
        disp = (lat.coords[:, None, :] - lat.coords[None, :, :]) % (2 * length)
        assert np.array_equal(box[tuple(np.moveaxis(disp, -1, 0))], enc.pair_weights()[0, 0])

    def test_position_dependent_encodings_have_none(self):
        assert EncodingWeightModel("jw2d_snake", Lattice(2, 4)).displacement_weights() is None
        assert EncodingWeightModel("bravyi_kitaev", Lattice(1, 8)).displacement_weights() is None


class TestPairValidation:
    def test_bilinear_weight_index_errors(self):
        enc = EncodingWeightModel("jw1d", Lattice(1, 4))
        with pytest.raises(IndexError):
            enc.bilinear_weight(0, 8)
        with pytest.raises(ValueError, match="distinct"):
            enc.bilinear_weight(3, 3)
