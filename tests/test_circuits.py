"""Tests for brickwork circuits, Heisenberg pullbacks, and light cones."""

import math

import numpy as np
import pytest
from scipy.linalg import logm

import fermion_noise.circuits as circuits_module
from conftest import (
    GaussianState,
    assert_close,
    attenuation_matrix,
    dense_coefficients,
    dense_rotation,
    evolve_state,
    full_covariance,
    heisenberg_observable,
    lattice_coords,
    lightcone_correlation_check,
    observable_from_matrix,
    random_correlation,
    random_gaussian_state,
    random_normalized_observable,
    state_from_correlation,
)
from fermion_noise import (
    Circuit,
    EncodingWeightModel,
    Lattice,
    Layer,
    PauliChannel,
    QuadraticObservable,
    attenuation_block,
    brickwork_circuit,
    circulant_power_law_state,
    fermi_sea_1d,
    mode_etas,
    prefix_expectations,
)
from fermion_noise.gaussian import haar_rotations
from oracle import (
    dense_expectation,
    dense_free_unitary,
    dense_gaussian_density_matrix,
    dense_layer,
    dense_quadratic_observable,
    dense_to_covariance,
)


def _coeff_trace_norm(obs):
    return np.linalg.svd(dense_coefficients(obs), compute_uv=False).sum()


def _dense_pull_back(obs, circuit, lam):
    """Reference pullback: damp and rotate the full 2N x 2N matrix per layer."""
    coeffs = dense_coefficients(obs)
    for rot in map(dense_rotation, reversed(circuit.layers)):
        if lam is not None:
            coeffs *= lam
        coeffs = rot.T @ coeffs @ rot
    return coeffs


def _window_rotation(layer, cols, reached):
    """``R[T, T]`` of a window: an identity on ``T`` with the reached gates scattered in."""
    rot = np.eye(len(cols))
    for pos, rows in reached:
        rot[pos[:, :, None], pos[:, None, :]] = layer.gates(rows)
    return rot


def _site_blocks(lattice, axis, offset, block):
    """Per-site reference of a brickwork layer's site blocks, in gate order.

    Lines ordered by the other coordinate, blocks along ``axis`` from the
    brick offset, the last one truncated.
    """
    length = lattice.length
    blocks = []
    for other in range(length if lattice.dim == 2 else 1):
        for start in range(0, length, block):
            sites = []
            for i in range(start, min(start + block, length)):
                coord = [other, other]
                coord[axis] = (offset + i) % length
                sites.append(lattice.site_index(coord[:lattice.dim]))
            blocks.append(sites)
    return blocks


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(z):
    """SplitMix64's finalizer on one Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _reference_key(words):
    """A seed's 64-bit key, word by word on Python ints."""
    key = 0
    for word in words:
        key = _splitmix(((key ^ word) + _GOLDEN) & _M64)
    return key


def _reference_normals(key, first, size):
    """A gate's normals one by one: SplitMix64 from its seed, Box-Muller by math."""
    state = _splitmix(((first * _GOLDEN) & _M64) ^ key)
    uniforms = [((_splitmix((state + j * _GOLDEN) & _M64) >> 11) + 1) * 2.0**-53
                for j in range(1, size * size + size % 2 + 1)]
    normals = []
    for u, v in zip(uniforms[0::2], uniforms[1::2]):
        radius = math.sqrt(-2.0 * math.log(u))
        normals += [radius * math.cos(2.0 * math.pi * v), radius * math.sin(2.0 * math.pi * v)]
    return np.array(normals[:size * size]).reshape(size, size)


def _dense_brickwork_layers(lattice, depth, radius, seed):
    """Reference construction: every layer an identity with its Haar gates scattered in.

    Gate by gate on the per-site blocks, each from the scalar reference of the stream.
    """
    block = radius + 1
    layers = []
    for layer_idx in range(depth):
        key = _reference_key((seed, layer_idx))
        rot = np.eye(lattice.n_majorana)
        for sites in _site_blocks(lattice, layer_idx % lattice.dim,
                                  (layer_idx // lattice.dim) % block, block):
            idx = [m for s in sites for m in (2 * s, 2 * s + 1)]
            rot[np.ix_(idx, idx)] = haar_rotations(_reference_normals(key, idx[0], len(idx)))
        layers.append(rot)
    return layers


class TestGateBlockLayers:
    @pytest.mark.parametrize("dim,length,radius,depth", [
        (1, 512, 1, 8), (1, 7, 1, 4), (1, 11, 1, 4), (2, 5, 1, 4), (2, 6, 1, 4), (2, 7, 1, 4),
        (1, 11, 2, 6), (2, 7, 2, 4)])
    def test_layers_scatter_to_the_dense_construction(self, dim, length, radius, depth):
        # The scalar reference takes math's log, cos and sin where the package
        # takes numpy's, so the gates agree to rounding, not bit for bit.
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, depth, radius, seed=71)
        dense = _dense_brickwork_layers(lat, depth, radius, 71)
        for layer_idx, (layer, rot) in enumerate(zip(circ.layers, dense)):
            assert layer.key == _reference_key((71, layer_idx))
            got = dense_rotation(layer)
            assert np.array_equal(got == 0, rot == 0), f"layer {layer_idx}"
            assert_close(got, rot, 1e-12, f"layer {layer_idx}")

    @pytest.mark.parametrize("dim,length,radius", [(1, 9, 1), (1, 10, 2), (2, 5, 1)])
    def test_window_is_the_dense_block(self, rng, dim, length, radius):
        # R[support] reaches every column of T and none outside it, and the
        # touched gates scattered into an identity on T are exactly R[T, T].
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, 2 * dim, radius, seed=73)
        for layer in circ.layers:
            rot = dense_rotation(layer)
            for size in (1, 3, 7):
                support = rng.choice(lat.n_majorana, size, replace=False)
                cols, reached = layer.window(support)
                assert np.array_equal(cols, np.unique(cols))
                assert np.all(np.abs(rot[np.ix_(support, cols)]).max(axis=0) > 0)
                assert np.array_equal(_window_rotation(layer, cols, reached),
                                      rot[np.ix_(cols, cols)])
                outside = np.setdiff1d(np.arange(lat.n_majorana), cols)
                assert not rot[np.ix_(cols, outside)].any()

    @pytest.mark.parametrize("dim,length,radius", [(1, 7, 1), (1, 11, 2), (2, 5, 1), (2, 6, 1)])
    def test_gates_on_demand_are_the_whole_stack_bit_for_bit(self, rng, dim, length, radius):
        # A window draws nothing: it names the blocks it reaches, and their
        # gates, drawn as a subset, are the layer's whole stack and the gate
        # drawn alone, bit for bit.
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, 2 * dim, radius, seed=17)
        for layer in circ.layers:
            whole = {tuple(row): gate for idx in layer.blocks
                     for row, gate in zip(idx, layer.gates(idx))}
            for size in (1, 4, 9, lat.n_majorana):
                cols, reached = layer.window(rng.choice(lat.n_majorana, size, replace=False))
                for pos, rows in reached:
                    assert np.array_equal(cols[pos], rows)
                    for where, gate in zip(rows, layer.gates(rows)):
                        assert np.array_equal(gate, whole[tuple(where)])
                        assert np.array_equal(gate, layer.gates(where[None])[0])

    def test_indices_in_no_block_are_left_alone(self):
        layer = Layer(6, (np.array([[1, 4]]),), key=5)
        cols, reached = layer.window(np.array([0, 4]))
        assert list(cols) == [0, 1, 4]
        rot = _window_rotation(layer, cols, reached)
        assert np.array_equal(rot, dense_rotation(layer)[np.ix_(cols, cols)])
        assert rot[0].tolist() == [1.0, 0.0, 0.0]

    def test_blocks_must_be_disjoint_and_the_key_a_word(self):
        with pytest.raises(ValueError, match="disjoint"):
            Layer(6, (np.array([[0, 1], [1, 2]]),), key=0)
        with pytest.raises(ValueError, match="disjoint"):
            Layer(6, (np.array([[0, 1]]), np.array([[1, 2]])), key=0)
        with pytest.raises(ValueError, match=r"\(G, k\)"):
            Layer(6, (np.array([0, 1, 2]),), key=0)
        for key in (-1, 1 << 64):
            with pytest.raises(ValueError, match="64-bit"):
                Layer(6, (np.array([[0, 1]]),), key=key)


class TestHaarStream:
    """The package's counter-based Haar stream: what it promises, whatever its bits."""

    def test_the_finalizer_is_splitmix64(self):
        # SplitMix64 seeded at 0 emits _mix(gamma), _mix(2 gamma), ...
        assert circuits_module._mix(_GOLDEN) == 0xE220A8397B1DCDAF
        assert circuits_module._mix(2 * _GOLDEN & _M64) == 0x6E789E6AA1B965F4
        words = np.array([_GOLDEN, 2 * _GOLDEN & _M64, 0, _M64], dtype=np.uint64)
        assert circuits_module._mix(words).tolist() == [_splitmix(int(w)) for w in words]

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
    def test_normals_match_the_scalar_reference(self, size):
        # Keys and integers exactly; the normals to rounding, math's log, cos
        # and sin standing in for numpy's.  An odd size * size drops the
        # last normal of its last pair.
        for words in ((0,), (7, 16), (_M64, 0, 3)):
            key = circuits_module._stream_key(words)
            assert key == _reference_key(words)
            first = np.array([0, 5, 1 << 22])
            got = circuits_module._gate_normals(key, first, size)
            want = [_reference_normals(key, int(f), size) for f in first]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_any_subset_is_drawn_as_in_the_whole_layer(self, rng):
        # Bit for bit: a gate's normals depend on its key and first index alone.
        for lat, radius in ((Lattice(1, 11), 2), (Lattice(2, 5), 1), (Lattice(1, 64), 1)):
            for layer in brickwork_circuit(lat, 2 * lat.dim, radius, seed=5).layers:
                for idx in layer.blocks:
                    whole = layer.gates(idx)
                    for _ in range(4):
                        pick = rng.choice(len(idx), int(rng.integers(1, len(idx) + 1)),
                                          replace=False)
                        assert np.array_equal(layer.gates(idx[pick]), whole[pick])

    def test_equal_seeds_give_equal_circuits_and_others_differ(self):
        lat = Lattice(1, 6)
        a, b = (brickwork_circuit(lat, 3, seed=(42, 6)) for _ in range(2))
        assert a.depth == b.depth == 3
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(dense_rotation(la), dense_rotation(lb))
        # Another seed word, another length word, an int for a one-word sequence.
        for other in ((43, 6), (42, 8), (42,), (6, 42)):
            c = brickwork_circuit(lat, 3, seed=other)
            for la, lc in zip(a.layers, c.layers):
                assert not np.allclose(dense_rotation(la), dense_rotation(lc)), other
        assert [la.key for la in brickwork_circuit(lat, 3, seed=42).layers] == \
            [la.key for la in brickwork_circuit(lat, 3, seed=[42]).layers]

    def test_a_gate_is_a_function_of_seed_layer_and_first_index(self):
        # The gate on sites (0, 1) of layer 0 is the same on any ring.
        gates = []
        for length in (4, 6, 10):
            layer = brickwork_circuit(Lattice(1, length), 1, seed=(3, 1)).layers[0]
            gates.append(layer.gates(layer.blocks[-1][:1]))
        assert all(np.array_equal(gates[0], g) for g in gates[1:])

    def test_seed_words_are_nonnegative_64_bit_integers(self):
        lat = Lattice(1, 4)
        for seed in (-1, 1 << 64, (0, -2), 1.5):
            with pytest.raises((ValueError, TypeError)):
                brickwork_circuit(lat, 1, seed=seed)
        brickwork_circuit(lat, 1, seed=(_M64, 0))

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_haar_moments(self, size):
        # Over 2^15 gates, each within 5 standard errors: E[R_ij^2] = 1/k per
        # entry, E[tr R] = 0, E[(tr R)^2] = 1 (2 on SO(2)).
        count = 1 << 15
        layer = Layer(count * size, (np.arange(count * size).reshape(count, size),),
                      key=circuits_module._stream_key((size,)))
        rot = layer.gates(layer.blocks[0])
        trace = np.trace(rot, axis1=1, axis2=2)
        for samples, mean, label in ((rot**2, 1.0 / size, "E[R_ij^2]"),
                                     (trace, 0.0, "E[tr R]"),
                                     (trace**2, 2.0 if size == 2 else 1.0, "E[(tr R)^2]")):
            error = np.abs(samples.mean(axis=0) - mean)
            assert np.all(error <= 5.0 * samples.std(axis=0, ddof=1) / np.sqrt(count)), label

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_gates_are_special_orthogonal(self, size):
        count = 1 << 12
        layer = Layer(count * size, (np.arange(count * size).reshape(count, size),), key=9)
        rot = layer.gates(layer.blocks[0])
        assert np.abs(rot @ np.swapaxes(rot, 1, 2) - np.eye(size)).max() <= 1e-14
        assert np.abs(np.linalg.det(rot) - 1.0).max() <= 1e-14


class TestBrickworkConstruction:
    def test_parameter_validation(self):
        lat = Lattice(1, 4)
        with pytest.raises(ValueError, match="depth"):
            brickwork_circuit(lat, -1)
        with pytest.raises(ValueError, match="radius"):
            brickwork_circuit(lat, 2, radius=0)

    def test_layers_are_orthogonal(self):
        lat = Lattice(1, 8)
        circ = brickwork_circuit(lat, 4, seed=0)
        for rot in map(dense_rotation, circ.layers):
            assert_close(rot @ rot.T, np.eye(16), 1e-10, "R R^T")
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_couplings_respect_radius(self):
        for dim, length, radius in [(1, 8, 1), (1, 9, 2), (2, 4, 1)]:
            lat = Lattice(dim, length)
            circ = brickwork_circuit(lat, 2 * dim, radius=radius,
                                     seed=5)
            sites = np.repeat(np.arange(lat.n_sites), 2)
            dist = lat.distance_matrix()[np.ix_(sites, sites)]
            for rot in map(dense_rotation, circ.layers):
                assert np.abs(rot[dist > radius]).max(initial=0.0) == 0.0

    def test_brick_offset_alternates(self):
        # Layer 0 pairs (0, 1), (2, 3); layer 1 slides to (1, 2), (3, 0).
        lat = Lattice(1, 4)
        circ = brickwork_circuit(lat, 2, seed=11)
        first, second = map(dense_rotation, circ.layers)
        assert abs(first[0, 2]) > 1e-6   # sites 0-1 coupled in layer 0
        assert second[0, 2] == 0.0       # but not in layer 1
        assert abs(second[2, 4]) > 1e-6  # layer 1 couples sites 1-2
        assert first[2, 4] == 0.0

    def test_axes_alternate_in_two_dimensions(self):
        lat = Lattice(2, 4)
        circ = brickwork_circuit(lat, 2, seed=3)
        coords = lattice_coords(lat)
        sites = np.repeat(np.arange(lat.n_sites), 2)
        same_y = coords[sites, 1][:, None] == coords[sites, 1][None, :]
        same_x = coords[sites, 0][:, None] == coords[sites, 0][None, :]
        assert np.abs(dense_rotation(circ.layers[0])[~same_y]).max(initial=0.0) == 0.0
        assert np.abs(dense_rotation(circ.layers[1])[~same_x]).max(initial=0.0) == 0.0

    def test_odd_length_gets_truncated_block(self):
        # L = 5 with radius 1: one singleton block per layer, still disjoint.
        lat = Lattice(1, 5)
        circ = brickwork_circuit(lat, 1, seed=9)
        rot = dense_rotation(circ.layers[0])
        assert_close(rot @ rot.T, np.eye(10), 1e-10, "orthogonal")
        sites = np.repeat(np.arange(5), 2)
        dist = lat.distance_matrix()[np.ix_(sites, sites)]
        assert np.abs(rot[dist > 1]).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("dim,layouts", [(1, 2), (2, 4)])
    def test_layers_of_one_phase_share_their_layout(self, dim, layouts):
        # Layouts repeat every dim * (radius + 1) layers: each (axis, offset)
        # phase builds its index arrays and lookup once, and every layer keeps
        # its own key.
        circ = brickwork_circuit(Lattice(dim, 8), 16, seed=3)
        assert len({id(layer._where) for layer in circ.layers}) == layouts
        assert len({id(idx) for layer in circ.layers for idx in layer.blocks}) == layouts
        assert len({layer.key for layer in circ.layers}) == 16
        with pytest.raises(ValueError, match="64-bit"):
            circ.layers[0]._rekeyed(1 << 64)

    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 5), (2, 6)])
    @pytest.mark.parametrize("block", [2, 3])
    def test_layer_blocks_match_per_site_indexing(self, dim, length, block):
        # Blocks as the per-site construction lays them out, for every axis
        # and brick offset; a layer keeps its gates grouped by size, smallest
        # first, and its lookup table in int32.
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, dim * (block + 1), block - 1, seed=3)
        for layer_idx, layer in enumerate(circ.layers):
            got = [list(row[::2] // 2) for indices in layer.blocks for row in indices]
            expected = _site_blocks(lat, layer_idx % dim, (layer_idx // dim) % block, block)
            assert got == sorted(expected, key=len), f"layer {layer_idx}"
            assert layer._where.dtype == np.int32


class TestEvolution:
    def test_depth_zero_is_identity_even_with_noise(self):
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 2)
        circ = Circuit(lattice=lat, radius=1, layers=())
        enc = EncodingWeightModel("jw1d", lat)
        out = evolve_state(state, circ, PauliChannel.depolarizing(0.3), enc)
        assert_close(out.gamma, full_covariance(state), 1e-15, "depth 0")

    def test_noise_needs_encoding_and_matching_lattice(self):
        # The production entry point, the forward sweep.
        lat = Lattice(1, 4)
        state = GaussianState.vacuum(lat)
        obs = QuadraticObservable.number(lat, 0)
        circ = brickwork_circuit(lat, 1, seed=2)
        etas = PauliChannel.depolarizing(0.1).etas
        with pytest.raises(ValueError, match="encoding"):
            prefix_expectations(state, obs, circ, etas, None)
        for other in (Lattice(1, 6), Lattice(2, 2)):
            with pytest.raises(ValueError, match="disagree"):
                prefix_expectations(state, obs, circ, etas, EncodingWeightModel("local", other))
        # An equal lattice; and without noise the encoding is not read.
        prefix_expectations(state, obs, circ, etas, EncodingWeightModel("jw1d", Lattice(1, 4)))
        for quiet in (None, (1.0, 1.0, 1.0), PauliChannel.depolarizing(0.0).etas):
            assert prefix_expectations(state, obs, circ, quiet, None)[1] == \
                prefix_expectations(state, obs, circ)[0]

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("etas", [(2.0, 2.0, 2.0), (0.9, 0.9), (0.9, -0.1, 0.9), 0.9])
    def test_etas_are_checked_at_entry_at_any_depth(self, depth, etas):
        # A depth-0 circuit damps nothing, so no damping call would see them.
        lat = Lattice(1, 8)
        state, _, _ = fermi_sea_1d(lat, 4)
        circ = brickwork_circuit(lat, depth, seed=3)
        for enc in (None, EncodingWeightModel("jw1d", lat)):
            with pytest.raises(ValueError, match="etas"):
                prefix_expectations(state, QuadraticObservable.hopping(lat, 0, 1), circ, etas, enc)

    def test_schroedinger_heisenberg_duality(self, rng):
        lat = Lattice(1, 6)
        state = state_from_correlation(lat, random_correlation(rng, 6))
        circ = brickwork_circuit(lat, 3, seed=7)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.12)
        obs = random_normalized_observable(lat, rng)
        forward = evolve_state(state, circ, ch, enc).expectation(obs)
        _, sweep = prefix_expectations(state, obs, circ, ch.etas, enc)
        assert forward == pytest.approx(sweep[-1], abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_matches_dense_reference(self, rng, p):
        n = 3
        lat = Lattice(1, n)
        state = state_from_correlation(lat, random_correlation(rng, n))
        circ = brickwork_circuit(lat, 3, seed=13)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(p) if p else None
        evolved = evolve_state(state, circ, ch, enc)

        rho = dense_gaussian_density_matrix(state.gamma)
        for rot in map(dense_rotation, circ.layers):
            h = np.real(logm(rot))
            h = 0.5 * (h - h.T)
            u = dense_free_unitary(h)
            rho = dense_layer(rho, u, p, (1 / 3, 1 / 3, 1 / 3))
        assert_close(dense_to_covariance(rho), evolved.gamma, 1e-9, "dense circuit")

    def test_worst_case_damps_at_least_as_much(self):
        # At depth 1 the last (only) noise layer scales the single bilinear of
        # n_0 by one factor, so noisy - 1/2 = lambda_01 * (ideal - 1/2) with
        # 0 <= lambda_worst <= lambda_exact <= 1 and both orderings follow.
        # Depth >= 2 is not asserted: the elementwise damping does not commute
        # with the next rotation and can move weight onto entries that
        # correlate more strongly with the state, so <n_0> may end up farther
        # from 1/2 than in the ideal circuit (see the dense-oracle check below).
        lat = Lattice(1, 6)
        state, _, _ = fermi_sea_1d(lat, 3)
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.2)
        obs = QuadraticObservable.number(lat, 0)
        for seed in range(24):
            circ = brickwork_circuit(lat, 1, seed=seed)
            noisy = {}
            for mode in ("exact", "worst-case"):
                etas = mode_etas(ch, mode)
                runs = prefix_expectations(state, obs, circ, etas, enc)
                ideal, noisy[mode] = runs[0][-1], runs[1][-1]
                lam = attenuation_block(enc, etas, [0, 1])[0, 1]
                assert noisy[mode] - 0.5 == pytest.approx(lam * (ideal - 0.5), abs=1e-12), \
                    f"seed {seed}, {mode}"
            # Both noisy values shrink toward the maximally mixed value 1/2.
            assert abs(noisy["worst-case"] - 0.5) <= abs(noisy["exact"] - 0.5) + 1e-12, seed
            assert abs(noisy["exact"] - 0.5) <= abs(ideal - 0.5) + 1e-12, seed

    def test_depth_two_counterexample_matches_dense_oracle(self):
        # Depth 2 at seed 21 drew, on an earlier Haar stream, a circuit whose
        # noisy <n_0> lies farther from 1/2 than the ideal one; whatever the
        # stream draws, the covariance pipeline must agree with the dense
        # density-matrix layers.
        lat = Lattice(1, 6)
        state, _, _ = fermi_sea_1d(lat, 3)
        circ = brickwork_circuit(lat, 2, seed=21)
        enc = EncodingWeightModel("jw1d", lat)
        p = 0.2
        obs = QuadraticObservable.number(lat, 0)
        _, noisy = prefix_expectations(state, obs, circ, PauliChannel.depolarizing(p).etas, enc)

        rho = dense_gaussian_density_matrix(full_covariance(state), max_modes=6)
        for rot in map(dense_rotation, circ.layers):
            h = np.real(logm(rot))
            u = dense_free_unitary(0.5 * (h - h.T), max_modes=6)
            rho = dense_layer(rho, u, p, (1 / 3, 1 / 3, 1 / 3))
        op = dense_quadratic_observable(dense_coefficients(obs), obs.offset, max_modes=6)
        assert noisy[-1] == pytest.approx(dense_expectation(rho, op), abs=1e-9)


class TestLightConePullback:
    # (dim, length, radius, encoding, channel, mode); lengths 7 and 8 at
    # block sizes 2 and 3 and the 5 x 5 torus at block size 3 leave a
    # truncated gate in every row.
    CASES = [
        (1, 10, 1, "jw1d", PauliChannel.depolarizing(0.15), "exact"),
        (1, 7, 1, "jw1d", PauliChannel(0.2, (0.5, 0.3, 0.2)), "exact"),
        (1, 8, 2, "jw1d", PauliChannel(0.2, (0.6, 0.1, 0.3)), "exact"),
        (1, 9, 2, "local", PauliChannel.depolarizing(0.1), "worst-case"),
        (2, 4, 1, "local", PauliChannel.depolarizing(0.1), "exact"),
        (2, 5, 2, "jw2d_snake", PauliChannel.depolarizing(0.2), "worst-case"),
        (2, 4, 1, "local", None, "exact"),
    ]

    @staticmethod
    def _observables(lat, rng):
        zero = observable_from_matrix(lat, np.zeros((lat.n_majorana,) * 2), offset=0.7)
        return [random_normalized_observable(lat, rng),
                QuadraticObservable.hopping(lat, 0, 1), zero]

    @staticmethod
    def _assert_matches_dense(state, obs, circ, ch, enc, mode):
        lam = None if ch is None else attenuation_matrix(enc, ch, mode)
        etas = None if ch is None else mode_etas(ch, mode)
        dense = _dense_pull_back(obs, circ, lam)
        pulled = heisenberg_observable(obs, circ, etas, enc)
        assert_close(dense_coefficients(pulled), dense, 1e-12, "pullback")
        assert pulled.offset == obs.offset
        expected = obs.offset + float(np.sum(dense * full_covariance(state)))
        _, noisy = prefix_expectations(state, obs, circ, etas, enc)
        assert noisy[-1] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim,length,radius,kind,ch,mode", CASES)
    def test_matches_dense_pullback(self, rng, dim, length, radius, kind, ch, mode):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        state = random_gaussian_state(lat, rng)
        full = brickwork_circuit(lat, 5, radius=radius, seed=41)
        for obs in self._observables(lat, rng):
            for depth in range(full.depth + 1):
                circ = Circuit(lattice=lat, radius=radius, layers=full.layers[:depth])
                self._assert_matches_dense(state, obs, circ, ch, enc, mode)

    def test_dense_layer_gives_full_support(self, rng):
        lat = Lattice(1, 6)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        n = lat.n_majorana
        dense = Layer(n, (np.arange(n)[None],), key=circuits_module._stream_key((n,)))
        circ = Circuit(lattice=lat, radius=1, layers=(dense,))
        obs = QuadraticObservable.hopping(lat, 0, 1)
        support = heisenberg_observable(obs, circ).support
        assert len(support) == lat.n_majorana
        self._assert_matches_dense(state, obs, circ, PauliChannel.depolarizing(0.1),
                                   enc, "exact")

    def test_zero_observable_gives_the_offset(self, rng):
        lat = Lattice(1, 8)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        circ = brickwork_circuit(lat, 3, seed=43)
        zero = observable_from_matrix(lat, np.zeros((16, 16)), offset=-0.25)
        etas = PauliChannel.depolarizing(0.3).etas
        assert prefix_expectations(state, zero, circ, etas, enc) == ([-0.25] * 4,) * 2
        assert not heisenberg_observable(zero, circ, etas, enc).block.any()

    @pytest.mark.parametrize("dim,length,radius,depth", [
        (1, 16, 1, 6), (1, 17, 2, 4), (2, 6, 1, 4), (1, 512, 1, 8)])
    def test_support_stays_inside_the_light_cone(self, dim, length, radius, depth):
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, depth, radius=radius, seed=47)
        obs = QuadraticObservable.hopping(lat, 0, 1)
        to_pair = lat.distance_matrix()[:, [0, 1]].min(axis=1)
        for d in range(depth + 1):
            prefix = Circuit(lattice=lat, radius=radius, layers=circ.layers[:d])
            support = heisenberg_observable(obs, prefix).support
            assert to_pair[support // 2].max() <= radius * d, d
        if length == 512:
            # 2 Majoranas on each of the 2 + 2 * 8 sites of the cone, of 1024.
            assert len(support) <= 2 * (2 + 2 * radius * depth)
            assert len(support) <= lat.n_majorana // 16


class TestPrefixExpectations:
    def test_entries_match_the_pullback_per_prefix(self, rng):
        lat = Lattice(1, 10)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        full = brickwork_circuit(lat, 5, seed=53)
        obs = random_normalized_observable(lat, rng)
        ch = PauliChannel.depolarizing(0.15)
        for noise in ((), (ch.etas, enc), (mode_etas(ch, "worst-case"), enc)):
            runs = prefix_expectations(state, obs, full, *noise)
            for run, pull_noise in zip(runs, ((), noise)):
                assert len(run) == full.depth + 1
                for d, value in enumerate(run):
                    prefix = Circuit(lattice=lat, radius=1, layers=full.layers[:d])
                    pulled = heisenberg_observable(obs, prefix, *pull_noise)
                    assert value == pytest.approx(state.expectation(pulled), abs=1e-12), \
                        (pull_noise, d)

    # (dim, length, radius, encoding, channel, mode): odd lengths and the
    # 5 x 5 torus leave a truncated gate in every row.
    SWEEP_CASES = [
        (1, 7, 1, "jw1d", PauliChannel(0.2, (0.5, 0.3, 0.2)), "exact"),
        (1, 7, 2, "local", PauliChannel.depolarizing(0.1), "worst-case"),
        (1, 11, 1, "jw1d", PauliChannel.depolarizing(0.15), "exact"),
        (1, 16, 1, "bravyi_kitaev", PauliChannel.depolarizing(0.15), "exact"),
        (1, 11, 2, "jw1d", PauliChannel(0.25, (0.1, 0.2, 0.7)), "worst-case"),
        (2, 5, 1, "local", PauliChannel.depolarizing(0.1), "exact"),
        (2, 5, 2, "jw2d_snake", PauliChannel.depolarizing(0.2), "worst-case"),
        (2, 5, 1, "local", None, "exact"),
    ]

    @staticmethod
    def _assert_every_prefix_is_the_pullback(state, obs, circ, ch, enc, mode):
        # The ideal run is the pullback without noise, the noisy one with it.
        etas = None if ch is None else mode_etas(ch, mode)
        for run, noise in zip(prefix_expectations(state, obs, circ, etas, enc),
                              ((), (etas, enc))):
            assert len(run) == circ.depth + 1
            for d, value in enumerate(run):
                prefix = Circuit(lattice=circ.lattice, radius=circ.radius,
                                 layers=circ.layers[:d])
                pulled = heisenberg_observable(obs, prefix, *noise)
                expected = pulled.offset + float(np.sum(pulled.block
                                                        * state.covariance_block(pulled.support)))
                assert value == pytest.approx(expected, abs=1e-12), (noise, d)

    @pytest.mark.parametrize("dim,length,radius,kind,ch,mode", SWEEP_CASES)
    def test_every_prefix_matches_the_pullback(self, rng, dim, length, radius, kind, ch, mode):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        state = random_gaussian_state(lat, rng)
        circ = brickwork_circuit(lat, 5, radius=radius, seed=61)
        zero = observable_from_matrix(lat, np.zeros((lat.n_majorana,) * 2), offset=0.3)
        # An unsorted support: the sweep reads it in its own order.
        shuffled = QuadraticObservable(lat, [[0.0, 0.3], [-0.3, 0.0]], offset=0.1,
                                       support=[2 * lat.n_sites - 1, 2], validate=False)
        for obs in (random_normalized_observable(lat, rng), QuadraticObservable.hopping(lat, 0, 1),
                    QuadraticObservable.number(lat, lat.n_sites - 1), zero, shuffled):
            self._assert_every_prefix_is_the_pullback(state, obs, circ, ch, enc, mode)

    def test_a_dense_layer_fills_the_window(self, rng):
        # A full-support Haar layer between two brickwork layers: every
        # earlier window is the whole index set, and the sweep still matches.
        lat = Lattice(1, 7)
        n = lat.n_majorana
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        first, last = brickwork_circuit(lat, 2, seed=67).layers
        dense = Layer(n, (np.arange(n)[None],), key=circuits_module._stream_key((n,)))
        circ = Circuit(lattice=lat, radius=1, layers=(first, dense, last))
        obs = QuadraticObservable.hopping(lat, 0, 1)
        assert len(dense.window(obs.support)[0]) == n
        for noise in ((None, None, "exact"), (PauliChannel.depolarizing(0.1), enc, "exact")):
            self._assert_every_prefix_is_the_pullback(state, obs, circ, *noise)

    def test_damps_on_the_light_cone_only(self, monkeypatch):
        # One window step and, when noisy, one damping per layer, never the
        # depth (depth + 1) / 2 pullbacks of prefix by prefix, and never the
        # (2N, 2N) attenuation matrix: each window holds at most 2 Majoranas
        # on each of the 2 + 2 * (6 - d) sites of the cone after layer d.
        steps, damped = [], []
        window, attenuation = Layer.window, circuits_module.attenuation_block

        def stepping(layer, support):
            steps.append(len(support))
            return window(layer, support)

        def damping(enc, etas, idx):
            damped.append(len(idx))
            return attenuation(enc, etas, idx)

        monkeypatch.setattr(Layer, "window", stepping)
        monkeypatch.setattr(circuits_module, "attenuation_block", damping)
        lat = Lattice(1, 64)
        state, _, _ = fermi_sea_1d(lat, 32)
        circ = brickwork_circuit(lat, 6, seed=59)
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.hopping(lat, 0, 1)
        ideal, noisy = prefix_expectations(state, obs, circ, PauliChannel.depolarizing(0.1).etas,
                                           enc)
        assert len(ideal) == len(noisy) == 7
        assert len(steps) == 6 and len(damped) == 6
        # Window calls run from the last layer back, damping from the first on.
        assert all(size <= 2 * (2 + 2 * j) for j, size in enumerate(steps))
        assert damped == steps[::-1]
        prefix_expectations(state, obs, circ)
        assert len(steps) == 12 and len(damped) == 6

    def test_only_the_gates_in_the_cone_are_orthogonalized(self, monkeypatch):
        # Building the circuit orthogonalizes nothing; one sweep orthogonalizes
        # the gates that its windows touch, counted here on the dense
        # per-site light cone, out of 8 * 256 = 2048, in one call for its
        # one gate size.
        orthogonalized = []

        def counting(normals):
            orthogonalized.append(len(normals))
            return haar_rotations(normals)

        monkeypatch.setattr(circuits_module, "haar_rotations", counting)
        lat = Lattice(1, 512)
        circ = brickwork_circuit(lat, 8, seed=1)
        assert orthogonalized == []
        assert sum(len(idx) for layer in circ.layers for idx in layer.blocks) == 2048
        cone, touched = {0, 1, 2, 3}, 0
        for layer in reversed(circ.layers):
            idx, = layer.blocks
            hit = [set(row) for row in idx.tolist() if cone & set(row)]
            touched += len(hit)
            cone = cone.union(*hit)
        state, _ = circulant_power_law_state(lat, 2.0)
        enc = EncodingWeightModel("local", lat)
        prefix_expectations(state, QuadraticObservable.hopping(lat, 0, 1), circ,
                            PauliChannel.depolarizing(0.01).etas, enc)
        assert sum(orthogonalized) == touched <= 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9
        assert len(orthogonalized) == 1

    @pytest.mark.parametrize("dim,length,radius", [(1, 10, 2), (2, 8, 2), (1, 64, 2)])
    @pytest.mark.parametrize("batch_entries", [None, 40])
    def test_a_sweep_draws_the_gates_of_each_layer_bit_for_bit(self, rng, monkeypatch, dim,
                                                                length, radius, batch_entries):
        # The sweep stacks every layer's touched gates by size and draws them
        # in one batch per size; split back by layer, each is Layer.gates of
        # its rows.  A length off the block size leaves a truncated gate in
        # every row, so two sizes occur.  With a batch of 40 normals, one
        # gate of 6 x 6 or ten of 2 x 2 are drawn at a time, to the same bits.
        if batch_entries is not None:
            monkeypatch.setattr(circuits_module, "_BATCH_ENTRIES", batch_entries)
        draws, orthogonalized = [], []
        draw = circuits_module._draw

        def recording(layers, reached):
            touched = draw(layers, reached)
            draws.append((layers, reached, touched))
            return touched

        def counting(normals):
            orthogonalized.append(normals.shape[1])
            return haar_rotations(normals)

        monkeypatch.setattr(circuits_module, "_draw", recording)
        monkeypatch.setattr(circuits_module, "haar_rotations", counting)
        lat = Lattice(dim, length)
        state = random_gaussian_state(lat, rng) if lat.n_sites <= 64 else \
            circulant_power_law_state(lat, dim + 2.0)[0]
        circ = brickwork_circuit(lat, 6, radius=radius, seed=71)
        prefix_expectations(state, QuadraticObservable.hopping(lat, 0, 1), circ)
        (layers, reached, touched), = draws
        batches = list(orthogonalized)
        assert layers == circ.layers and len(reached) == len(touched) == circ.depth
        sizes = set()
        for layer, blocks, gates in zip(layers, reached, touched):
            assert len(blocks) == len(gates)
            for (pos, rows), (at, drawn) in zip(blocks, gates):
                assert at is pos
                assert np.array_equal(drawn, layer.gates(rows))
                sizes.add(rows.shape[1])
        assert len(sizes) == 2
        if batch_entries is None:
            assert sorted(batches) == sorted(sizes)
        else:
            assert set(batches) == sizes and len(batches) > 2


class TestObservableNormContraction:
    @pytest.mark.parametrize("kind,dim,length", [("jw1d", 1, 8), ("local", 2, 4)])
    def test_trace_norm_never_grows(self, rng, kind, dim, length):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        ch = PauliChannel.depolarizing(0.2)
        full = brickwork_circuit(lat, 4, seed=31)
        obs = random_normalized_observable(lat, rng)
        norms = []
        for depth in range(5):
            circ = Circuit(lattice=lat, radius=1, layers=full.layers[:depth])
            norms.append(_coeff_trace_norm(heisenberg_observable(obs, circ, ch.etas, enc)))
        assert norms[0] == pytest.approx(1.0, abs=1e-9)
        for before, after in zip(norms, norms[1:]):
            assert after <= before + 1e-9


class TestErrorCurve:
    @staticmethod
    def _errors(state, obs, circ, enc, p_grid):
        runs = (prefix_expectations(state, obs, circ, PauliChannel.depolarizing(p).etas, enc)
                for p in p_grid)
        return np.array([abs(noisy[-1] - ideal[-1]) for ideal, noisy in runs])

    def test_zero_noise_gives_zero_error(self, rng):
        lat = Lattice(1, 6)
        state, _, _ = fermi_sea_1d(lat, 3)
        circ = brickwork_circuit(lat, 2, seed=17)
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.number(lat, 1)
        errs = self._errors(state, obs, circ, enc, [0.0, 0.1, 0.3])
        assert errs[0] == 0.0
        assert np.all(errs <= 1.0)

    def test_error_is_smooth_in_p(self, rng):
        # No kinks at the 1e-4 scale: second differences stay tiny and the
        # local slope is order one.
        lat = Lattice(1, 8)
        state, _, _ = fermi_sea_1d(lat, 4)
        circ = brickwork_circuit(lat, 2, seed=19)
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.number(lat, 3)
        dp = 1e-4
        p_grid = 0.05 + dp * np.arange(21)
        errs = self._errors(state, obs, circ, enc, p_grid)
        first = np.abs(np.diff(errs))
        second = np.abs(np.diff(errs, n=2))
        assert first.max() <= 10.0 * dp
        assert second.max() < 1e-6


class TestLightCone:
    def test_requires_product_state(self):
        lat = Lattice(1, 8)
        state, _, _ = fermi_sea_1d(lat, 4)
        circ = brickwork_circuit(lat, 1, seed=23)
        with pytest.raises(ValueError, match="product"):
            lightcone_correlation_check(state, circ)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_cone_holds_with_and_without_noise(self, depth):
        lat = Lattice(1, 16)
        state = GaussianState.vacuum(lat)
        circ = brickwork_circuit(lat, depth, seed=depth)
        enc = EncodingWeightModel("jw1d", lat)
        clean = lightcone_correlation_check(state, circ)
        noisy = lightcone_correlation_check(
            state, circ, PauliChannel.depolarizing(0.1), enc)
        for report in (clean, noisy):
            assert report.allowed_distance == 2 * depth
            assert report.largest_violation_distance == 0
            assert report.max_outside_magnitude <= 1e-10
            assert report.largest_correlated_distance <= 2 * depth
        assert noisy.support_subset_of_noiseless

    def test_depth_one_correlates_neighbors_only(self):
        lat = Lattice(1, 10)
        state = GaussianState.vacuum(lat)
        circ = brickwork_circuit(lat, 1, seed=29)
        report = lightcone_correlation_check(state, circ)
        assert report.largest_correlated_distance == 1
