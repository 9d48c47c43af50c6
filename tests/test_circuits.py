"""Tests for brickwork circuits, Heisenberg pullbacks, and light cones."""

import numpy as np
import pytest
from scipy.linalg import logm

import fermion_noise.circuits as circuits_module
import fermion_noise.noise as noise_module
from conftest import (
    assert_close,
    dense_rotation,
    random_correlation,
    random_gaussian_state,
    random_normalized_observable,
)
from fermion_noise import (
    Circuit,
    EncodingWeightModel,
    GaussianState,
    Lattice,
    Layer,
    PauliChannel,
    QuadraticObservable,
    attenuation_matrix,
    brickwork_circuit,
    circuit_expectation,
    evolve_state,
    fermi_sea_1d,
    heisenberg_observable,
    lightcone_correlation_check,
    pair_attenuation,
    prefix_expectations,
)
from fermion_noise.circuits import _pull_back
from fermion_noise.gaussian import haar_rotations, haar_special_orthogonal
from oracle import (
    dense_expectation,
    dense_free_unitary,
    dense_gaussian_density_matrix,
    dense_layer,
    dense_quadratic_observable,
    dense_to_covariance,
)


def _coeff_trace_norm(obs):
    return np.linalg.svd(obs.coefficients, compute_uv=False).sum()


def _dense_pull_back(obs, circuit, lam):
    """Reference pullback: damp and rotate the full 2N x 2N matrix per layer."""
    coeffs = obs.coefficients.copy()
    for rot in map(dense_rotation, reversed(circuit.layers)):
        if lam is not None:
            coeffs *= lam
        coeffs = rot.T @ coeffs @ rot
    return coeffs


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


def _dense_brickwork_layers(lattice, depth, radius, rng):
    """Reference construction: every layer an identity with its Haar gates scattered in."""
    block = radius + 1
    n = lattice.n_majorana
    layers = []
    for layer_idx in range(depth):
        blocks = _site_blocks(lattice, layer_idx % lattice.dim,
                              (layer_idx // lattice.dim) % block, block)
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
    return layers


class TestGateBlockLayers:
    @pytest.mark.parametrize("dim,length,radius,depth", [
        (1, 512, 1, 8), (1, 7, 1, 4), (1, 11, 1, 4), (2, 5, 1, 4), (2, 6, 1, 4), (2, 7, 1, 4),
        (1, 11, 2, 6), (2, 7, 2, 4)])
    def test_layers_scatter_to_the_dense_construction(self, dim, length, radius, depth):
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, depth, radius, rng=np.random.default_rng(71))
        dense = _dense_brickwork_layers(lat, depth, radius, np.random.default_rng(71))
        for layer_idx, (layer, rot) in enumerate(zip(circ.layers, dense)):
            assert np.array_equal(dense_rotation(layer), rot), f"layer {layer_idx}"

    @pytest.mark.parametrize("dim,length,radius", [(1, 9, 1), (1, 10, 2), (2, 5, 1)])
    def test_rows_are_the_dense_rows(self, rng, dim, length, radius):
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, 2 * dim, radius, rng=np.random.default_rng(73))
        for layer in circ.layers:
            rot = dense_rotation(layer)
            for size in (1, 3, 7):
                support = np.sort(rng.choice(lat.n_majorana, size, replace=False))
                cols, rows = layer.rows(support)
                assert np.array_equal(cols, np.unique(cols))
                assert np.array_equal(rows, rot[np.ix_(support, cols)])
                outside = np.setdiff1d(np.arange(lat.n_majorana), cols)
                assert not rot[np.ix_(support, outside)].any()

    def test_apply_is_the_dense_product(self, rng):
        lat = Lattice(2, 5)
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(79))
        mat = rng.normal(size=(lat.n_majorana, 3))
        for layer in circ.layers:
            assert_close(layer.apply(mat), dense_rotation(layer) @ mat, 1e-14, "R @ mat")

    def test_indices_in_no_block_are_left_alone(self, rng):
        gate = haar_special_orthogonal(2, rng)
        layer = Layer(6, ((np.array([[1, 4]]), gate[None]),))
        rot = dense_rotation(layer)
        cols, rows = layer.rows(np.array([0, 4]))
        assert list(cols) == [0, 1, 4]
        assert np.array_equal(rows, rot[np.ix_([0, 4], cols)])
        assert rows[0].tolist() == [1.0, 0.0, 0.0]

    def test_blocks_must_be_disjoint_and_match_their_gates(self):
        gates = np.stack([np.eye(2)] * 2)
        with pytest.raises(ValueError, match="disjoint"):
            Layer(6, ((np.array([[0, 1], [1, 2]]), gates),))
        with pytest.raises(ValueError, match="disjoint"):
            Layer(6, ((np.array([[0, 1]]), gates[:1]), (np.array([[1, 2]]), gates[:1])))
        with pytest.raises(ValueError, match="do not match"):
            Layer(6, ((np.array([[0, 1, 2]]), gates[:1]),))


class TestBrickworkConstruction:
    def test_parameter_validation(self):
        lat = Lattice(1, 4)
        with pytest.raises(ValueError, match="depth"):
            brickwork_circuit(lat, -1)
        with pytest.raises(ValueError, match="radius"):
            brickwork_circuit(lat, 2, radius=0)

    def test_deterministic_under_seed(self):
        lat = Lattice(1, 6)
        a = brickwork_circuit(lat, 3, rng=np.random.default_rng(42))
        b = brickwork_circuit(lat, 3, rng=np.random.default_rng(42))
        assert a.depth == b.depth == 3
        for la, lb in zip(a.layers, b.layers):
            assert (dense_rotation(la) == dense_rotation(lb)).all()

    def test_layers_are_orthogonal(self):
        lat = Lattice(1, 8)
        circ = brickwork_circuit(lat, 4, rng=np.random.default_rng(0))
        for rot in map(dense_rotation, circ.layers):
            assert_close(rot @ rot.T, np.eye(16), 1e-10, "R R^T")
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_couplings_respect_radius(self):
        for dim, length, radius in [(1, 8, 1), (1, 9, 2), (2, 4, 1)]:
            lat = Lattice(dim, length)
            circ = brickwork_circuit(lat, 2 * dim, radius=radius,
                                     rng=np.random.default_rng(5))
            sites = np.repeat(np.arange(lat.n_sites), 2)
            dist = lat.distance_matrix()[np.ix_(sites, sites)]
            for rot in map(dense_rotation, circ.layers):
                assert np.abs(rot[dist > radius]).max(initial=0.0) == 0.0

    def test_brick_offset_alternates(self):
        # Layer 0 pairs (0, 1), (2, 3); layer 1 slides to (1, 2), (3, 0).
        lat = Lattice(1, 4)
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(11))
        first, second = map(dense_rotation, circ.layers)
        assert abs(first[0, 2]) > 1e-6   # sites 0-1 coupled in layer 0
        assert second[0, 2] == 0.0       # but not in layer 1
        assert abs(second[2, 4]) > 1e-6  # layer 1 couples sites 1-2
        assert first[2, 4] == 0.0

    def test_axes_alternate_in_two_dimensions(self):
        lat = Lattice(2, 4)
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(3))
        coords = lat.coords
        sites = np.repeat(np.arange(lat.n_sites), 2)
        same_y = coords[sites, 1][:, None] == coords[sites, 1][None, :]
        same_x = coords[sites, 0][:, None] == coords[sites, 0][None, :]
        assert np.abs(dense_rotation(circ.layers[0])[~same_y]).max(initial=0.0) == 0.0
        assert np.abs(dense_rotation(circ.layers[1])[~same_x]).max(initial=0.0) == 0.0

    def test_odd_length_gets_truncated_block(self):
        # L = 5 with radius 1: one singleton block per layer, still disjoint.
        lat = Lattice(1, 5)
        circ = brickwork_circuit(lat, 1, rng=np.random.default_rng(9))
        rot = dense_rotation(circ.layers[0])
        assert_close(rot @ rot.T, np.eye(10), 1e-10, "orthogonal")
        sites = np.repeat(np.arange(5), 2)
        dist = lat.distance_matrix()[np.ix_(sites, sites)]
        assert np.abs(rot[dist > 1]).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("dim,length,radius", [(1, 7, 1), (1, 11, 2), (2, 5, 1), (2, 6, 1)])
    def test_batched_draws_keep_the_per_gate_stream(self, dim, length, radius):
        # Odd lengths mix full and truncated gates within one layer; the
        # one-call draw must still hand the normals out gate by gate, in gate
        # order, exactly as one haar_special_orthogonal call per gate did.
        lat = Lattice(dim, length)
        block = radius + 1
        circ = brickwork_circuit(lat, 4, radius, rng=np.random.default_rng(17))
        rng = np.random.default_rng(17)
        for layer_idx, rot in enumerate(map(dense_rotation, circ.layers)):
            expected = np.eye(lat.n_majorana)
            for sites in _site_blocks(lat, layer_idx % dim, (layer_idx // dim) % block, block):
                idx = [m for s in sites for m in (2 * s, 2 * s + 1)]
                expected[np.ix_(idx, idx)] = haar_special_orthogonal(len(idx), rng)
            assert np.array_equal(rot, expected), f"layer {layer_idx}"

    @pytest.mark.parametrize("dim,length", [(1, 7), (1, 8), (2, 5), (2, 6)])
    @pytest.mark.parametrize("block", [2, 3])
    def test_layer_blocks_match_per_site_indexing(self, dim, length, block):
        # Blocks (and so the gate order of the Haar stream) as the per-site
        # construction lays them out, for every axis and brick offset; a
        # layer keeps its gates grouped by size, smallest first.
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, dim * (block + 1), block - 1, rng=np.random.default_rng(3))
        for layer_idx, layer in enumerate(circ.layers):
            got = [list(row[::2] // 2) for indices, _ in layer.blocks for row in indices]
            expected = _site_blocks(lat, layer_idx % dim, (layer_idx // dim) % block, block)
            assert got == sorted(expected, key=len), f"layer {layer_idx}"

    def test_light_cone_radius_property(self):
        circ = brickwork_circuit(Lattice(1, 6), 3, rng=np.random.default_rng(1))
        assert circ.light_cone_radius() == 3
        assert circ.light_cone_radius(depth=2) == 2


class TestEvolution:
    def test_depth_zero_is_identity_even_with_noise(self):
        lat = Lattice(1, 4)
        state, _, _ = fermi_sea_1d(lat, 2)
        circ = Circuit(lattice=lat, radius=1, layers=())
        enc = EncodingWeightModel("jw1d", lat)
        out = evolve_state(state, circ, PauliChannel.depolarizing(0.3), enc)
        assert_close(out.gamma, state.gamma, 1e-15, "depth 0")

    def test_noise_needs_encoding_and_matching_lattice(self):
        lat = Lattice(1, 4)
        state = GaussianState.vacuum(lat)
        circ = brickwork_circuit(lat, 1, rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="encoding"):
            evolve_state(state, circ, PauliChannel.depolarizing(0.1))
        other = EncodingWeightModel("jw1d", Lattice(1, 6))
        with pytest.raises(ValueError, match="disagree"):
            evolve_state(state, circ, PauliChannel.depolarizing(0.1), other)

    def test_schroedinger_heisenberg_duality(self, rng):
        lat = Lattice(1, 6)
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, 6))
        circ = brickwork_circuit(lat, 3, rng=np.random.default_rng(7))
        enc = EncodingWeightModel("jw1d", lat)
        ch = PauliChannel.depolarizing(0.12)
        obs = random_normalized_observable(lat, rng)
        forward = evolve_state(state, circ, ch, enc).expectation(obs)
        pullback = circuit_expectation(state, obs, circ, ch, enc)
        assert forward == pytest.approx(pullback, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_matches_dense_reference(self, rng, p):
        n = 3
        lat = Lattice(1, n)
        state = GaussianState.from_correlation_matrix(lat, random_correlation(rng, n))
        circ = brickwork_circuit(lat, 3, rng=np.random.default_rng(13))
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
            circ = brickwork_circuit(lat, 1, rng=np.random.default_rng(seed))
            ideal = circuit_expectation(state, obs, circ)
            noisy = {}
            for mode in ("exact", "worst-case"):
                noisy[mode] = circuit_expectation(state, obs, circ, ch, enc, mode=mode)
                lam = pair_attenuation(enc, ch, 0, 1, mode)
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
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(21))
        enc = EncodingWeightModel("jw1d", lat)
        p = 0.2
        obs = QuadraticObservable.number(lat, 0)
        noisy = circuit_expectation(state, obs, circ, PauliChannel.depolarizing(p), enc)

        rho = dense_gaussian_density_matrix(state.gamma, max_modes=6)
        for rot in map(dense_rotation, circ.layers):
            h = np.real(logm(rot))
            u = dense_free_unitary(0.5 * (h - h.T), max_modes=6)
            rho = dense_layer(rho, u, p, (1 / 3, 1 / 3, 1 / 3))
        op = dense_quadratic_observable(obs.coefficients, obs.offset, max_modes=6)
        assert noisy == pytest.approx(dense_expectation(rho, op), abs=1e-9)


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
        zero = QuadraticObservable(lat, np.zeros((lat.n_majorana,) * 2), offset=0.7)
        return [random_normalized_observable(lat, rng),
                QuadraticObservable.hopping(lat, 0, 1), zero]

    @staticmethod
    def _assert_matches_dense(state, obs, circ, ch, enc, mode):
        lam = None if ch is None else attenuation_matrix(enc, ch, mode)
        dense = _dense_pull_back(obs, circ, lam)
        pulled = heisenberg_observable(obs, circ, ch, enc, mode)
        assert_close(pulled.coefficients, dense, 1e-12, "pullback")
        assert pulled.offset == obs.offset
        expected = obs.offset + float(np.sum(dense * state.gamma))
        value = circuit_expectation(state, obs, circ, ch, enc, mode)
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dim,length,radius,kind,ch,mode", CASES)
    def test_matches_dense_pullback(self, rng, dim, length, radius, kind, ch, mode):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        state = random_gaussian_state(lat, rng)
        full = brickwork_circuit(lat, 5, radius=radius, rng=np.random.default_rng(41))
        for obs in self._observables(lat, rng):
            for depth in range(full.depth + 1):
                circ = Circuit(lattice=lat, radius=radius, layers=full.layers[:depth])
                self._assert_matches_dense(state, obs, circ, ch, enc, mode)

    def test_dense_layer_gives_full_support(self, rng):
        lat = Lattice(1, 6)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        n = lat.n_majorana
        gate = haar_special_orthogonal(n, rng)
        circ = Circuit(lattice=lat, radius=1, layers=(Layer(n, ((np.arange(n)[None], gate[None]),)),))
        obs = QuadraticObservable.hopping(lat, 0, 1)
        support, _ = _pull_back(obs, circ.layers, None)
        assert len(support) == lat.n_majorana
        self._assert_matches_dense(state, obs, circ, PauliChannel.depolarizing(0.1),
                                   enc, "exact")

    def test_zero_observable_gives_the_offset(self, rng):
        lat = Lattice(1, 8)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        circ = brickwork_circuit(lat, 3, rng=np.random.default_rng(43))
        zero = QuadraticObservable(lat, np.zeros((16, 16)), offset=-0.25)
        ch = PauliChannel.depolarizing(0.3)
        assert circuit_expectation(state, zero, circ, ch, enc) == -0.25
        assert prefix_expectations(state, zero, circ, ch, enc) == [-0.25] * 4
        assert not heisenberg_observable(zero, circ, ch, enc).coefficients.any()

    @pytest.mark.parametrize("dim,length,radius,depth", [
        (1, 16, 1, 6), (1, 17, 2, 4), (2, 6, 1, 4), (1, 512, 1, 8)])
    def test_support_stays_inside_the_light_cone(self, dim, length, radius, depth):
        lat = Lattice(dim, length)
        circ = brickwork_circuit(lat, depth, radius=radius, rng=np.random.default_rng(47))
        obs = QuadraticObservable.hopping(lat, 0, 1)
        to_pair = lat.distance_matrix()[:, [0, 1]].min(axis=1)
        for d in range(depth + 1):
            support, _ = _pull_back(obs, circ.layers[:d], None)
            assert to_pair[support // 2].max() <= circ.light_cone_radius(d), d
        if length == 512:
            # 2 Majoranas on each of the 2 + 2 * 8 sites of the cone, of 1024.
            assert len(support) <= 2 * (2 + 2 * circ.light_cone_radius())
            assert len(support) <= lat.n_majorana // 16


class TestPrefixExpectations:
    def test_entries_match_circuit_expectation_per_prefix(self, rng):
        lat = Lattice(1, 10)
        enc = EncodingWeightModel("jw1d", lat)
        state = random_gaussian_state(lat, rng)
        full = brickwork_circuit(lat, 5, rng=np.random.default_rng(53))
        obs = random_normalized_observable(lat, rng)
        ch = PauliChannel.depolarizing(0.15)
        for noise in ((), (ch, enc, "exact"), (ch, enc, "worst-case")):
            values = prefix_expectations(state, obs, full, *noise)
            assert len(values) == full.depth + 1
            for d, value in enumerate(values):
                prefix = Circuit(lattice=lat, radius=1, layers=full.layers[:d])
                expected = circuit_expectation(state, obs, prefix, *noise)
                assert value == pytest.approx(expected, abs=1e-12), (noise, d)

    def test_damps_on_the_light_cone_only(self, monkeypatch):
        # The noise after each layer is built on the support it damps, never
        # as the (2N, 2N) attenuation matrix: at most 2 Majoranas on each of
        # the 2 + 2 * 5 sites the cone holds before the earliest layer.
        sizes = []
        original = circuits_module.attenuation_block

        def recording(enc, channel, idx, mode):
            sizes.append(len(idx))
            return original(enc, channel, idx, mode)

        def refuse(*args, **kwargs):
            raise AssertionError("attenuation_matrix built")

        monkeypatch.setattr(circuits_module, "attenuation_block", recording)
        monkeypatch.setattr(noise_module, "attenuation_matrix", refuse)
        lat = Lattice(1, 64)
        state, _, _ = fermi_sea_1d(lat, 32)
        circ = brickwork_circuit(lat, 6, rng=np.random.default_rng(59))
        enc = EncodingWeightModel("jw1d", lat)
        obs = QuadraticObservable.hopping(lat, 0, 1)
        values = prefix_expectations(state, obs, circ, PauliChannel.depolarizing(0.1), enc)
        assert len(values) == 7
        assert len(sizes) == 6 * 7 // 2
        assert max(sizes) <= 2 * (2 + 2 * 5)
        prefix_expectations(state, obs, circ)
        assert len(sizes) == 21


class TestObservableNormContraction:
    @pytest.mark.parametrize("kind,dim,length", [("jw1d", 1, 8), ("local", 2, 4)])
    def test_trace_norm_never_grows(self, rng, kind, dim, length):
        lat = Lattice(dim, length)
        enc = EncodingWeightModel(kind, lat)
        ch = PauliChannel.depolarizing(0.2)
        full = brickwork_circuit(lat, 4, rng=np.random.default_rng(31))
        obs = random_normalized_observable(lat, rng)
        norms = []
        for depth in range(5):
            circ = Circuit(lattice=lat, radius=1, layers=full.layers[:depth])
            norms.append(_coeff_trace_norm(heisenberg_observable(obs, circ, ch, enc)))
        assert norms[0] == pytest.approx(1.0, abs=1e-9)
        for before, after in zip(norms, norms[1:]):
            assert after <= before + 1e-9


class TestErrorCurve:
    @staticmethod
    def _errors(state, obs, circ, enc, p_grid):
        ideal = circuit_expectation(state, obs, circ)
        return np.array([abs(circuit_expectation(state, obs, circ, PauliChannel.depolarizing(p),
                                                 enc) - ideal) for p in p_grid])

    def test_zero_noise_gives_zero_error(self, rng):
        lat = Lattice(1, 6)
        state, _, _ = fermi_sea_1d(lat, 3)
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(17))
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
        circ = brickwork_circuit(lat, 2, rng=np.random.default_rng(19))
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
        circ = brickwork_circuit(lat, 1, rng=np.random.default_rng(23))
        with pytest.raises(ValueError, match="product"):
            lightcone_correlation_check(state, circ)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_cone_holds_with_and_without_noise(self, depth):
        lat = Lattice(1, 16)
        state = GaussianState.vacuum(lat)
        circ = brickwork_circuit(lat, depth, rng=np.random.default_rng(depth))
        enc = EncodingWeightModel("jw1d", lat)
        clean = lightcone_correlation_check(state, circ)
        noisy = lightcone_correlation_check(
            state, circ, PauliChannel.depolarizing(0.1), enc)
        for report in (clean, noisy):
            assert report.allowed_distance == 2 * depth
            assert report.ok
            assert report.largest_violation_distance == 0
            assert report.max_outside_magnitude <= 1e-10
            assert report.largest_correlated_distance <= 2 * depth
        assert noisy.support_subset_of_noiseless

    def test_depth_one_correlates_neighbors_only(self):
        lat = Lattice(1, 10)
        state = GaussianState.vacuum(lat)
        circ = brickwork_circuit(lat, 1, rng=np.random.default_rng(29))
        report = lightcone_correlation_check(state, circ)
        assert report.largest_correlated_distance == 1
