"""Acceptance suite: one test per release criterion, each printing a verdict line.

Every test exercises a complete pipeline end to end -- dense-oracle locks,
bound soundness on random instances, momentum-resolved error maps, encoding
fragility closed forms, finite-size scaling probes, light cones, and circuit
size stability -- with the tolerances and runtime budgets the package commits
to pinned inline.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm, logm

from conftest import (SEED, bk_beta_matrix, bk_number_operator_weight_from_beta,
                      damped_random_state, decay_constant, dense_coefficients, dense_rotation,
                      evolve_state, lightcone_correlation_check, random_normalized_observable,
                      state_from_correlation)
from fermion_noise import (
    EncodingWeightModel,
    Lattice,
    ModeDiagonalState,
    PauliChannel,
    QuadraticObservable,
    attenuation_block,
    bk_max_number_operator_weight,
    brickwork_circuit,
    circulant_power_law_state,
    fermi_sea,
    fermi_sea_1d,
    free_dispersion,
    measurement_error,
    mode_etas,
    momentum_error_map,
    momentum_grid,
    occupied_modes,
    parity_of,
    prefix_expectations,
    tight_binding_dispersion,
)
from fermion_noise import cli
from fermion_noise.bounds import (
    DecayParams,
    bound_S,
    bound_S1,
    bound_S2,
    fermi2d_limit_error,
    fermi2d_on_surface_error,
    jump_scaling_probe,
    lipschitz_scaling_probe,
    noise_factor,
    prop3_bound,
)
from oracle import (
    dense_expectation,
    dense_free_unitary,
    dense_gaussian_density_matrix,
    dense_layer,
    dense_majorana_set,
    dense_pauli_channel,
    dense_quadratic_observable,
    gf2_inverse,
)

DEPOLARIZING_ALPHAS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _verdict(number, summary):
    print(f"criterion {number:02d} PASS: {summary}")


def _random_channel(rng):
    p = float(rng.uniform(0.0, 2.0 / 3.0))
    alphas = rng.dirichlet((1.0, 1.0, 1.0))
    return PauliChannel(p=p, alphas=tuple(alphas))


def test_criterion_01_channel_eigenvalue_lock():
    """Dense channel sends every encoded bilinear to lambda times itself.

    All Majorana bilinears on chains of up to 4 modes, 20 channel parameter
    sets per size, eigenvalue matched to 1e-12 against the weight-model
    prediction; budget 10 s.
    """
    start = time.perf_counter()
    checked = 0
    for n_modes in (1, 2, 3, 4):
        lat = Lattice(1, n_modes)
        enc = EncodingWeightModel("jw1d", lat)
        gammas = dense_majorana_set(n_modes)
        rng = np.random.default_rng([SEED, 1, n_modes])
        channels = [PauliChannel.depolarizing(0.2),
                    PauliChannel(p=2.0 / 3.0, alphas=tuple(rng.dirichlet((1, 1, 1))))]
        channels += [_random_channel(rng) for _ in range(18)]
        for channel in channels:
            for a in range(2 * n_modes):
                for b in range(a + 1, 2 * n_modes):
                    bilinear = gammas[a] @ gammas[b]
                    mapped = dense_pauli_channel(bilinear, n_modes, channel.p,
                                                 channel.alphas)
                    lam = attenuation_block(enc, mode_etas(channel, "exact"), [a, b])[0, 1]
                    dev = np.abs(mapped - lam * bilinear).max()
                    assert dev <= 1e-12, (
                        f"bilinear ({a},{b}) at N={n_modes}: eigenvalue "
                        f"deviation {dev:.2e} for p={channel.p}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(1, f"{checked} bilinear eigenvalues locked to 1e-12 "
                f"in {elapsed:.1f} s")


def test_criterion_02_dense_circuit_equivalence():
    """Covariance pipeline matches the dense density-matrix oracle to 1e-9.

    50 random tuples of (mixed Gaussian state, unit-trace-norm observable,
    depth <= 3 brickwork circuit, depolarizing p in {0, 0.05, 0.2}) at
    N = 3; budget 30 s.
    """
    start = time.perf_counter()
    lat = Lattice(1, 3)
    enc = EncodingWeightModel("jw1d", lat)
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng([SEED, 2, trial])
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(a)
        corr = (q * rng.uniform(0.0, 1.0, size=3)) @ q.conj().T
        state = state_from_correlation(lat, corr)
        obs = random_normalized_observable(lat, rng)
        depth = trial % 4
        p = (0.0, 0.05, 0.2)[trial % 3]
        circuit = brickwork_circuit(lat, radius=1, depth=depth, seed=[SEED, 2, trial])

        channel = PauliChannel.depolarizing(p)
        _, noisy = prefix_expectations(state, obs, circuit, channel.etas, enc)
        lib_value = noisy[-1]

        rho = dense_gaussian_density_matrix(state.gamma)
        for rotation in map(dense_rotation, circuit.layers):
            gen = np.real(logm(rotation))
            gen = 0.5 * (gen - gen.T)
            assert np.abs(expm(gen) - rotation).max() <= 1e-9, "log/exp round trip"
            rho = dense_layer(rho, dense_free_unitary(gen), p, DEPOLARIZING_ALPHAS)
        dense_value = dense_expectation(
            rho, dense_quadratic_observable(dense_coefficients(obs), obs.offset))

        dev = abs(lib_value - dense_value)
        worst = max(worst, dev)
        assert dev <= 1e-9, f"trial {trial}: |covariance - dense| = {dev:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(2, f"50 noisy-circuit tuples matched dense oracle, worst "
                f"deviation {worst:.1e}, {elapsed:.1f} s")


def test_criterion_03_measurement_bound_soundness():
    """measurement_error never exceeds the closed-form bound on any instance.

    50 power-law-damped random states (premise re-verified against the
    measured decay constant per instance), 20 unit-trace-norm observables
    each, p in {1e-3, 1e-2, 1e-1}; zero violations allowed.
    """
    violations = 0
    checks = 0
    for trial in range(50):
        rng = np.random.default_rng([SEED, 3, trial])
        dim = 1 + trial % 2
        length = int(rng.integers(8, 17)) if dim == 1 else int(rng.choice([4, 6, 8, 12]))
        lat = Lattice(dim, length)
        mu = float(rng.uniform(dim + 0.2, dim + 3.0))
        state = damped_random_state(lat, mu, rng)
        k_const = decay_constant(state, mu)

        site_dist = lat.distance_matrix()
        dist = np.repeat(np.repeat(site_dist, 2, axis=0), 2, axis=1)
        envelope = k_const * (1.0 + dist) ** (-mu)
        assert np.all(np.abs(state.gamma) <= envelope + 1e-10), (
            f"trial {trial}: decay premise violated"
        )

        phi0 = int(rng.integers(1, 3))
        enc = EncodingWeightModel("local", lat, phi0=phi0)
        params = DecayParams(K=k_const, mu=mu, D=dim, phi0=phi0)
        for _ in range(20):
            obs = random_normalized_observable(lat, rng)
            for p in (1e-3, 1e-2, 1e-1):
                err = measurement_error(state, obs, enc, PauliChannel.depolarizing(p).etas)
                bound = noise_factor(params, p)
                checks += 1
                if err > bound:
                    violations += 1
    assert violations == 0, f"{violations} bound violations out of {checks}"
    _verdict(3, f"{checks} error-vs-bound checks across 50 damped states, "
                f"zero violations")


def _shell_count(dim, d):
    if d == 0:
        return 1
    return 2 if dim == 1 else 4 * d


def test_criterion_04_lattice_sum_bounds():
    """Brute-force lattice sums never exceed their closed-form bounds.

    100 random parameter tuples with D in {1, 2} and mu in (D, D+3]; the
    near and far sums are accumulated shell by shell and compared against
    bound_S1 / bound_S2 / bound_S; zero violations allowed.
    """
    rng = np.random.default_rng([SEED, 4])
    for trial in range(100):
        dim = 1 + trial % 2
        mu = float(rng.uniform(dim + 0.05, dim + 3.0))
        r = float(rng.uniform(0.2, 0.999))
        k_const = float(rng.uniform(0.1, 2.0))
        while True:
            k1 = float(rng.choice([0.5, 1.0, 2.0]))
            k2 = float(rng.choice([0.0, 1.0, 2.0]))
            d0 = int(rng.integers(0, 9))
            x_max = k1 * d0 + k2
            if x_max == 0.0 or x_max >= 1.0:
                break

        near = sum(_shell_count(dim, d) * (1.0 - r ** (k1 * d + k2))
                   for d in range(d0 + 1))
        d_far = np.arange(d0 + 1, 6000 if dim == 1 else 2500, dtype=float)
        counts = np.full_like(d_far, 2.0) if dim == 1 else 4.0 * d_far
        far = float(np.sum(counts * (1.0 - r ** (k1 * d_far + k2))
                           * k_const * (1.0 + d_far) ** (-mu)))

        s1 = bound_S1(r, k1, k2, d0, dim)
        s2 = bound_S2(r, k1, k2, d0, mu, dim, k_const)
        s_total = bound_S(r, k1, k2, d0, mu, dim, k_const)
        assert near <= s1 + 1e-12, f"trial {trial}: near sum {near} > S1 {s1}"
        assert far <= s2 + 1e-12, f"trial {trial}: far sum {far} > S2 {s2}"
        assert near + far <= s_total + 1e-12, f"trial {trial}: total exceeds S"
    _verdict(4, "100 random near/far lattice sums dominated by "
                "bound_S1/bound_S2/bound_S")


def test_criterion_05_fermi_point_error_growth_1d():
    """Half-filled chain: the error at k_F grows with N, away from it stays flat.

    p = 1e-2 over N in {20, ..., 200}: error(k_F) strictly increasing,
    error(q0 = 2 pi / N) inside a 1.5x band, and the N = 100 sensitivity
    peak within one grid step of pi/2; budget 1 min.
    """
    start = time.perf_counter()
    p = 1e-2
    channel = PauliChannel.depolarizing(p)
    err_kf, err_q0 = [], []
    for n in range(20, 201, 20):
        lat = Lattice(1, n)
        state, grid, occ = fermi_sea_1d(lat, n // 2)
        enc = EncodingWeightModel("jw1d", lat)
        k_f = float(np.abs(grid.momenta[occ]).max())
        errs = momentum_error_map(state, enc, channel.etas,
                                  np.array([[k_f], [2.0 * np.pi / n]]))
        err_kf.append(abs(errs[0]))
        err_q0.append(abs(errs[1]))
    assert all(b > a for a, b in zip(err_kf, err_kf[1:])), (
        f"error(k_F) not strictly increasing: {err_kf}"
    )
    band = max(err_q0) / min(err_q0)
    assert band <= 1.5, f"error(q0) band ratio {band:.3f} > 1.5"

    lat = Lattice(1, 100)
    state, grid, occ = fermi_sea_1d(lat, 50)
    enc = EncodingWeightModel("jw1d", lat)
    positive = grid.momenta[grid.momenta[:, 0] > 0]
    sens = np.abs(momentum_error_map(state, enc, channel.etas, positive)) / p
    k_peak = float(positive[np.argmax(sens), 0])
    step = 2.0 * np.pi / 100
    assert abs(k_peak - np.pi / 2) <= step + 1e-12, (
        f"sensitivity peak at {k_peak:.4f}, not within one grid step of pi/2"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(5, f"k_F error monotone over 10 sizes, q0 band {band:.2f} <= 1.5, "
                f"peak at |k - pi/2| = {abs(k_peak - np.pi/2):.4f}, {elapsed:.1f} s")


def test_criterion_06_fermi_contour_sensitivity_2d():
    """Top-decile sensitivity momenta hug the Fermi contour of the occupied set.

    L = 30, p = 1e-2, fillings {300, 450, 700}: for each, at least 80% of
    the top-decile momenta lie within one grid step of a contour mode
    (occupied with an unoccupied four-neighbour or vice versa); budget 5 min.
    """
    start = time.perf_counter()
    side = 30
    p = 1e-2
    lat = Lattice(2, side)
    enc = EncodingWeightModel("local", lat, phi0=1)
    channel = PauliChannel.depolarizing(p)
    fractions = {}
    for n_occ in (300, 450, 700):
        grid = momentum_grid(lat, parity_of(n_occ))
        state, occ = fermi_sea(grid, n_occ, tight_binding_dispersion)
        sens = np.abs(momentum_error_map(state, enc, channel.etas, grid.momenta)) / p

        m = np.rint((grid.momenta - grid.momenta.min(axis=0))
                    * side / (2.0 * np.pi)).astype(int)
        grid_map = -np.ones((side, side), dtype=int)
        grid_map[m[:, 0], m[:, 1]] = np.arange(len(grid.momenta))
        assert (grid_map >= 0).all(), "mode grid indexing is not a bijection"
        occ_mask = np.zeros(len(grid.momenta), dtype=bool)
        occ_mask[occ] = True

        contour = []
        for i in range(len(grid.momenta)):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                j = grid_map[(m[i, 0] + dx) % side, (m[i, 1] + dy) % side]
                if occ_mask[i] != occ_mask[j]:
                    contour.append(i)
                    break
        contour = np.asarray(contour)

        top = np.argsort(sens)[-len(sens) // 10:]
        dm = np.abs(m[top][:, None, :] - m[contour][None, :, :])
        dm = np.minimum(dm, side - dm)
        steps_away = dm.max(axis=2).min(axis=1)
        fractions[n_occ] = float(np.mean(steps_away <= 1))
        assert fractions[n_occ] >= 0.8, (
            f"filling {n_occ}: only {fractions[n_occ]:.0%} of top-decile "
            f"momenta within one grid step of the contour"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(6, "top-decile contour fractions "
             + ", ".join(f"{k}: {v:.0%}" for k, v in fractions.items())
             + f", {elapsed:.1f} s")


def test_criterion_07_fragility_closed_forms(tmp_path):
    """encoding-compare output matches the exact fragility closed forms.

    Snake-ordered vertical hops give error 1 - (1-p)^(L+1) and the
    worst-case number operator under the tree encoding gives
    1/2 - (1/2)(1-p)^w_max, both to 1e-12, with w_max certified against
    the GF(2) elimination of the beta matrix (tests/oracle.py) for N <= 16.
    """
    out = tmp_path / "curves.json"
    assert cli.main(["encoding-compare", "--L", "16", "--p", "1e-2",
                     "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    p = payload["config"]["p"]
    rows = payload["rows"]

    snake = [row for row in rows if row["encoding"] == "jw2d_snake"]
    assert {row["n_modes"] for row in snake} == {s * s for s in range(2, 17, 2)}
    for row in snake:
        side = int(round(np.sqrt(row["n_modes"])))
        assert row["weight"] == side + 1
        expected = 1.0 - (1.0 - p) ** (side + 1)
        assert abs(row["error"] - expected) <= 1e-12, (
            f"snake side {side}: error {row['error']} != {expected}"
        )

    local = [row for row in rows if row["encoding"] == "local"]
    for row in local:
        assert abs(row["error"] - (1.0 - (1.0 - p) ** 2)) <= 1e-12

    bk_rows = [row for row in rows if row["encoding"] == "bravyi_kitaev"]
    assert {row["n_modes"] for row in bk_rows} == {2, 4, 8, 16, 32, 64, 128, 256}
    for row in bk_rows:
        w_max = bk_max_number_operator_weight(row["n_modes"])
        assert row["weight"] == w_max
        expected = 0.5 - 0.5 * (1.0 - p) ** w_max
        assert abs(row["error"] - expected) <= 1e-12, (
            f"tree encoding N={row['n_modes']}: error {row['error']} != {expected}"
        )

    for n_modes in (2, 4, 8, 16):
        # Row q of beta^-1 flags the qubits whose parity is n_q.
        certified = gf2_inverse(bk_beta_matrix(n_modes)).sum(axis=1)
        assert certified.max() == bk_max_number_operator_weight(n_modes), (
            f"beta-matrix certificate disagrees at N={n_modes}"
        )
        assert certified.tolist() == [bk_number_operator_weight_from_beta(q, n_modes)
                                      for q in range(n_modes)]
    _verdict(7, "snake and tree-encoding error curves equal closed forms to "
                "1e-12; w_max certified for N <= 16")


def test_criterion_08_scaling_probes():
    """Finite-size probes separate fragile and stable momentum occupations.

    At p = 5e-4 (inside the unsaturated regime p*N << 1) the error at an
    occupation step grows linearly: the N = 400 to N = 100 ratio sits in
    [3.2, 4.8].  A half-Brillouin-zone away it is size independent (ratio
    <= 1.2), and a 1/2-Lipschitz profile has log-log error slope >= 0.5.
    """
    p = 5e-4
    at_step = dict(jump_scaling_probe([100, 400], p, k_offset=0.0))
    ratio_step = at_step[400] / at_step[100]
    assert 3.2 <= ratio_step <= 4.8, f"step-error ratio {ratio_step:.3f}"

    far = dict(jump_scaling_probe([100, 400], p, k_offset=np.pi / 2))
    ratio_far = far[400] / far[100]
    assert ratio_far <= 1.2, f"far-from-step ratio {ratio_far:.3f}"

    _, slope = lipschitz_scaling_probe(np.geomspace(1e-3, 1e-1, 5))
    assert slope >= 0.5, f"Lipschitz-profile log-log slope {slope:.3f} < 0.5"
    _verdict(8, f"step ratio {ratio_step:.2f} in [3.2, 4.8], far ratio "
                f"{ratio_far:.3f} <= 1.2, Lipschitz slope {slope:.2f} >= 0.5")


def _torus_damping_kernel(side, p, phi0):
    """Site-damping deficit g(d) = 1 - (1-p)^(phi0 + |d|_1) on the torus."""
    axis = np.minimum(np.arange(side), side - np.arange(side))
    return 1.0 - (1.0 - p) ** (phi0 + axis[:, None] + axis[None, :])


def _direct_occupation_errors(side, occ_m, p, phi0, probes_m):
    """n_k error at grid momenta for a sharp translation-invariant sea.

    Uses the displacement-space form error(k) = (1/N) sum_occ ghat(k - q)
    - g(0)/2 with ghat the FFT of the damping kernel; exact for momenta on
    the mode grid.
    """
    kernel = _torus_damping_kernel(side, p, phi0)
    ghat = np.fft.fft2(kernel).real
    out = []
    for m in probes_m:
        idx = (np.asarray(m)[None, :] - occ_m) % side
        out.append(ghat[idx[:, 0], idx[:, 1]].sum() / side**2 - kernel[0, 0] / 2)
    return np.asarray(out)


def test_criterion_09_surface_error_formulas():
    """On- and off-surface closed forms agree with exact lattice computations.

    On-surface: error(p = 1e-6, k_F = pi/4) in [0.48, 0.5].  Off-surface:
    the stationary-phase form tracks a direct L = 200 low-filling lattice
    sum within 15% for probes at least four grid steps outside the surface
    (the displacement-space sum itself is cross-checked against
    momentum_error_map at L = 20 first).
    """
    on_surface = fermi2d_on_surface_error(1e-6, np.pi / 4)
    assert 0.48 <= on_surface <= 0.5, f"on-surface error {on_surface}"

    # cross-check the direct lattice sum against the library error map
    side = 20
    p_check, phi0 = 0.1, 0
    lat = Lattice(2, side)
    grid = momentum_grid(lat, "odd")
    occ = occupied_modes(grid, 30, energies=free_dispersion(grid.momenta))
    filled = np.zeros(len(grid))
    filled[occ] = 1.0
    state = ModeDiagonalState(grid, filled)
    enc = EncodingWeightModel("local", lat, phi0=phi0)
    occ_m = np.rint(grid.momenta[occ] * side / (2 * np.pi)).astype(int)
    probes_m = [(2, 0), (1, 1), (3, 2), (0, 0)]
    probes_k = np.array(probes_m, dtype=float) * 2.0 * np.pi / side
    ref = momentum_error_map(state, enc, PauliChannel.depolarizing(p_check).etas, probes_k)
    direct = _direct_occupation_errors(side, occ_m, p_check, phi0, probes_m)
    assert np.abs(ref - direct).max() <= 1e-10, "direct sum disagrees with error map"

    # low filling on L = 200: 13 occupied modes, probes on the kx axis
    side = 200
    p = 0.155
    lat = Lattice(2, side)
    grid = momentum_grid(lat, "odd")
    n_occ = 13
    occ = occupied_modes(grid, n_occ, energies=free_dispersion(grid.momenta))
    occ_m = np.rint(grid.momenta[occ] * side / (2 * np.pi)).astype(int)
    dk = 2.0 * np.pi / side
    k_fermi = dk * np.sqrt(n_occ / np.pi)
    probes = [(11, 0), (12, 0), (13, 0)]
    direct = np.abs(_direct_occupation_errors(side, occ_m, p, phi0, probes))
    ratios = []
    for (m, _), value in zip(probes, direct):
        delta = m * dk - k_fermi
        assert delta >= 4 * dk, "probe too close to the surface"
        ratios.append(value / fermi2d_limit_error(p, k_fermi, delta))
    worst = max(abs(r - 1.0) for r in ratios)
    assert worst <= 0.15, f"off-surface ratios {ratios} deviate by {worst:.3f}"
    _verdict(9, f"on-surface error {on_surface:.4f} in [0.48, 0.5]; "
                f"off-surface ratios {[f'{r:.3f}' for r in ratios]} within 15%")


def test_criterion_10_light_cone_containment():
    """Brickwork correlations stay inside the strict cone, noisy or not.

    Product initial states, radius-1 circuits up to depth 4, evolved with
    and without depolarizing noise: no correlation above 1e-10 beyond
    distance 2*depth, and noise never enlarges the correlated support.
    """
    cases = 0
    for dim, side, depths in ((1, 20, range(5)), (2, 6, range(3))):
        lat = Lattice(dim, side)
        rng = np.random.default_rng([SEED, 10, dim])
        corr = np.diag(rng.uniform(0.0, 1.0, lat.n_sites))
        state = state_from_correlation(lat, corr)
        enc = EncodingWeightModel("local", lat, phi0=1)
        for depth in depths:
            circuit = brickwork_circuit(lat, radius=1, depth=depth,
                                        seed=[SEED, 10, dim, depth])
            for channel in (None, PauliChannel.depolarizing(0.1)):
                report = lightcone_correlation_check(
                    state, circuit, channel, enc if channel else None)
                assert report.allowed_distance == 2 * depth
                assert report.largest_violation_distance == 0, (
                    f"dim {dim} depth {depth}: correlation at distance "
                    f"{report.largest_violation_distance} outside the cone"
                )
                assert report.max_outside_magnitude <= 1e-10
                assert report.support_subset_of_noiseless, (
                    f"dim {dim} depth {depth}: noise enlarged the support"
                )
                cases += 1
    _verdict(10, f"{cases} circuit evolutions confined to distance 2*depth; "
                 f"noise never enlarged the support")


def test_criterion_11_circuit_size_stability():
    """Noisy-circuit error of local observables is system-size independent.

    A translation-invariant mu = D + 2 state through depth-3 radius-1
    brickwork at p = 1e-2: the error averaged over all nearest-neighbour
    hopping pairs at N = 256 stays within a factor 1.3 of the N = 64
    value, and every per-pair error is dominated by the depth-polynomial
    bound.
    """
    mu, depth, p = 3.0, 3, 1e-2
    means = {}
    for length in (64, 256):
        lat = Lattice(1, length)
        state, k_const = circulant_power_law_state(lat, mu)
        enc = EncodingWeightModel("local", lat, phi0=1)
        circuit = brickwork_circuit(lat, radius=1, depth=depth,
                                    seed=[0, length])
        ideal = evolve_state(state, circuit)
        noisy = evolve_state(state, circuit, PauliChannel.depolarizing(p), enc)
        errors = []
        for site in range(length):
            obs = QuadraticObservable.hopping(lat, site, (site + 1) % length)
            errors.append(abs(ideal.expectation(obs) - noisy.expectation(obs)))
        means[length] = float(np.mean(errors))

        params = DecayParams(K=k_const, mu=mu, D=1, phi0=1)
        bound = prop3_bound(params, p, depth).value
        assert max(errors) <= bound, (
            f"N={length}: worst pair error {max(errors):.3e} exceeds bound {bound:.3e}"
        )
    ratio = means[256] / means[64]
    assert 1.0 / 1.3 <= ratio <= 1.3, f"size ratio {ratio:.3f} outside [1/1.3, 1.3]"
    _verdict(11, f"mean hopping error ratio N=256/N=64 = {ratio:.3f} "
                 f"within 1.3x; all pair errors below the depth bound")
