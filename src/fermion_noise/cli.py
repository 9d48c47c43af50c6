"""Experiment runner: momentum-resolved noise errors, fragility curves, bounds.

Five subcommands emit machine-readable tables (CSV by default, JSON for the
bound formulas):

``fermi1d``
    1D Fermi sea at half filling: noisy occupations and errors at the Fermi
    momentum and at the size-dependent momentum ``q0 = 2 pi / N`` across a
    grid of systems, or (``--sweep-k``) the per-momentum sensitivity over the
    whole mode grid of a single system.
``fermi2d``
    Momentum-resolved sensitivity ``|error| / p`` of every mode of a 2D
    tight-binding Fermi sea, for one or several fillings.
``encoding-compare``
    Worst-observable fragility curves of the local, snake-ordered 2D
    Jordan-Wigner, and Bravyi-Kitaev encodings versus system size.
``circuit``
    Exact noisy-versus-ideal error of random brickwork circuits on a
    power-law-correlated initial state, next to its closed-form depth bound.
    With ``--encoding local``, the premise of Proposition 3, an error above
    that bound is a broken invariant (exit 3); ``jw1d`` and
    ``bravyi_kitaev`` lie outside the premise and are not checked.
``bounds``
    Tables of the closed-form stability bounds over small parameter grids.

Configuration comes from flags or from a flat ``key=value`` file passed via
``--config`` (flags win).  Exit codes: 0 on success, 2 for configuration
errors, 3 when a numerical invariant breaks mid-run.  Reruns with identical
configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, IO, List, Optional, Sequence

import numpy as np

from .bounds import DecayParams, fermi2d_limit_error, fermi2d_on_surface_error, \
    on_surface_integral_bound, prop1_bound, prop3_bound, prop4_bound
from .circuits import brickwork_circuit, prefix_expectations
from .encodings import ENCODING_KINDS, EncodingWeightModel, bk_max_number_operator_weight
from .errors import ConfigError, InvariantViolation
from .gaussian import QuadraticObservable, circulant_power_law_state, fermi_sea, \
    fermi_sea_1d, momentum_occupation, tight_binding_dispersion
from .lattice import Lattice, momentum_grid, parity_of
from .noise import MODES, P_MAX, PauliChannel, momentum_error_map

Row = Dict[str, object]

_FERMI2D_DEFAULT_FILLINGS = (300, 450, 700)
_CIRCUIT_DEFAULT_SIZES = (16, 64, 256)
_CIRCUIT_MU_OFFSET = 2.0


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------


def _cast_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_CASTS: Dict[type, Callable[[str], object]] = {
    int: int,
    float: float,
    str: str,
    bool: _cast_bool,
}

# name -> (type, default, help); None defaults are resolved per subcommand.
_OPTIONS: Dict[str, Dict[str, tuple]] = {
    "fermi1d": {
        "p": (float, 1e-2, "depolarizing probability"),
        "L": (int, None, "largest chain length of the size grid (default 200), "
                         "or the chain length in --sweep-k mode (default 100)"),
        "n_occ": (int, None, "particle number for --sweep-k mode (default half filling)"),
        "encoding": (str, "jw1d", "encoding weight model"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
        "mode": (str, "exact", "attenuation mode: exact | worst-case"),
        "sweep_k": (bool, False, "emit sensitivity(k) over the mode grid of one chain"),
    },
    "fermi2d": {
        "p": (float, 1e-2, "depolarizing probability"),
        "L": (int, 30, "side length of the L x L torus"),
        "n_occ": (int, None, "single filling (default: 300, 450 and 700)"),
        "encoding": (str, "local", "encoding weight model"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
        "mode": (str, "exact", "attenuation mode: exact | worst-case"),
    },
    "encoding-compare": {
        "p": (float, 1e-2, "depolarizing probability"),
        "L": (int, 16, "largest 2D side length of the curve grid"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
    },
    "circuit": {
        "p": (float, 1e-2, "depolarizing probability applied after every layer"),
        "L": (int, None, "single chain length (default grid: 16, 64, 256)"),
        "depth": (int, 3, "number of brickwork layers"),
        "seed": (int, 0, "seed for the Haar-random gates"),
        "encoding": (str, "local", "encoding weight model"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
        "mode": (str, "exact", "attenuation mode: exact | worst-case"),
    },
    "bounds": {
        "p": (float, 1e-2, "base noise probability of the tables"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
    },
}

_DEFAULT_FORMAT = {command: "csv" for command in _OPTIONS}
_DEFAULT_FORMAT["bounds"] = "json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermion-noise",
        description="Noise-error experiments for encoded free-fermion observables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        sub = subparsers.add_parser(command, help=f"run the {command} experiment")
        for name, (kind, _, help_text) in options.items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_const", const=True,
                                 default=None, help=help_text)
            else:
                sub.add_argument(flag, type=kind, default=None, help=help_text)
        sub.add_argument("--out", type=str, default=None,
                         help="output path (default: stdout)")
        sub.add_argument("--format", type=str, default=None, choices=("csv", "json"),
                         help=f"output format (default: {_DEFAULT_FORMAT[command]})")
        sub.add_argument("--config", type=str, default=None,
                         help="flat key=value configuration file; flags win")
    return parser


def _parse_config_file(path: str, command: str) -> Dict[str, object]:
    options = _OPTIONS[command]
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not key=value: {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in options:
            raise ConfigError(f"config: unknown key {key!r} for {command}")
        kind = options[key][0]
        try:
            values[key] = _CASTS[kind](text.strip())
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """Merge flag, config-file and default values (in that priority order)."""
    options = _OPTIONS[args.command]
    cfg: Dict[str, object] = {name: opt[1] for name, opt in options.items()}
    if args.config is not None:
        cfg.update(_parse_config_file(args.config, args.command))
    for name in options:
        value = getattr(args, name)
        if value is not None:
            cfg[name] = value
    return cfg


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _validate_common(cfg: Dict[str, object], command: str) -> None:
    if "p" in cfg:
        _require(0.0 <= cfg["p"] <= P_MAX, "p", f"must lie in [0, {P_MAX:.6g}], got {cfg['p']}")
    if "phi0" in cfg:
        _require(cfg["phi0"] >= 0, "phi0", f"must be nonnegative, got {cfg['phi0']}")
    if "mode" in cfg:
        _require(cfg["mode"] in MODES, "mode",
                 f"must be one of {'|'.join(MODES)}, got {cfg['mode']!r}")
    if "encoding" in cfg:
        _require(cfg["encoding"] in ENCODING_KINDS, "encoding",
                 f"must be one of {'|'.join(ENCODING_KINDS)}, got {cfg['encoding']!r}")
    if "depth" in cfg:
        _require(cfg["depth"] >= 0, "depth", f"must be nonnegative, got {cfg['depth']}")


def _encoding_for(cfg: Dict[str, object], lattice: Lattice) -> EncodingWeightModel:
    kind = cfg["encoding"]
    try:
        return EncodingWeightModel(kind, lattice, cfg.get("phi0", 1))
    except ValueError as exc:
        raise ConfigError(f"encoding: {exc}") from exc


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _run_fermi1d(cfg: Dict[str, object]) -> List[Row]:
    p = cfg["p"]
    channel = PauliChannel.depolarizing(p)
    if cfg["sweep_k"]:
        _require(p > 0, "p", "sensitivity sweeps need p > 0")
        length = cfg["L"] if cfg["L"] is not None else 100
        _require(length >= 2 and length % 2 == 0, "L", f"must be even and >= 2, got {length}")
        lattice = Lattice(1, length)
        n_occ = cfg["n_occ"] if cfg["n_occ"] is not None else length // 2
        _require(0 <= n_occ <= length, "n_occ", f"must lie in [0, {length}], got {n_occ}")
        enc = _encoding_for(cfg, lattice)
        state, grid, _ = fermi_sea_1d(lattice, n_occ)
        errors = momentum_error_map(state, enc, channel, grid.momenta, cfg["mode"])
        order = np.argsort(grid.momenta[:, 0])
        return [
            {"k": grid.momenta[i, 0], "sensitivity": abs(errors[i]) / p}
            for i in order
        ]
    _require(cfg["n_occ"] is None, "n_occ", "only meaningful together with --sweep-k")
    n_max = cfg["L"] if cfg["L"] is not None else 200
    _require(n_max >= 20, "L", f"size grid needs L >= 20, got {n_max}")
    rows: List[Row] = []
    for length in range(20, n_max + 1, 20):
        lattice = Lattice(1, length)
        enc = _encoding_for(cfg, lattice)
        state, grid, occupied = fermi_sea_1d(lattice, length // 2)
        k_fermi = float(np.abs(grid.momenta[occupied, 0]).max())
        q0 = 2.0 * np.pi / length
        momenta = np.array([[k_fermi], [q0]])
        err_kf, err_q0 = momentum_error_map(state, enc, channel, momenta, cfg["mode"])
        rows.append({
            "N": length,
            "n_noisy_kf": momentum_occupation(state, [k_fermi]) - err_kf,
            "n_noisy_q0": momentum_occupation(state, [q0]) - err_q0,
            "error_kf": err_kf,
            "error_q0": err_q0,
        })
    return rows


def _run_fermi2d(cfg: Dict[str, object]) -> List[Row]:
    p = cfg["p"]
    _require(p > 0, "p", "sensitivity maps need p > 0")
    length = cfg["L"]
    _require(length >= 2 and length % 2 == 0, "L", f"must be even and >= 2, got {length}")
    lattice = Lattice(2, length)
    if cfg["n_occ"] is not None:
        fillings: Sequence[int] = (cfg["n_occ"],)
    else:
        fillings = _FERMI2D_DEFAULT_FILLINGS
    for n_occ in fillings:
        _require(0 <= n_occ <= lattice.n_sites, "n_occ",
                 f"must lie in [0, {lattice.n_sites}], got {n_occ}")
    enc = _encoding_for(cfg, lattice)
    channel = PauliChannel.depolarizing(p)
    rows: List[Row] = []
    for n_occ in fillings:
        grid = momentum_grid(lattice, parity_of(n_occ))
        state, _ = fermi_sea(grid, n_occ, dispersion=tight_binding_dispersion)
        errors = momentum_error_map(state, enc, channel, grid.momenta, cfg["mode"])
        order = np.lexsort((grid.momenta[:, 1], grid.momenta[:, 0]))
        for i in order:
            rows.append({
                "n_occ": n_occ,
                "kx": grid.momenta[i, 0],
                "ky": grid.momenta[i, 1],
                "sensitivity": abs(errors[i]) / p,
            })
    return rows


def _run_encoding_compare(cfg: Dict[str, object]) -> List[Row]:
    p = cfg["p"]
    phi0 = cfg["phi0"]
    l_max = cfg["L"]
    _require(l_max >= 2, "L", f"curve grid needs L >= 2, got {l_max}")
    channel = PauliChannel.depolarizing(p)

    def deficit(weight: int) -> float:
        return 1.0 - channel.etas[0] ** weight

    rows: List[Row] = []
    sides = range(2, l_max + 1, 2)
    for side in sides:
        lattice = Lattice(2, side)
        enc = EncodingWeightModel("local", lattice, phi0)
        site = lattice.site_index((0, 0))
        above = lattice.site_index((0, 1 % side))
        weight = enc.bilinear_weight(2 * site, 2 * above)
        rows.append({"encoding": "local", "n_modes": lattice.n_sites,
                     "weight": weight, "error": deficit(weight)})
    for side in sides:
        lattice = Lattice(2, side)
        enc = EncodingWeightModel("jw2d_snake", lattice)
        lower = lattice.site_index((0, 0))
        upper = lattice.site_index((side - 1, 1 % side))
        weight = enc.bilinear_weight(2 * lower, 2 * upper)
        rows.append({"encoding": "jw2d_snake", "n_modes": lattice.n_sites,
                     "weight": weight, "error": deficit(weight)})
    n_modes = 2
    while n_modes <= l_max * l_max:
        weight = bk_max_number_operator_weight(n_modes)
        rows.append({"encoding": "bravyi_kitaev", "n_modes": n_modes,
                     "weight": weight, "error": 0.5 * deficit(weight)})
        n_modes *= 2
    return rows


def _run_circuit(cfg: Dict[str, object]) -> List[Row]:
    """Noisy-versus-ideal hopping error per depth prefix, next to its Proposition 3 bound.

    With the ``local`` encoding, the premise of the bound, an error above it
    raises :class:`InvariantViolation`; ``jw1d`` and ``bravyi_kitaev`` lie
    outside the premise and are not checked.
    """
    p = cfg["p"]
    depth = cfg["depth"]
    if cfg["L"] is not None:
        sizes: Sequence[int] = (cfg["L"],)
    else:
        sizes = _CIRCUIT_DEFAULT_SIZES
    for length in sizes:
        _require(length >= 2 and length % 2 == 0, "L",
                 f"must be even and >= 2 (radius-1 bricks), got {length}")
    channel = PauliChannel.depolarizing(p)
    rows: List[Row] = []
    for length in sizes:
        lattice = Lattice(1, length)
        enc = _encoding_for(cfg, lattice)
        state, decay_k = circulant_power_law_state(lattice, 1.0 + _CIRCUIT_MU_OFFSET)
        obs = QuadraticObservable.hopping(lattice, 0, 1)
        params = DecayParams(K=decay_k, mu=1.0 + _CIRCUIT_MU_OFFSET, D=1,
                             phi0=cfg["phi0"])
        rng = np.random.default_rng([cfg["seed"], length])
        circuit = brickwork_circuit(lattice, depth, radius=1, rng=rng)
        ideal = prefix_expectations(state, obs, circuit)
        noisy = prefix_expectations(state, obs, circuit, channel, enc, cfg["mode"])
        for d in range(depth + 1):
            error = abs(noisy[d] - ideal[d])
            bound = prop3_bound(params, p, d, radius=1).value
            if cfg["encoding"] == "local" and error > bound:
                raise InvariantViolation(
                    f"circuit at n_sites {length}, depth {d}: error {error:.6g} exceeds "
                    f"its Proposition 3 bound {bound:.6g}")
            rows.append({
                "n_sites": length,
                "depth": d,
                "p": p,
                "error": error,
                "prop3_bound": bound,
            })
    return rows


def _run_bounds(cfg: Dict[str, object]) -> Dict[str, object]:
    p = cfg["p"]
    _require(p > 0, "p", "the bound tables need p > 0")
    phi0 = cfg["phi0"]
    prop1_rows: List[Row] = []
    for dim in (1, 2):
        for mu_offset in (0.3, 0.7, 1.0, 2.0):
            params = DecayParams(K=1.0, mu=dim + mu_offset, D=dim, phi0=phi0)
            for p_value in (p / 10.0, p, min(10.0 * p, P_MAX)):
                report = prop1_bound(params, p_value)
                prop1_rows.append({"D": dim, "mu": params.mu, "p": p_value,
                                   "value": report.value, "regime": report.regime})
    circuit_rows: List[Row] = []
    for dim in (1, 2):
        params = DecayParams(K=1.0, mu=dim + 2.0, D=dim, phi0=phi0)
        for depth in (1, 2, 3):
            b3 = prop3_bound(params, p, depth, radius=1)
            b4 = prop4_bound(params, p, depth, radius=1)
            circuit_rows.append({"D": dim, "mu": params.mu, "depth": depth, "p": p,
                                 "prop3": b3.value, "prop4": b4.value,
                                 "constant": b3.constant})
    off_rows: List[Row] = []
    for k_fermi in (np.pi / 8.0, np.pi / 4.0):
        for delta in (0.1, 0.2, 0.4):
            off_rows.append({"p": p, "k_fermi": k_fermi, "delta": delta,
                             "value": fermi2d_limit_error(p, k_fermi, delta)})
    on_rows: List[Row] = []
    for k_fermi in (np.pi / 8.0, np.pi / 4.0):
        on_rows.append({"p": p, "k_fermi": k_fermi,
                        "value": fermi2d_on_surface_error(p, k_fermi),
                        "integral_bound": on_surface_integral_bound(p, k_fermi)})
    return {
        "prop1": prop1_rows,
        "prop3_prop4": circuit_rows,
        "fermi2d_off_surface": off_rows,
        "fermi2d_on_surface": on_rows,
    }


# ----------------------------------------------------------------------
# Output formatting
# ----------------------------------------------------------------------


def _format_value(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _jsonable(value: object) -> object:
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_csv(rows: List[Row], stream: IO[str]) -> None:
    if not rows:
        return
    header: List[str] = []
    for row in rows:
        for name in row:
            if name not in header:
                header.append(name)
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(row[name]) if name in row else ""
                              for name in header) + "\n")


def _write_json(payload: Dict[str, object], stream: IO[str]) -> None:
    def clean(obj):
        if isinstance(obj, dict):
            return {key: clean(val) for key, val in obj.items()}
        if isinstance(obj, list):
            return [clean(item) for item in obj]
        return _jsonable(obj)

    json.dump(clean(payload), stream, indent=2)
    stream.write("\n")


def _emit(result: object, cfg: Dict[str, object], command: str,
          out: Optional[str], fmt: str) -> None:
    if isinstance(result, dict):
        tables = result
        rows = [dict(table=name, **row) for name, sub in tables.items() for row in sub]
    else:
        rows = list(result)
        tables = {"rows": result}
    payload = {"command": command, "config": {k: _jsonable(v) for k, v in cfg.items()},
               **tables}
    if out is None:
        stream = sys.stdout
        close = False
    else:
        stream = open(out, "w", encoding="utf-8", newline="\n")
        close = True
    try:
        if fmt == "csv":
            _write_csv(rows, stream)
        else:
            _write_json(payload, stream)
    finally:
        if close:
            stream.close()


_RUNNERS: Dict[str, Callable[[Dict[str, object]], object]] = {
    "fermi1d": _run_fermi1d,
    "fermi2d": _run_fermi2d,
    "encoding-compare": _run_encoding_compare,
    "circuit": _run_circuit,
    "bounds": _run_bounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        _validate_common(cfg, args.command)
        result = _RUNNERS[args.command](cfg)
        fmt = args.format if args.format is not None else _DEFAULT_FORMAT[args.command]
        _emit(result, cfg, args.command, args.out, fmt)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
