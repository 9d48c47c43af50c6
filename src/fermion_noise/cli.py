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

A table is a dict of equal-length columns from the runner to the writer
(``bounds`` returns four named ones, tagged by a ``table`` column in CSV).  A
column is a numpy array, or a coded column ``(values, codes)``: row ``i``
holds ``values[codes[i]]``, so a column that repeats a few distinct values
(``fermi2d``'s ``n_occ``, ``kx`` and ``ky``: one per filling and L per axis)
has each of them formatted once.  CSV formats each table's rows by one ``%``
template from its column dtypes (``%.12g`` floats, ``%d`` integers, ``%s``
strings and coded columns, whose values take the spec of their dtype); JSON
writes row objects by one template per table too, with the bytes of
``json.dump(..., indent=2)``.  A block of rows is one ``%`` call on the
template repeated over the block, and a coded column writes the bytes of
the plain column it stands for.

Flags and config keys are one table, ``_OPTIONS``: each command's keys, each
with the cast of its values, a default and a help text.  A key is the flag
``--key`` with ``-`` for ``_`` (``n_occ`` is ``--n-occ``) and a ``key=value``
line of the flat file passed via ``--config``; ``--out``, ``--format csv|json``
and ``--config`` are flags only.  A flag takes its value as the next argument
or after ``=``, but a boolean flag (``--sweep-k``) takes none, and a unique
prefix of a flag stands for it (``--enc`` for ``--encoding``).  Flag and
config values go through the same casts; defaults, then the config file,
then the flags, the last one winning.  ``--help`` (or ``-h``) prints the
commands, or after a command its flags, from the table's help texts.

Exit codes: 0 on success (and for ``--help``), 2 for configuration errors,
3 when a numerical invariant breaks mid-run.  A size past its cap is a
configuration error, raised before anything is allocated: at most
``_MAX_SITES`` sites per system, and for ``circuit`` at most
``_MAX_SITE_LAYERS`` site-layers ``depth * L``.  A
configuration error prints ``configuration error: <field>: <message>`` to
stderr, the field being ``command``, the key of a bad or missing value, or
an unknown flag or stray argument as given; no error raises
``SystemExit``.  Reruns with identical configuration produce byte-identical
output.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import DecayParams, fermi2d_limit_error, fermi2d_on_surface_error, \
    on_surface_integral_bound, prop1_bound, prop3_bound, prop4_bound
from .circuits import brickwork_circuit, prefix_expectations
from .encodings import ENCODING_KINDS, EncodingWeightModel, bk_max_number_operator_weight
from .errors import ConfigError, InvariantViolation
from .gaussian import QuadraticObservable, circulant_power_law_state, fermi_sea, fermi_sea_1d, \
    momentum_occupation, tight_binding_dispersion
from .lattice import Lattice, momentum_grid, parity_of
from .noise import MODES, P_MAX, PauliChannel, mode_etas, momentum_error_map

Row = Dict[str, object]
Column = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]  # an array, or (values, codes)
Table = Dict[str, Column]   # equal-length columns, in output order

_FERMI2D_DEFAULT_FILLINGS = (300, 450, 700)
_CIRCUIT_DEFAULT_SIZES = (16, 64, 256)
_CIRCUIT_MU_OFFSET = 2.0
# Sites of one system: four times the largest scale run's 2^20; larger sizes exit 2 unallocated.
_MAX_SITES = 1 << 22
# A circuit's depth * L**D site-layers, one layer object each; index tables (int64 indices,
# int32 lookup) are built for one cycle of dim * (radius + 1) layers and shared by the rest.
_MAX_SITE_LAYERS = 1 << 22


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


# key -> (cast of a flag or config-file value, default, help); None defaults resolve per
# subcommand.
_OPTIONS: Dict[str, Dict[str, tuple]] = {
    "fermi1d": {
        "p": (float, 1e-2, "depolarizing probability"),
        "L": (int, None, "largest chain length of the size grid (default 200), "
                         "or the chain length in --sweep-k mode (default 100)"),
        "n_occ": (int, None, "particle number for --sweep-k mode (default half filling)"),
        "encoding": (str, "jw1d", "encoding weight model"),
        "phi0": (int, 1, "on-site weight of the local encoding"),
        "mode": (str, "exact", "attenuation mode: exact | worst-case"),
        "sweep_k": (_cast_bool, False, "emit sensitivity(k) over the mode grid of one chain"),
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


def _cast_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"must be one of csv|json, got {text!r}")
    return text


# Flags of every command that a config file does not hold.
_OUTPUT_OPTIONS: Dict[str, tuple] = {
    "out": (str, None, "output path (default: stdout)"),
    "format": (_cast_format, None, "output format: csv | json"),
    "config": (str, None, "flat key=value configuration file; flags win"),
}
_COMMANDS = "|".join(_OPTIONS)


def _cast(options: Dict[str, tuple], key: str, text: str) -> object:
    try:
        return options[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_argv(argv: Sequence[str]) -> Tuple[Optional[str], Optional[Dict[str, object]]]:
    """The command and its flags by key, cast; flags ``None`` ask for help.

    Help of the command, or with command ``None`` of all commands.  Reads
    ``--flag value``, ``--flag=value`` and a bare boolean ``--flag`` against
    the command's options and ``_OUTPUT_OPTIONS``; a unique prefix of a flag
    stands for it, and a value is never a flag (``--...`` or ``-h``).
    """
    if not argv:
        raise ConfigError(f"command: missing; expected one of {_COMMANDS}")
    command, tokens = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return None, None
    if command not in _OPTIONS:
        raise ConfigError(f"command: unknown {command!r}; expected one of {_COMMANDS}")
    options = {**_OPTIONS[command], **_OUTPUT_OPTIONS}
    keys = {"--" + key.replace("_", "-"): key for key in options}
    keys["--help"] = None
    flags: Dict[str, object] = {}
    for token in tokens:
        if token == "-h":
            return command, None
        flag, has_value, text = token.partition("=")
        if not flag.startswith("--") or flag == "--":
            raise ConfigError(f"{token}: unexpected argument to {command}")
        matches = [flag] if flag in keys else [name for name in keys if name.startswith(flag)]
        if len(matches) != 1:  # none, or the prefix of several
            raise ConfigError(f"{flag}: unknown flag of {command}")
        key = keys[matches[0]]
        if key is None:
            return command, None
        if options[key][0] is _cast_bool:
            if has_value:
                raise ConfigError(f"{key}: {matches[0]} takes no value, got {text!r}")
            flags[key] = True
            continue
        if not has_value:
            text = next(tokens, None)
            if text is None or text.startswith("--") or text == "-h":
                raise ConfigError(f"{key}: {matches[0]} needs a value")
        flags[key] = _cast(options, key, text)
    return command, flags


def _usage(command: Optional[str]) -> str:
    """The ``--help`` text: the commands, or one command's flags from their help texts."""
    if command is None:
        return ("usage: fermion-noise COMMAND [--FLAG VALUE ...]\n\n"
                "Noise-error experiments for encoded free-fermion observables.\n\n"
                f"commands: {', '.join(_OPTIONS)}\n\n"
                "fermion-noise COMMAND --help lists the flags of a command.")
    lines = [f"usage: fermion-noise {command} [--FLAG VALUE ...]", "", "flags:"]
    for key, (cast, default, text) in {**_OPTIONS[command], **_OUTPUT_OPTIONS}.items():
        flag = "--" + key.replace("_", "-")
        if cast is not _cast_bool:
            flag += " " + key.upper()
            default = _DEFAULT_FORMAT[command] if key == "format" else default
            if default is not None:
                text += f" (default: {default})"
        lines.append(f"  {flag:<22} {text}")
    lines += ["", "Every flag but --out, --format and --config is also a key=value line of a",
              "--config file, the key being its name with _ for -; flags win."]
    return "\n".join(lines)


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
        values[key] = _cast(options, key, text.strip())
    return values


def _resolve(command: str, flags: Dict[str, object]) -> Dict[str, object]:
    """Merge defaults, config-file values and flags, the last one winning."""
    options = _OPTIONS[command]
    cfg: Dict[str, object] = {key: opt[1] for key, opt in options.items()}
    if "config" in flags:
        cfg.update(_parse_config_file(flags["config"], command))
    cfg.update((key, value) for key, value in flags.items() if key in options)
    return cfg


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _require_sites(length: int, dim: int) -> None:
    _require(length ** dim <= _MAX_SITES, "L",
             f"must give at most {_MAX_SITES} sites (L**{dim}), got {length}")


def _validate_common(cfg: Dict[str, object]) -> None:
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
    if "seed" in cfg:
        _require(0 <= cfg["seed"] < 1 << 64, "seed", f"must be in [0, 2^64), got {cfg['seed']}")


def _noise_etas(cfg: Dict[str, object]) -> Tuple[float, float, float]:
    """The etas of the run's noise: depolarizing of strength ``p``, read in its ``mode``."""
    return mode_etas(PauliChannel.depolarizing(cfg["p"]), cfg.get("mode", "exact"))


def _encoding_for(cfg: Dict[str, object], lattice: Lattice) -> EncodingWeightModel:
    kind = cfg["encoding"]
    try:
        return EncodingWeightModel(kind, lattice, cfg.get("phi0", 1))
    except ValueError as exc:
        raise ConfigError(f"encoding: {exc}") from exc


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _columns(rows: List[Row]) -> Table:
    """The table of a few per-system rows that share their keys."""
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _concat(tables: List[Table]) -> Table:
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


def _run_fermi1d(cfg: Dict[str, object]) -> Table:
    p = cfg["p"]
    etas = _noise_etas(cfg)
    if cfg["sweep_k"]:
        _require(p > 0, "p", "sensitivity sweeps need p > 0")
        length = cfg["L"] if cfg["L"] is not None else 100
        _require(length >= 2 and length % 2 == 0, "L", f"must be even and >= 2, got {length}")
        _require_sites(length, 1)
        lattice = Lattice(1, length)
        n_occ = cfg["n_occ"] if cfg["n_occ"] is not None else length // 2
        _require(0 <= n_occ <= length, "n_occ", f"must lie in [0, {length}], got {n_occ}")
        enc = _encoding_for(cfg, lattice)
        state, grid, _ = fermi_sea_1d(lattice, n_occ)
        errors = momentum_error_map(state, enc, etas, grid.momenta)
        # 1D grid momenta rise with the site index: the rows are already sorted by k.
        return {"k": grid.momenta[:, 0], "sensitivity": np.abs(errors) / p}
    _require(cfg["n_occ"] is None, "n_occ", "only meaningful together with --sweep-k")
    n_max = cfg["L"] if cfg["L"] is not None else 200
    _require(n_max >= 20, "L", f"size grid needs L >= 20, got {n_max}")
    _require_sites(n_max, 1)
    rows: List[Row] = []
    for length in range(20, n_max + 1, 20):
        lattice = Lattice(1, length)
        enc = _encoding_for(cfg, lattice)
        state, grid, occupied = fermi_sea_1d(lattice, length // 2)
        k_fermi = float(np.abs(grid.momenta[occupied, 0]).max())
        q0 = 2.0 * np.pi / length
        momenta = np.array([[k_fermi], [q0]])
        err_kf, err_q0 = momentum_error_map(state, enc, etas, momenta)
        n_kf, n_q0 = momentum_occupation(state, momenta)
        rows.append({
            "N": length,
            "n_noisy_kf": n_kf - err_kf,
            "n_noisy_q0": n_q0 - err_q0,
            "error_kf": err_kf,
            "error_q0": err_q0,
        })
    return _columns(rows)


def _run_fermi2d(cfg: Dict[str, object]) -> Table:
    """Sensitivity of every mode per filling, rows sorted by ``(kx, ky)``.

    The rows are the ``(ky, kx)`` grid transposed, and fillings of one parity
    share their grid and codes; ``n_occ``, ``kx`` and ``ky`` are coded columns.
    """
    p = cfg["p"]
    _require(p > 0, "p", "sensitivity maps need p > 0")
    length = cfg["L"]
    _require(length >= 2 and length % 2 == 0, "L", f"must be even and >= 2, got {length}")
    _require_sites(length, 2)
    lattice = Lattice(2, length)
    fillings = _FERMI2D_DEFAULT_FILLINGS if cfg["n_occ"] is None else (cfg["n_occ"],)
    for n_occ in fillings:
        _require(0 <= n_occ <= lattice.n_sites, "n_occ",
                 f"must lie in [0, {lattice.n_sites}], got {n_occ}")
    enc = _encoding_for(cfg, lattice)
    etas = _noise_etas(cfg)
    grids: Dict[str, tuple] = {}  # parity -> grid, (kx, ky) codes
    values: List[np.ndarray] = []  # (kx, ky) values of each grid
    codes, sensitivity = [], []
    for n_occ in fillings:
        parity = parity_of(n_occ)
        if parity not in grids:
            grid = momentum_grid(lattice, parity)
            # Sites run x fastest: the first L sites hold every kx, every L-th site every ky.
            grid_codes = np.indices((length,) * 2, np.int32).reshape(2, -1) + length * len(values)
            grids[parity] = grid, grid_codes
            values.append(np.stack([grid.momenta[:length, 0], grid.momenta[::length, 1]]))
        grid, grid_codes = grids[parity]
        state, _ = fermi_sea(grid, n_occ, tight_binding_dispersion)
        errors = momentum_error_map(state, enc, etas, grid.momenta)
        codes.append(grid_codes)
        sensitivity.append(np.abs(errors.reshape(length, length).T.ravel()) / p)
    kx, ky = np.concatenate(values, axis=1)
    code_x, code_y = np.concatenate(codes, axis=1)
    fill_codes = np.repeat(np.arange(len(fillings), dtype=np.int32), lattice.n_sites)
    return {"n_occ": (np.array(fillings), fill_codes),
            "kx": (kx, code_x), "ky": (ky, code_y), "sensitivity": np.concatenate(sensitivity)}


def _run_encoding_compare(cfg: Dict[str, object]) -> Table:
    phi0 = cfg["phi0"]
    l_max = cfg["L"]
    _require(l_max >= 2, "L", f"curve grid needs L >= 2, got {l_max}")
    _require_sites(l_max, 2)
    eta = _noise_etas(cfg)[0]

    def deficit(weight: int) -> float:
        return 1.0 - eta ** weight

    # Each encoding's worst pair: site (0, 0) and its partner in the next row.
    partners = {"local": lambda side: (0, 1 % side),
                "jw2d_snake": lambda side: (side - 1, 1 % side)}
    rows: List[Row] = []
    for kind, partner in partners.items():
        for side in range(2, l_max + 1, 2):
            lattice = Lattice(2, side)
            enc = EncodingWeightModel(kind, lattice, phi0)
            weight = enc.bilinear_weight(2 * lattice.site_index((0, 0)),
                                         2 * lattice.site_index(partner(side)))
            rows.append({"encoding": kind, "n_modes": lattice.n_sites,
                         "weight": weight, "error": deficit(weight)})
    n_modes = 2
    while n_modes <= l_max * l_max:
        weight = bk_max_number_operator_weight(n_modes)
        rows.append({"encoding": "bravyi_kitaev", "n_modes": n_modes,
                     "weight": weight, "error": 0.5 * deficit(weight)})
        n_modes *= 2
    return _columns(rows)


def _run_circuit(cfg: Dict[str, object]) -> Table:
    """Noisy-versus-ideal hopping error per depth prefix, next to its Proposition 3 bound.

    With the ``local`` encoding, the premise of the bound, an error above it
    raises :class:`InvariantViolation`; ``jw1d`` and ``bravyi_kitaev`` lie
    outside the premise and are not checked.
    """
    p = cfg["p"]
    depth = cfg["depth"]
    sizes = _CIRCUIT_DEFAULT_SIZES if cfg["L"] is None else (cfg["L"],)
    for length in sizes:
        _require(length >= 2 and length % 2 == 0, "L",
                 f"must be even and >= 2 (radius-1 bricks), got {length}")
        _require_sites(length, 1)
        _require(depth * length <= _MAX_SITE_LAYERS, "depth",
                 f"depth * L must be at most {_MAX_SITE_LAYERS}, got {depth} * {length}")
    etas = _noise_etas(cfg)
    tables: List[Table] = []
    for length in sizes:
        lattice = Lattice(1, length)
        enc = _encoding_for(cfg, lattice)
        state, decay_k = circulant_power_law_state(lattice, 1.0 + _CIRCUIT_MU_OFFSET)
        obs = QuadraticObservable.hopping(lattice, 0, 1)
        params = DecayParams(K=decay_k, mu=1.0 + _CIRCUIT_MU_OFFSET, D=1,
                             phi0=cfg["phi0"])
        circuit = brickwork_circuit(lattice, depth, radius=1, seed=(cfg["seed"], length))
        ideal, noisy = prefix_expectations(state, obs, circuit, etas, enc)
        depths = np.arange(depth + 1)
        error = np.abs(np.subtract(noisy, ideal))
        bound = np.array([prop3_bound(params, p, d, radius=1).value for d in depths])
        if cfg["encoding"] == "local" and np.any(error > bound):
            d = np.argmax(error > bound)
            raise InvariantViolation(
                f"circuit at n_sites {length}, depth {d}: error {error[d]:.6g} exceeds "
                f"its Proposition 3 bound {bound[d]:.6g}")
        tables.append({"n_sites": np.full(depths.size, length), "depth": depths,
                       "p": np.full(depths.size, p), "error": error, "prop3_bound": bound})
    return _concat(tables)


def _run_bounds(cfg: Dict[str, object]) -> Dict[str, Table]:
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
        "prop1": _columns(prop1_rows),
        "prop3_prop4": _columns(circuit_rows),
        "fermi2d_off_surface": _columns(off_rows),
        "fermi2d_on_surface": _columns(on_rows),
    }


# ----------------------------------------------------------------------
# Output formatting
# ----------------------------------------------------------------------


# Row templates by dtype kind; any other kind (strings, objects) formats as ``%s``.
_CSV_SPECS = {"f": "%.12g", "i": "%d", "u": "%d"}
_CSV_BLOCK_ROWS = 65536


def _n_rows(table: Table) -> int:
    column = next(iter(table.values()))
    return len(column[1] if isinstance(column, tuple) else column)


def _coded(spec_of: Callable[[np.ndarray], tuple], column: Column) -> tuple:
    """Row-template spec and cells of a column; a coded column's values are formatted once."""
    if not isinstance(column, tuple):
        return spec_of(column)
    values, codes = column
    spec, cells = spec_of(values)
    return "%s", (np.array([spec % value for value in cells.tolist()], dtype=object), codes)


def _row_blocks(template: str, columns: Sequence[tuple], n_rows: int):
    """The rows' text in blocks of ``_CSV_BLOCK_ROWS``, each by one ``%`` on a repeated template.

    ``columns`` are cells of :func:`_coded`; only one block of values is
    held at a time.
    """
    width = len(columns)
    for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
        cells: List[object] = [None] * ((hi - lo) * width)
        for at, column in enumerate(columns):
            if isinstance(column, tuple):
                text, codes = column
                cells[at::width] = text[codes[lo:hi]].tolist()
            else:
                cells[at::width] = column[lo:hi].tolist()
        yield (template * (hi - lo)) % tuple(cells)


def _csv_column(column: np.ndarray) -> tuple:
    return _CSV_SPECS.get(column.dtype.kind, "%s"), column


def _write_csv(tables: Sequence[Table], stream: IO[str]) -> None:
    """Union header in first-seen order, then each table by one row template.

    A column a table lacks is an empty field.  Rows are written in blocks of
    :func:`_row_blocks`, so neither all values nor the full text are held at
    once; a result without rows writes nothing.
    """
    tables = [table for table in tables if _n_rows(table)]
    header = list(dict.fromkeys(name for table in tables for name in table))
    if not header:
        return
    stream.write(",".join(header) + "\n")
    for table in tables:
        coded = {name: _coded(_csv_column, table[name]) for name in header if name in table}
        template = ",".join(coded[name][0] if name in coded else "" for name in header) + "\n"
        columns = [cells for _, cells in coded.values()]
        stream.writelines(_row_blocks(template, columns, _n_rows(table)))


def _json_column(column: np.ndarray) -> tuple:
    """Row-template spec and values of one column, each value as ``json`` writes it."""
    if column.dtype.kind in "iu":
        return "%d", column
    if column.dtype.kind == "f" and np.isfinite(column).all():
        return "%r", column
    return "%s", np.array([json.dumps(value) for value in column.tolist()], dtype=object)


def _write_json(head: Dict[str, object], tables: Dict[str, Table], stream: IO[str]) -> None:
    """``head``, then each named table as a list of row objects.

    The bytes of ``json.dump({**head, **rows}, stream, indent=2)`` and a
    newline, for a nonempty ``head``: ``head`` goes through ``json.dumps``, and
    each table's rows through one row template (``repr`` floats, ``%d``
    integers, ``json.dumps`` for the rest and for non-finite floats), in the
    blocks of :func:`_row_blocks`.
    """
    stream.write(json.dumps(head, indent=2)[:-2])
    for name, table in tables.items():
        stream.write(f",\n  {json.dumps(name)}: [")
        specs, columns = zip(*(_coded(_json_column, column) for column in table.values()))
        template = ",\n    {\n" + ",\n".join(
            f"      {json.dumps(key).replace('%', '%%')}: {spec}"
            for key, spec in zip(table, specs)) + "\n    }"
        for block, text in enumerate(_row_blocks(template, columns, _n_rows(table))):
            stream.write(text if block else text[1:])  # the first row takes no comma
        stream.write("\n  ]" if _n_rows(table) else "]")
    stream.write("\n}\n")


def _emit(result: Dict[str, object], cfg: Dict[str, object], command: str,
          out: Optional[str], fmt: str) -> None:
    """Write one table, or named tables (``bounds``), which CSV tags by a ``table`` column."""
    named = isinstance(next(iter(result.values())), dict)
    tables = result if named else {"rows": result}
    try:
        sink = contextlib.nullcontext(sys.stdout) if out is None else \
            open(out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out!r} ({exc})") from exc
    with sink as stream:
        if fmt == "json":
            _write_json({"command": command, "config": cfg}, tables, stream)
        else:
            _write_csv([{"table": np.full(_n_rows(table), name), **table}
                        for name, table in tables.items()] if named else [result], stream)


_RUNNERS: Dict[str, Callable[[Dict[str, object]], object]] = {
    "fermi1d": _run_fermi1d,
    "fermi2d": _run_fermi2d,
    "encoding-compare": _run_encoding_compare,
    "circuit": _run_circuit,
    "bounds": _run_bounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, flags = _parse_argv(sys.argv[1:] if argv is None else argv)
        if flags is None:
            print(_usage(command))
            return 0
        cfg = _resolve(command, flags)
        _validate_common(cfg)
        result = _RUNNERS[command](cfg)
        _emit(result, cfg, command, flags.get("out"),
              flags.get("format", _DEFAULT_FORMAT[command]))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
