"""The benchmark's workloads: the CLI commands each one runs, and their checks.

Every command is paired with a checker.  A checker takes the text the
command wrote to ``--out`` (``None`` when the command failed) and returns
one boolean per check; with ``None`` it returns as many ``False`` as a good
output would have checks, so a failed command fails every check it owns.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Tolerance for outputs compared with the seed-code references: loose enough
# for a spectral or structured path, tight enough to catch a sign error.
TOL = 1e-10
# Noise strength of every command below (the CLI default).
P = 0.01

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Row = Dict[str, object]
Checker = Callable[[Optional[str]], List[bool]]
Command = Tuple[List[str], Checker]


def parse_rows(text: str) -> List[Row]:
    """Rows of a CSV output, or of every table of a JSON output."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return [dict(table=name, **row) for name, table in payload.items()
                if isinstance(table, list) for row in table]
    return list(csv.DictReader(io.StringIO(text)))


def same(a: object, b: object) -> bool:
    """Numbers agree within ``TOL`` (absolute or relative); other values exactly."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    return math.isclose(x, y, rel_tol=TOL, abs_tol=TOL)


def compare_rows(text: Optional[str], expected: Sequence[Row]) -> List[bool]:
    """One check for the row count, then one per expected row."""
    if text is None:
        return [False] * (1 + len(expected))
    rows = parse_rows(text)
    checks = [len(rows) == len(expected)]
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else {}
        checks.append(got.keys() == want.keys()
                      and all(same(got[key], want[key]) for key in want))
    return checks


def reference(name: str) -> Checker:
    """Checker against an output recorded from the seed code."""
    expected = parse_rows((REFERENCE_DIR / name).read_text(encoding="utf-8"))
    return lambda text: compare_rows(text, expected)


def encoding_compare_rows(l_max: int, p: float = P) -> List[Row]:
    """Closed-form fragility curves of ``encoding-compare --L l_max``.

    Local nearest-neighbour hops have weight 2; the snake-ordered vertical
    hop across a side-``L`` torus has weight ``L + 1``; the Bravyi-Kitaev
    number operator of the last of ``N`` modes spans ``log2(N) + 1`` qubits,
    and half its depolarized deficit is the error.
    """
    sides = range(2, l_max + 1, 2)
    rows: List[Row] = []
    rows += [{"encoding": "local", "n_modes": s * s, "weight": 2,
              "error": 1.0 - (1.0 - p) ** 2} for s in sides]
    rows += [{"encoding": "jw2d_snake", "n_modes": s * s, "weight": s + 1,
              "error": 1.0 - (1.0 - p) ** (s + 1)} for s in sides]
    n_modes = 2
    while n_modes <= l_max * l_max:
        w_max = n_modes.bit_length()
        rows.append({"encoding": "bravyi_kitaev", "n_modes": n_modes, "weight": w_max,
                     "error": 0.5 - 0.5 * (1.0 - p) ** w_max})
        n_modes *= 2
    return rows


def circuit_checker(depth: int) -> Checker:
    """Checks of a ``circuit`` table that hold for any Haar stream.

    The table has ``depth + 1`` rows, the depth-0 error is exactly 0, and
    every error is finite and within its Proposition 3 bound.
    """
    def check(text: Optional[str]) -> List[bool]:
        rows = parse_rows(text) if text is not None else []
        checks = [len(rows) == depth + 1,
                  bool(rows) and float(rows[0]["depth"]) == 0 and float(rows[0]["error"]) == 0.0]
        for d in range(depth + 1):
            row = rows[d] if d < len(rows) else None
            checks.append(row is not None and float(row["depth"]) == d
                          and math.isfinite(float(row["error"]))
                          and float(row["error"]) <= float(row["prop3_bound"]))
        return checks
    return check


CIRCUIT_DEPTH = 8
ENCODING_COMPARE_L = 48


def commands(workload: str, seed: int) -> List[Command]:
    """The commands of one sample of ``workload``; ``seed`` reaches only ``circuit``."""
    if workload == "fermi2d":
        return [(["fermi2d", "--L", "40"], reference("fermi2d_L40.csv"))]
    if workload == "circuit":
        return [(["circuit", "--L", "512", "--depth", str(CIRCUIT_DEPTH), "--seed", str(seed)],
                 circuit_checker(CIRCUIT_DEPTH))]
    if workload == "bk-sweep":
        return [(["fermi1d", "--sweep-k", "--encoding", "bravyi_kitaev", "--L", "512"],
                 reference("fermi1d_sweep_bk_L512.csv"))]
    if workload == "tables":
        expected = encoding_compare_rows(ENCODING_COMPARE_L)
        return [
            (["bounds"], reference("bounds.json")),
            (["encoding-compare", "--L", str(ENCODING_COMPARE_L)],
             lambda text: compare_rows(text, expected)),
            (["fermi1d", "--L", "400"], reference("fermi1d_L400.csv")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fermi2d", "circuit", "bk-sweep", "tables")
