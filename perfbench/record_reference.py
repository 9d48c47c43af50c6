"""Record the reference outputs the benchmark's checks compare against.

Usage (from the repository root): ``python3 perfbench/record_reference.py``.
The files in ``perfbench/reference/`` were recorded from the seed code; run
this again only on purpose, when a change is meant to alter the outputs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fermion_noise.cli import main  # noqa: E402

REFERENCES = {
    "fermi2d_L40.csv": ["fermi2d", "--L", "40"],
    "fermi1d_sweep_bk_L512.csv": ["fermi1d", "--sweep-k", "--encoding", "bravyi_kitaev",
                                  "--L", "512"],
    "fermi1d_L400.csv": ["fermi1d", "--L", "400"],
    "bounds.json": ["bounds"],
}

if __name__ == "__main__":
    (HERE / "reference").mkdir(exist_ok=True)
    for name, argv in REFERENCES.items():
        if main(argv + ["--out", str(HERE / "reference" / name)]) != 0:
            sys.exit(f"{' '.join(argv)} failed")
