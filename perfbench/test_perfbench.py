"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m unittest discover -s perfbench``.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import REFERENCE_DIR, circuit_checker, compare_rows, encoding_compare_rows, \
    reference  # noqa: E402


def corrupt(text: str, line: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


class CheckerTest(unittest.TestCase):
    def test_reference_flags_one_corrupted_row(self):
        text = (REFERENCE_DIR / "fermi1d_L400.csv").read_text()
        check = reference("fermi1d_L400.csv")
        self.assertTrue(all(check(text)))
        bad = corrupt(text, 5, 3, "-" + text.splitlines()[5].split(",")[3])
        self.assertEqual(check(bad).count(False), 1)

    def test_reference_tolerance(self):
        text = (REFERENCE_DIR / "fermi1d_L400.csv").read_text()
        check = reference("fermi1d_L400.csv")
        value = float(text.splitlines()[5].split(",")[4])
        self.assertTrue(all(check(corrupt(text, 5, 4, repr(value + 1e-12)))))
        self.assertEqual(check(corrupt(text, 5, 4, repr(value + 1e-8))).count(False), 1)

    def test_failed_command_fails_every_check(self):
        check = reference("bounds.json")
        good = check((REFERENCE_DIR / "bounds.json").read_text())
        self.assertEqual(check(None), [False] * len(good))

    def test_circuit_checks_bound_and_depth_zero(self):
        text = ("n_sites,depth,p,error,prop3_bound\n"
                "8,0,0.01,0,0\n8,1,0.01,0.001,0.5\n8,2,0.01,0.002,0.9\n")
        check = circuit_checker(2)
        self.assertTrue(all(check(text)))
        self.assertEqual(check(text.replace("0.002,0.9", "0.95,0.9")).count(False), 1)
        self.assertEqual(check(text.replace("8,2,0.01,0.002,0.9\n", "")).count(False), 2)
        self.assertEqual(check(text.replace("0.001,0.5", "nan,0.5")).count(False), 1)

    def test_encoding_compare_closed_forms_match_the_cli(self):
        from fermion_noise.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "curves.csv"
            self.assertEqual(main(["encoding-compare", "--L", "8", "--out", str(out)]), 0)
            text = out.read_text()
        expected = encoding_compare_rows(8)
        self.assertTrue(all(compare_rows(text, expected)))
        bad = corrupt(text, 9, 3, "0.5")
        self.assertEqual(compare_rows(bad, expected).count(False), 1)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["cli", "main", 0, 100, -1],
            ["noise", "a", 10, 30, 0],
            ["noise", "b", 40, 70, 0],
            ["encodings", "c", 50, 60, 2],
            ["lattice", "d", 80, 85, 0],
        ]
        self.assertEqual(self_times(spans), [45, 20, 20, 10, 5])
        self.assertEqual(sum(self_times(spans)), 100)


class TracerTest(unittest.TestCase):
    def test_sees_calls_through_importer_bound_names(self):
        import fermion_noise.cli as cli
        import fermion_noise.noise as noise
        original = noise.momentum_error_map
        with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
            self.assertIsNot(cli.momentum_error_map, original)
            code = cli.main(["fermi2d", "--L", "4", "--n-occ", "6",
                             "--out", str(Path(tmp) / "map.csv")])
        self.assertEqual(code, 0)
        self.assertIs(cli.momentum_error_map, original)
        self.assertIs(noise.momentum_error_map, original)
        names = [(span[0], span[1]) for span in tracer.spans]
        self.assertIn(("noise", "momentum_error_map"), names)
        self.assertIn(("lattice", "Lattice.__init__"), names)
        metrics = tracer.layer_metrics()
        self.assertEqual(metrics["noise.momenta"], 16)
        self.assertEqual(metrics["cli.calls"], 1)
        self.assertEqual(metrics["lattice.distance_matrix.builds"], 1)
        self.assertEqual(metrics["gaussian.state_bytes"], 32 * 32 * 8)
        wall = tracer.spans[0][3] - tracer.spans[0][2]
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_sum, wall / 1e9, places=9)

    def test_counts_distance_matrices_built_not_requested(self):
        from fermion_noise.lattice import Lattice
        with Tracer() as tracer:
            a, b, c = Lattice(1, 6), Lattice(1, 6), Lattice(1, 6)
            a.distance_matrix()
            a.distance_matrix()
            b.distance_matrix()
            c._distance_matrix = a.distance_matrix()  # a shared cache builds nothing
            c.distance_matrix()
        self.assertEqual(tracer.layer_metrics()["lattice.distance_matrix.builds"], 2)

    def test_counts_exceptions(self):
        from fermion_noise.lattice import Lattice
        with Tracer() as tracer:
            with self.assertRaises(ValueError):
                Lattice(3, 4)
        self.assertEqual(tracer.layer_metrics()["lattice.errors"], 1)


class OverheadTest(unittest.TestCase):
    def test_pairs_each_traced_sample_with_the_untraced_one_before_it(self):
        plain = [{"wall_s": 2.0}, {"wall_s": 4.0}, {"wall_s": 3.0}]
        traced = [{"wall_s": 2.2}, {"wall_s": 4.0}]
        ratios = run.overhead_ratios(plain, traced)
        self.assertEqual(len(ratios), 2)
        self.assertAlmostEqual(ratios[0], 1.1)
        self.assertAlmostEqual(ratios[1], 1.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
