"""End-to-end tests of the command-line interface."""

import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermion_noise
from conftest import refuse_full_covariance
from fermion_noise import EncodingWeightModel, InvariantViolation, Lattice
from fermion_noise import cli


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "cli"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out


class TestArgumentHandling:
    def test_requires_a_subcommand(self, capsys):
        assert cli.main([]) == 2
        assert capsys.readouterr().err.startswith("configuration error: command: ")

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: command: ") and "frobnicate" in err

    def test_success_returns_zero(self, tmp_path):
        code, _ = run_to_file(tmp_path, "out.csv", ["encoding-compare", "--L", "4"])
        assert code == 0

    @pytest.mark.parametrize("argv, field", [
        (["fermi1d", "--p", "0.9"], "p"),                      # p outside [0, 2/3]
        (["fermi1d", "--mode", "typical"], "mode"),            # unknown mode
        (["fermi1d", "--encoding", "toric"], "encoding"),      # unknown encoding
        (["fermi1d", "--n-occ", "3"], "n_occ"),                # n_occ without --sweep-k
        (["fermi1d", "--sweep-k", "--L", "7"], "L"),           # odd chain
        (["fermi1d", "--L", "10"], "L"),                       # size grid below 20
        (["fermi2d", "--L", "5"], "L"),                        # odd side
        (["fermi2d", "--L", "4", "--n-occ", "99"], "n_occ"),   # filling beyond n_sites
        (["fermi2d", "--p", "0"], "p"),                        # sensitivity needs p > 0
        (["encoding-compare", "--L", "1"], "L"),
        (["circuit", "--L", "5"], "L"),
        (["circuit", "--depth", "-1"], "depth"),
        (["circuit", "--seed", "-1"], "seed"),                 # seed words are in [0, 2^64)
        (["circuit", "--seed", str(1 << 64)], "seed"),
        (["bounds", "--p", "0"], "p"),
        (["bounds", "--out", os.path.join(os.devnull, "x.json")], "out"),  # unwritable
        (["fermi1d", "--sweep-k", "--encoding", "jw2d_snake"], "encoding"),  # dim mismatch
    ])
    def test_configuration_errors_exit_two(self, capsys, argv, field):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @staticmethod
    def _refuse_to_allocate(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run reached an allocating entry point")

        for name in ("Lattice", "momentum_grid", "fermi_sea_1d", "circulant_power_law_state",
                     "brickwork_circuit"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv, field", [
        (["circuit", "--L", "16", "--depth", "100000000000"], "depth"),  # Haar-draw budget
        (["circuit", "--depth", "16385"], "depth"),           # 2^22 site-layers at L = 256
        (["circuit", "--L", "4194306", "--depth", "0"], "L"),  # 2^22 sites is the cap
        (["fermi2d", "--L", "1048576"], "L"),
        (["fermi2d", "--L", "2050"], "L"),                     # 2048^2 sites is the cap
        (["fermi1d", "--sweep-k", "--L", "4194306"], "L"),
        (["fermi1d", "--L", "4194320"], "L"),
        (["encoding-compare", "--L", "2049"], "L"),
    ])
    def test_oversized_sizes_exit_two_before_allocating(self, capsys, monkeypatch, argv, field):
        self._refuse_to_allocate(monkeypatch)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("argv", [
        ["circuit", "--L", "16", "--depth", "262144"],
        ["fermi2d", "--L", "2048"],
        ["fermi1d", "--sweep-k", "--L", "4194304"],
        ["encoding-compare", "--L", "2048"],
    ])
    def test_sizes_at_their_caps_are_accepted(self, monkeypatch, argv):
        self._refuse_to_allocate(monkeypatch)
        with pytest.raises(AssertionError, match="allocating"):
            cli.main(argv)

    def test_invariant_violations_exit_three(self, capsys, monkeypatch):
        def explode(cfg):
            raise InvariantViolation("synthetic breakage")

        monkeypatch.setitem(cli._RUNNERS, "bounds", explode)
        assert cli.main(["bounds"]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_internal_value_errors_are_not_configuration_errors(self, capsys, monkeypatch):
        def fail(cfg):
            raise ValueError("internal breakage")

        monkeypatch.setitem(cli._RUNNERS, "bounds", fail)
        with pytest.raises(ValueError, match="internal breakage"):
            cli.main(["bounds"])
        assert "configuration error" not in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        src = Path(fermion_noise.__file__).resolve().parents[1]
        probe = "import sys, fermion_noise.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_does_not_load_numpy_fft(self):
        # The spectral error map imports numpy.fft when it first runs, which
        # keeps it out of the start-up cost of every command.
        src = Path(fermion_noise.__file__).resolve().parents[1]
        probe = "import sys, fermion_noise.cli; print('numpy.fft' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_import_does_not_load_numpy_random_or_ma(self):
        src = Path(fermion_noise.__file__).resolve().parents[1]
        probe = ("import sys, fermion_noise.cli\n"
                 "print([m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_a_run_of_each_command_loads_no_numpy_random_ma_secrets_or_hashlib(self):
        # np.unique imports numpy.ma (about 8 ms) on first use, and a numpy
        # Generator numpy.random with secrets and hashlib (about 11 ms); the
        # circuit path dedupes by sorting and draws its gates from its own
        # stream, and no other command needs either.
        src = Path(fermion_noise.__file__).resolve().parents[1]
        runs = [["fermi1d", "--L", "20"], ["fermi1d", "--sweep-k", "--L", "8"],
                ["fermi2d", "--L", "4", "--n-occ", "3"],
                ["fermi2d", "--L", "4", "--n-occ", "3", "--encoding", "bravyi_kitaev"],
                ["encoding-compare", "--L", "2"], ["circuit", "--L", "16", "--depth", "2"],
                ["circuit", "--L", "4", "--depth", "1", "--encoding", "jw1d"], ["bounds"]]
        probe = ("import io, sys, contextlib, fermion_noise.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
                 "print(codes, [m for m in ('numpy.random', 'numpy.ma', 'secrets', 'hashlib')\n"
                 "              if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"{[0] * len(runs)} []"

    def test_a_circuit_run_loads_no_numpy_fft(self):
        # The circulant state is built from its exact C(r) and read on the
        # light cone's first window, so the circuit path takes no FFT
        # (loading numpy.fft and its first call cost about 1.4 ms).
        src = Path(fermion_noise.__file__).resolve().parents[1]
        runs = [["circuit", "--L", "16", "--depth", "3"],
                ["circuit", "--L", "64", "--depth", "4", "--encoding", "jw1d"],
                ["circuit", "--L", "64", "--depth", "4", "--encoding", "bravyi_kitaev",
                 "--mode", "worst-case"]]
        probe = ("import io, sys, contextlib, fermion_noise.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
                 "print(codes, 'numpy.fft' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"{[0] * len(runs)} False"


# A value of each option other than its default, as a flag or a config line gives it.
_SAMPLE_TEXT = {"encoding": "bravyi_kitaev", "mode": "worst-case", "p": "0.02", "sweep_k": "true"}


def _shortest_prefix(command, key):
    """The shortest start of ``key``'s flag that names it alone."""
    flags = ["--" + name.replace("_", "-")
             for name in [*cli._OPTIONS[command], "out", "format", "config", "help"]]
    flag = "--" + key.replace("_", "-")
    return next(flag[:n] for n in range(3, len(flag) + 1)
                if flag[:n] == flag or [f for f in flags if f.startswith(flag[:n])] == [flag])


class TestParser:
    """Flags and config lines are one table: ``cli._OPTIONS``."""

    @pytest.mark.parametrize("command,key", [(command, key) for command in cli._OPTIONS
                                             for key in cli._OPTIONS[command]])
    def test_every_key_reads_alike_as_flag_prefix_and_config_line(self, tmp_path, command,
                                                                  key):
        options = cli._OPTIONS[command]
        text = _SAMPLE_TEXT.get(key, "6")
        flag, prefix = "--" + key.replace("_", "-"), _shortest_prefix(command, key)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key}={text}\n")
        if options[key][0] is cli._cast_bool:
            forms = [[flag], [prefix]]
        else:
            forms = [[flag, text], [f"{flag}={text}"], [prefix, text], [f"{prefix}={text}"]]
        forms.append(["--config", str(cfg)])
        configs = []
        for form in forms:
            parsed, flags = cli._parse_argv([command, *form])
            assert parsed == command
            configs.append(cli._resolve(command, flags))
        want = {name: default for name, (_, default, _) in options.items()}
        want[key] = options[key][0](text)
        assert want[key] != options[key][1]
        assert all(list(got.items()) == list(want.items()) for got in configs), configs

    def test_flags_win_over_the_config_file_and_the_last_flag_wins(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("depth=5\nseed=9\n")
        _, flags = cli._parse_argv(["circuit", "--depth", "2", "--config", str(cfg),
                                    "--dep=4", "--format", "json", "--format=csv"])
        assert flags == {"depth": 4, "config": str(cfg), "format": "csv"}
        resolved = cli._resolve("circuit", flags)
        assert (resolved["depth"], resolved["seed"]) == (4, 9)
        assert "format" not in resolved and "config" not in resolved

    @pytest.mark.parametrize("argv, field", [
        (["fermi2d", "--frob", "1"], "--frob"),             # unknown flag
        (["fermi2d", "--sweep-k"], "--sweep-k"),            # another command's flag
        (["fermi2d", "--n_occ", "3"], "--n_occ"),           # a key is no flag
        (["fermi2d", "--L"], "L"),                          # missing value
        (["fermi2d", "--L", "--p", "0.1"], "L"),            # a flag is no value
        (["fermi2d", "--out", "-h"], "out"),
        (["fermi1d", "--sweep-k=yes"], "sweep_k"),          # a value on a boolean flag
        (["fermi1d", "--sweep-k", "yes"], "yes"),           # stray positional
        (["fermi2d", "30"], "30"),
        (["fermi2d", "--", "--L", "4"], "--"),
        (["fermi2d", "-L", "4"], "-L"),
        (["fermi2d", "--format", "xml"], "format"),
        (["fermi2d", "--L", "x"], "L"),                     # a bad value: the cast's message
        (["circuit", "--depth=2.5"], "depth"),
        (["bounds", "--p", "lots"], "p"),
        (["--L", "4"], "command"),                          # flags come after the command
    ])
    def test_parse_errors_exit_two_and_name_their_field(self, capsys, argv, field):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {field}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                      *([command, flag] for command in cli._OPTIONS
                                        for flag in ("--help", "-h", "--he")),
                                      ["fermi2d", "--L", "8", "--help", "--frob"]])
    def test_help_prints_the_table_and_returns_zero(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: fermion-noise ") and captured.err == ""
        if len(argv) == 1:
            assert all(command in captured.out for command in cli._OPTIONS)
        else:
            for key, (_, _, text) in cli._OPTIONS[argv[0]].items():
                assert f"--{key.replace('_', '-')}" in captured.out and text in captured.out
            assert "--out" in captured.out and "--config" in captured.out

    def test_a_run_of_each_command_loads_no_argparse_gettext_or_locale(self):
        src = Path(fermion_noise.__file__).resolve().parents[1]
        runs = [["fermi1d", "--L", "20"], ["fermi1d", "--sweep-k", "--L", "8"],
                ["fermi2d", "--L", "4", "--n-occ", "3"], ["encoding-compare", "--L", "2"],
                ["circuit", "--L", "4", "--depth", "1"], ["bounds", "--format", "csv"],
                ["bounds", "--help"], ["fermi2d", "--L", "x"]]
        probe = ("import io, sys, contextlib, fermion_noise.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()), "
                 "contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
                 "print(codes, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 2] []"


class TestConsoleScript:
    def test_declared_entry_point_runs(self, tmp_path):
        # pyproject.toml's [project.scripts] target, called as the installed
        # console script calls it.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["fermion-noise"]
        module, func = target.split(":")
        main = getattr(importlib.import_module(module), func)
        out = tmp_path / "table.csv"
        assert main(["encoding-compare", "--L", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("encoding,n_modes,weight,error\n")


class TestConfigFiles:
    def test_unknown_key_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depht=3\n")
        assert cli.main(["circuit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "depht" in err and "circuit" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert cli.main(["fermi1d", "--config", str(cfg)]) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field", [("p=very-noisy", "p"), ("sweep_k=maybe", "sweep_k")])
    def test_bad_value_type(self, capsys, tmp_path, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["fermi1d", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("value, header", [
        *[(v, "k,sensitivity\n") for v in ("true", "yes", "on", "1", " TRUE ")],
        *[(v, "N,n_noisy_kf,") for v in ("false", "no", "off", "0", "Off")]])
    def test_boolean_value(self, tmp_path, value, header):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"sweep_k={value}\nL=20\n")
        code, out = run_to_file(tmp_path, "out.csv", ["fermi1d", "--config", str(cfg)])
        assert code == 0
        assert out.read_text().startswith(header)

    def test_missing_file(self, capsys):
        assert cli.main(["fermi1d", "--config", "/nonexistent/path.cfg"]) == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\n\nL=4\np=0.02\n")
        code, out = run_to_file(tmp_path, "out.csv",
                                ["encoding-compare", "--config", str(cfg)])
        assert code == 0
        assert out.read_text().count("\n") > 1

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("p=0.5\n")
        code, out = run_to_file(
            tmp_path, "out.json",
            ["bounds", "--config", str(cfg), "--p", "0.01", "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["p"] == 0.01

    def test_json_echo_round_trips_through_a_config_file(self, tmp_path):
        code, first = run_to_file(tmp_path, "a.json", ["bounds", "--p", "0.02"])
        assert code == 0
        payload = json.loads(first.read_text())
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(f"{key}={value}\n"
                               for key, value in payload["config"].items()))
        code, second = run_to_file(tmp_path, "b.json", ["bounds", "--config", str(cfg)])
        assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["fermi1d", "--L", "20"],
        ["fermi1d", "--sweep-k", "--L", "8"],
        ["fermi2d", "--L", "4", "--n-occ", "3"],
        ["encoding-compare", "--L", "4"],
        ["circuit", "--L", "4", "--depth", "2"],
        ["bounds"],
    ])
    def test_reruns_are_byte_identical(self, tmp_path, argv):
        code_a, a = run_to_file(tmp_path, "a.out", argv)
        code_b, b = run_to_file(tmp_path, "b.out", argv)
        assert code_a == code_b == 0
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert b"\r" not in data

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fermion_noise.cli", "encoding-compare", "--L", "2"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "encoding,n_modes,weight,error"


class TestFermi1dOutput:
    def test_size_grid_schema(self, tmp_path):
        code, out = run_to_file(tmp_path, "grid.csv", ["fermi1d", "--L", "40"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,n_noisy_kf,n_noisy_q0,error_kf,error_q0"
        sizes = [int(line.split(",")[0]) for line in lines[1:]]
        assert sizes == [20, 40]

    def test_fermi_level_error_grows_with_size(self, tmp_path):
        code, out = run_to_file(tmp_path, "grid.csv", ["fermi1d", "--L", "80"])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        err_kf = [float(r[3]) for r in rows]
        err_q0 = [float(r[4]) for r in rows]
        assert all(a < b for a, b in zip(err_kf, err_kf[1:]))
        # Deep-interior error stays flat in comparison.
        assert max(err_q0) <= 1.5 * min(err_q0)

    def test_sweep_schema_and_momentum_order(self, tmp_path):
        code, out = run_to_file(tmp_path, "sweep.csv",
                                ["fermi1d", "--sweep-k", "--L", "12"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,sensitivity"
        ks = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(ks) == 12
        assert ks == sorted(ks)

    def test_bravyi_kitaev_sweep_matches_the_recorded_reference(self, tmp_path):
        # Recorded from the seed code; the benchmark's bk-sweep workload runs
        # the same command against the same file.
        reference = REFERENCE_DIR / "fermi1d_sweep_bk_L512.csv"
        code, out = run_to_file(tmp_path, "sweep.csv", ["fermi1d", "--sweep-k", "--encoding",
                                                        "bravyi_kitaev", "--L", "512"])
        assert code == 0
        assert out.read_text().splitlines()[0] == reference.read_text().splitlines()[0]
        got, want = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (out, reference))
        assert got.shape == want.shape == (512, 2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_zero_noise_grid_has_zero_errors(self, tmp_path):
        code, out = run_to_file(tmp_path, "grid.csv",
                                ["fermi1d", "--L", "20", "--p", "0"])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[3]) == 0.0 and float(row[4]) == 0.0


class TestFermi1dDensePaths:
    # A Fermi sea's covariance is gathered on index sets; none of these runs
    # may gather it on all 2N Majoranas.
    def test_size_grid_builds_no_dense_array(self, tmp_path, monkeypatch):
        refuse_full_covariance(monkeypatch)
        code, out = run_to_file(tmp_path, "grid.csv", ["fermi1d", "--L", "100"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("mode", ["exact", "worst-case"])
    @pytest.mark.parametrize("encoding", ["local", "jw1d", "bravyi_kitaev"])
    def test_sweep_builds_no_covariance(self, tmp_path, monkeypatch, encoding, mode):
        refuse_full_covariance(monkeypatch)
        code, out = run_to_file(tmp_path, "sweep.csv",
                                ["fermi1d", "--sweep-k", "--encoding", encoding, "--L", "16",
                                 "--mode", mode])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 16


class TestFermi2dOutput:
    def test_schema_and_row_count(self, tmp_path):
        code, out = run_to_file(tmp_path, "map.csv",
                                ["fermi2d", "--L", "6", "--n-occ", "9"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_occ,kx,ky,sensitivity"
        assert len(lines) == 1 + 36

    def test_default_fillings(self, tmp_path):
        code, out = run_to_file(tmp_path, "map.csv", ["fermi2d", "--L", "30"])
        assert code == 0
        fillings = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert fillings == {"300", "450", "700"}

    def test_builds_no_distance_matrix(self, tmp_path, monkeypatch):
        builds = []
        original = Lattice.distance_matrix

        def counting(lat):
            if lat._distance_matrix is None:
                builds.append(lat)
            return original(lat)

        monkeypatch.setattr(Lattice, "distance_matrix", counting)
        code, _ = run_to_file(tmp_path, "map.csv", ["fermi2d", "--L", "30"])
        assert code == 0
        assert len(builds) == 0

    @pytest.mark.parametrize("mode", ["exact", "worst-case"])
    @pytest.mark.parametrize("argv,rows", [
        (["--L", "40"], 3 * 1600),
        (["--L", "8", "--n-occ", "21", "--encoding", "jw2d_snake"], 64),
        (["--L", "8", "--n-occ", "21", "--encoding", "bravyi_kitaev"], 64),
    ])
    def test_never_builds_the_covariance(self, tmp_path, monkeypatch, argv, rows, mode):
        # A Fermi sea's error map sums the drops by displacement and weights
        # them by C(r), for every encoding and mode: no 2N x 2N covariance and
        # no N x N distance matrix.
        def refuse(*args):
            raise AssertionError("dense array built for a mode-diagonal state")

        refuse_full_covariance(monkeypatch)
        monkeypatch.setattr(Lattice, "distance_matrix", refuse)
        code, out = run_to_file(tmp_path, "map.csv", ["fermi2d", "--mode", mode] + argv)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + rows

    def test_fillings_of_both_parities_write_the_rows_of_each_alone(self, tmp_path, monkeypatch):
        # Fillings share a grid per parity; the codes of the second grid are
        # offset past the first one's values.
        fillings = (9, 10, 11, 12)
        alone = ""
        for n in fillings:
            _, out = run_to_file(tmp_path, f"{n}.csv", ["fermi2d", "--L", "6", "--n-occ", str(n)])
            alone += out.read_text().split("\n", 1)[1]
        monkeypatch.setattr(cli, "_FERMI2D_DEFAULT_FILLINGS", fillings)
        code, out = run_to_file(tmp_path, "all.csv", ["fermi2d", "--L", "6"])
        assert code == 0
        assert out.read_text() == "n_occ,kx,ky,sensitivity\n" + alone

    @pytest.mark.parametrize("argv", [
        "fermi2d --L 30",
        "fermi2d --L 8 --n-occ 21 --encoding jw2d_snake",
        "fermi2d --L 16 --n-occ 100 --encoding bravyi_kitaev",
        "fermi1d --sweep-k --encoding bravyi_kitaev --L 64"])
    def test_runs_no_fft_on_the_box(self, tmp_path, monkeypatch, argv):
        # C(r), every encoding's drops and every momentum sum live on the L^D
        # torus: every FFT of the path transforms axes of length L, none of 2L.
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            def record(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
                shape = np.shape(a)
                if _name.endswith("n"):  # (a, s, axes): s, or the shape along axes
                    s = kwargs.get("s", args[0] if args else None)
                    axes = kwargs.get("axes", args[1] if len(args) > 1 else range(len(shape)))
                    lengths.append(tuple(s) if s is not None else tuple(shape[i] for i in axes))
                else:  # (a, n, axis)
                    n = kwargs.get("n", args[0] if args else None)
                    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                    lengths.append((n if n is not None else shape[axis],))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, record)
        argv = argv.split()
        code, _ = run_to_file(tmp_path, "map.csv", argv)
        assert code == 0
        length, dim = int(argv[argv.index("--L") + 1]), 2 if argv[0] == "fermi2d" else 1
        assert lengths and all(n == (length,) * dim for n in lengths), lengths


class TestEncodingCompareOutput:
    def test_closed_form_columns(self, tmp_path):
        p = 0.01
        code, out = run_to_file(tmp_path, "cmp.csv",
                                ["encoding-compare", "--L", "8", "--p", str(p)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "encoding,n_modes,weight,error"
        rows = [line.split(",") for line in lines[1:]]
        local = [r for r in rows if r[0] == "local"]
        snake = [r for r in rows if r[0] == "jw2d_snake"]
        bk = [r for r in rows if r[0] == "bravyi_kitaev"]
        assert len(local) == len(snake) == 4  # sides 2, 4, 6, 8
        for r in local:
            assert int(r[2]) == 2  # phi0 + 1
            assert float(r[3]) == pytest.approx(1.0 - (1.0 - p) ** 2, abs=1e-12)
        for r in snake:
            side = int(round(int(r[1]) ** 0.5))
            assert int(r[2]) == side + 1
            assert float(r[3]) == pytest.approx(1.0 - (1.0 - p) ** (side + 1), abs=1e-12)
        assert [int(r[1]) for r in bk] == [2, 4, 8, 16, 32, 64]
        for r in bk:
            w = int(r[2])
            assert float(r[3]) == pytest.approx(0.5 * (1.0 - (1.0 - p) ** w), abs=1e-12)


class TestCircuitOutput:
    def test_schema_depth_zero_and_bound_domination(self, tmp_path):
        code, out = run_to_file(tmp_path, "circ.csv",
                                ["circuit", "--L", "16", "--depth", "3"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_sites,depth,p,error,prop3_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4  # depths 0..3
        assert float(rows[0][3]) == 0.0 and float(rows[0][4]) == 0.0
        for r in rows:
            assert float(r[3]) <= float(r[4]) + 1e-12

    def test_rows_match_the_dense_pullback_record(self, tmp_path):
        # Recorded with every layer applied to the full 2N x 2N covariance
        # (conftest's evolve_state, dense_rotation per layer); a change of the
        # sweep, the Haar stream or the bound shows up here by name.
        code, out = run_to_file(tmp_path, "circ.json",
                                ["circuit", "--L", "16", "--depth", "3", "--seed", "0",
                                 "--format", "json"])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["depth"] for r in rows] == [0, 1, 2, 3]
        errors = [0.0, 0.004392518757769054, 0.0049334525535043305, 0.00046052478402964364]
        bounds = [0.0, 14.132577412106478, 113.06061929685183, 381.5795901268749]
        for row, error, bound in zip(rows, errors, bounds):
            assert row["error"] == pytest.approx(error, abs=1e-12), row
            assert row["prop3_bound"] == pytest.approx(bound, abs=1e-12), row

    def test_builds_no_dense_array(self, tmp_path, monkeypatch):
        # Layers, attenuation, initial state and observable all stay on the
        # light cone: none of the 2N x 2N constructions may run.
        _, expected = run_to_file(tmp_path, "before.csv",
                                  ["circuit", "--L", "512", "--depth", "8", "--seed", "1"])

        def refuse(*args, **kwargs):
            raise AssertionError("dense array built")

        pair_weights = EncodingWeightModel.pair_weights

        def light_cone_only(self, idx, counts=False):
            if np.bincount(np.ravel(idx), minlength=self.lattice.n_majorana).all():
                raise AssertionError("weights of all 2N Majoranas built")
            return pair_weights(self, idx, counts)

        refuse_full_covariance(monkeypatch)
        monkeypatch.setattr(Lattice, "distance_matrix", refuse)
        monkeypatch.setattr(EncodingWeightModel, "pair_weights", light_cone_only)
        code, out = run_to_file(tmp_path, "after.csv",
                                ["circuit", "--L", "512", "--depth", "8", "--seed", "1"])
        assert code == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_every_prefix_is_one_step_of_one_sweep(self, tmp_path, monkeypatch):
        # The ideal and noisy runs share one sweep of the layers: one window
        # step per layer, one damping call per layer (the noisy run only) and
        # one covariance gather, where two sweeps took 2 * depth window steps
        # and two gathers.
        import fermion_noise.circuits as circuits
        from fermion_noise.gaussian import ModeDiagonalState
        steps, damped, gathered = [], [], []
        window, attenuation = circuits.Layer.window, circuits.attenuation_block
        covariance_block = ModeDiagonalState.covariance_block

        def stepping(layer, support):
            steps.append(len(support))
            return window(layer, support)

        def damping(enc, etas, idx):
            damped.append(len(idx))
            return attenuation(enc, etas, idx)

        def gathering(state, idx):
            gathered.append(len(idx))
            return covariance_block(state, idx)

        monkeypatch.setattr(circuits.Layer, "window", stepping)
        monkeypatch.setattr(circuits, "attenuation_block", damping)
        monkeypatch.setattr(ModeDiagonalState, "covariance_block", gathering)
        for length, depth in ((16, 3), (512, 8)):
            for counts in (steps, damped, gathered):
                counts.clear()
            code, _ = run_to_file(tmp_path, "circ.csv",
                                  ["circuit", "--L", str(length), "--depth", str(depth)])
            assert code == 0
            assert (len(steps), len(damped), len(gathered)) == (depth, depth, 1), length
            # At most 2 Majoranas on each of the 2 + 2 * (depth - d) sites of window d;
            # the noisy copy is damped on W_1..W_depth, the windows the steps start from.
            cone = 2 * (2 + 2 * depth)
            assert max(steps) <= cone - 4 and gathered[0] <= cone
            assert sorted(damped) == sorted(steps)

    def test_phi0_zero_stays_within_the_bound(self, tmp_path):
        code, out = run_to_file(tmp_path, "circ.json",
                                ["circuit", "--phi0", "0", "--format", "json"])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3 * 4
        assert all(row["error"] <= row["prop3_bound"] for row in rows)

    @staticmethod
    def _zero_bound(monkeypatch):
        real = cli.prop3_bound
        monkeypatch.setattr(cli, "prop3_bound", lambda *args, **kwargs: dataclasses.replace(
            real(*args, **kwargs), value=0.0))

    def test_error_above_the_bound_exits_3_for_local(self, tmp_path, monkeypatch, capsys):
        self._zero_bound(monkeypatch)
        code, out = run_to_file(tmp_path, "circ.csv",
                                ["circuit", "--L", "16", "--depth", "3", "--seed", "0"])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "depth 1" in err and "error 0.00439252" in err and "bound 0" in err

    @pytest.mark.parametrize("kind", ["jw1d", "bravyi_kitaev"])
    def test_encodings_outside_the_premise_are_not_checked(self, tmp_path, monkeypatch, kind):
        self._zero_bound(monkeypatch)
        code, out = run_to_file(tmp_path, "circ.csv",
                                ["circuit", "--L", "16", "--depth", "3", "--encoding", kind])
        assert code == 0
        assert float(out.read_text().splitlines()[-1].split(",")[3]) > 0.0

    def test_unphysical_initial_state_exits_3(self, tmp_path, monkeypatch, capsys):
        import fermion_noise.gaussian as gaussian
        monkeypatch.setattr(gaussian, "_offdiagonal_decay_sum", lambda dim, mu: 0.1)
        code, _ = run_to_file(tmp_path, "circ.csv", ["circuit", "--L", "16", "--depth", "2"])
        assert code == 3
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_seed_changes_the_circuit(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.csv",
                           ["circuit", "--L", "8", "--depth", "2", "--seed", "0"])
        _, b = run_to_file(tmp_path, "b.csv",
                           ["circuit", "--L", "8", "--depth", "2", "--seed", "1"])
        assert a.read_bytes() != b.read_bytes()


class TestBoundsOutput:
    def test_json_payload_structure(self, tmp_path):
        code, out = run_to_file(tmp_path, "bounds.json", ["bounds", "--p", "0.01"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "bounds"
        for table in ("prop1", "prop3_prop4", "fermi2d_off_surface", "fermi2d_on_surface"):
            assert payload[table], table
        for row in payload["prop3_prop4"]:
            assert row["prop4"] >= row["prop3"]
        for row in payload["fermi2d_on_surface"]:
            assert 0.0 <= row["value"] <= 0.5

    def test_csv_format_flattens_tables(self, tmp_path):
        code, out = run_to_file(tmp_path, "bounds.csv",
                                ["bounds", "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("table,")
        tables = {line.split(",")[0] for line in lines[1:]}
        assert tables == {"prop1", "prop3_prop4", "fermi2d_off_surface",
                          "fermi2d_on_surface"}

    def test_stdout_default(self, capsys):
        assert cli.main(["bounds", "--p", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["p"] == 0.05


class TestJsonFormat:
    def test_rows_key_for_table_commands(self, tmp_path):
        code, out = run_to_file(tmp_path, "rows.json",
                                ["encoding-compare", "--L", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "encoding-compare"
        assert isinstance(payload["rows"], list)
        assert payload["rows"][0]["encoding"] == "local"

    def test_values_survive_round_trip_at_twelve_digits(self, tmp_path):
        p = 0.123456789
        code, out = run_to_file(tmp_path, "cmp.csv",
                                ["encoding-compare", "--L", "2", "--p", str(p)])
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        want = 1.0 - (1.0 - p) ** 2
        assert float(first[3]) == pytest.approx(want, rel=1e-11)


class TestGoldenOutput:
    """Exact output bytes of a fixed command set (the perfbench references check to 1e-10 only)."""

    @pytest.mark.parametrize("name, argv", [
        ("fermi1d_L60.csv", "fermi1d --L 60"),
        ("fermi1d_L60_worst_case.json", "fermi1d --L 60 --format json --mode worst-case"),
        ("fermi1d_sweep_k_L32_bravyi_kitaev.csv",
         "fermi1d --sweep-k --L 32 --encoding bravyi_kitaev"),
        ("fermi2d_L8_n10.csv", "fermi2d --L 8 --n-occ 10"),
        ("fermi2d_L8_n10.json", "fermi2d --L 8 --n-occ 10 --format json"),
        ("fermi2d_L16_n100_jw2d_snake.csv", "fermi2d --L 16 --n-occ 100 --encoding jw2d_snake"),
        ("encoding_compare_L8.csv", "encoding-compare --L 8"),
        ("encoding_compare_L8.json", "encoding-compare --L 8 --format json"),
        ("circuit_L16_depth3_seed0.json", "circuit --L 16 --depth 3 --seed 0 --format json"),
        ("bounds.json", "bounds"),
        ("bounds.csv", "bounds --format csv"),
        ("bounds_p0.001.json", "bounds --p 0.001"),  # p/10 sums span two full chunks
        ("bounds_p0.00007.json", "bounds --p 0.00007"),  # six full chunks, the largest
        ("fermi2d_L16_n100_bravyi_kitaev.csv",
         "fermi2d --L 16 --n-occ 100 --encoding bravyi_kitaev"),
        ("fermi2d_L8_n10_bravyi_kitaev_worst_case.csv",
         "fermi2d --L 8 --n-occ 10 --encoding bravyi_kitaev --mode worst-case"),
        ("fermi1d_sweep_k_L64_bravyi_kitaev_eta0.csv",  # worst-case etas of 0
         "fermi1d --sweep-k --encoding bravyi_kitaev --L 64 --p 0.6666666666666666 "
         "--mode worst-case"),
    ])
    def test_output_matches_the_recorded_bytes(self, tmp_path, name, argv):
        code, out = run_to_file(tmp_path, name, argv.split())
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


class TestCsvWriter:
    @staticmethod
    def write(tables):
        stream = io.StringIO()
        cli._write_csv(tables, stream)
        return stream.getvalue()

    def test_floats_format_at_twelve_significant_digits(self):
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 3.0, -2.0, 0.1 + 0.2]
        lines = self.write([{"x": np.array(values)}]).splitlines()
        assert lines == ["x"] + [format(value, ".12g") for value in values]

    def test_integer_and_string_columns_are_written_as_str(self):
        table = {"i": np.array([0, -7, 2**62]),
                 "u": np.array([3, 0, 2**64 - 1], dtype=np.uint64),
                 "s": np.array(["local", "mu>D+1", "bravyi_kitaev"])}
        lines = self.write([table]).splitlines()
        assert lines[0] == "i,u,s"
        assert lines[1:] == [",".join(str(column[r]) for column in table.values())
                             for r in range(3)]

    def test_a_missing_column_is_an_empty_field(self):
        tables = [{"table": np.array(["a"]), "x": np.array([0.5]), "n": np.array([1])},
                  {"table": np.array(["b"]), "n": np.array([2]), "y": np.array([0.25])}]
        assert self.write(tables) == "table,x,n,y\na,0.5,1,\nb,,2,0.25\n"

    def test_zero_rows_write_nothing(self):
        assert self.write([{"x": np.array([], dtype=float)}]) == ""
        # An empty table adds no column to the header of the others.
        tables = [{"x": np.array([], dtype=float)}, {"n": np.array([4])}]
        assert self.write(tables) == "n\n4\n"

    def test_row_blocks_give_the_bytes_of_single_rows(self, monkeypatch):
        rng = np.random.default_rng(7)
        table = {"n": np.arange(10), "x": rng.normal(size=10), "s": np.array(list("abcdefghij"))}
        one_at_a_time = self.write([{name: column[r:r + 1] for name, column in table.items()}
                                    for r in range(10)])
        assert self.write([table]) == one_at_a_time
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        assert self.write([table]) == one_at_a_time


class TestJsonWriter:
    @staticmethod
    def write(head, tables):
        stream = io.StringIO()
        cli._write_json(head, tables, stream)
        return stream.getvalue()

    @staticmethod
    def reference(head, tables):
        rows = {name: [dict(zip(table, row)) for row in zip(*(c.tolist() for c in table.values()))]
                for name, table in tables.items()}
        return json.dumps({**head, **rows}, indent=2) + "\n"

    def test_non_finite_floats_are_written_as_json_writes_them(self):
        head = {"command": "x", "config": {"p": 0.5, "L": None, "flag": True}}
        tables = {"rows": {"x": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1]),
                           "n": np.arange(7)}}
        text = self.write(head, tables)
        assert text == self.reference(head, tables)
        x_lines = [line.strip() for line in text.splitlines() if line.strip().startswith('"x"')]
        assert x_lines[:3] == ['"x": NaN,', '"x": Infinity,', '"x": -Infinity,']

    def test_any_tables_give_the_bytes_of_json_dump(self, monkeypatch):
        rng = np.random.default_rng(3)
        head = {"command": "bounds", "config": {"p": 1e-3, "name": 'a "b" %d'}}
        tables = {
            "one": {"i": np.array([0, -7, 2**62]), "u": np.array([3, 0, 2**64 - 1], dtype=np.uint64),
                    "s": np.array(['plain', 'quote "q"', "percent %s"]),
                    "b": np.array([True, False, True]), "f": rng.normal(size=3) * 1e300},
            "empty": {"x": np.array([], dtype=float)},
            "100% \"odd\" name": {"k%d": np.arange(10) / 7.0, "v": rng.normal(size=10)},
        }
        want = self.reference(head, tables)
        assert self.write(head, tables) == want
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        assert self.write(head, tables) == want


class TestCodedColumns:
    # A coded column (values, codes) writes the bytes of the plain column
    # values[codes], in CSV and in JSON.
    FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1 + 0.2, 1e16])

    @staticmethod
    def plain(tables):
        return [{name: column[0][column[1]] if isinstance(column, tuple) else column
                 for name, column in table.items()} for table in tables]

    @staticmethod
    def write_csv(tables):
        stream = io.StringIO()
        cli._write_csv(tables, stream)
        return stream.getvalue()

    @staticmethod
    def write_json(tables):
        stream = io.StringIO()
        cli._write_json({"command": "x"}, {f"t{i}": t for i, t in enumerate(tables)}, stream)
        return stream.getvalue()

    def tables(self, rng):
        n = 10

        def coded(values):  # every value in some row, in a shuffled order
            return values, rng.permutation(np.arange(n) % len(values))

        return [{"f": coded(self.FLOATS), "i": coded(np.array([300, -7, 2**62])),
                 "s": coded(np.array(["local", "50%", 'say "x"'])), "x": rng.normal(size=n)}]

    @pytest.mark.parametrize("block_rows", [65536, 3])
    def test_coded_columns_write_the_bytes_of_plain_ones(self, rng, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        tables = self.tables(rng)
        assert self.write_csv(tables) == self.write_csv(self.plain(tables))
        assert self.write_json(tables) == self.write_json(self.plain(tables))
        assert "NaN" in self.write_json(tables) and "nan" in self.write_csv(tables)

    def test_a_table_without_the_coded_column_and_an_empty_one(self, rng, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        tables = [{"n": np.array([4, 5])},
                  *self.tables(rng),
                  {"f": (self.FLOATS, np.array([], dtype=np.int64)), "y": np.array([])}]
        assert self.write_csv(tables) == self.write_csv(self.plain(tables))
        assert self.write_csv(tables).splitlines()[0] == "n,f,i,s,x"
        assert self.write_json(tables) == self.write_json(self.plain(tables))
        assert self.write_csv(tables[-1:]) == ""
        assert self.write_json(tables[-1:]).endswith('"t0": []\n}\n')


class TestParserReuse:
    def test_a_second_call_gets_its_defaults_back(self, tmp_path):
        code, _ = run_to_file(tmp_path, "first.json", ["circuit", "--L", "8", "--depth", "2",
                                                       "--seed", "5", "--format", "json"])
        assert code == 0
        code, second = run_to_file(tmp_path, "second.csv", ["circuit", "--L", "8"])
        assert code == 0
        _, explicit = run_to_file(tmp_path, "explicit.csv", ["circuit", "--L", "8", "--depth", "3",
                                                             "--seed", "0", "--format", "csv"])
        assert second.read_bytes() == explicit.read_bytes()
        assert len(second.read_text().splitlines()) == 1 + 4
