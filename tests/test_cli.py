"""Command-line harness: artifacts, formats, determinism, exit codes."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import phasecode
from phasecode.cli import RUN_LOG_HEADER, _build_ga_config, build_parser, derive_sweep_seed, main
from phasecode.codes import parse_code
from phasecode.fitness import fitness
from phasecode.ga import GaConfig

SMALL = ["--N", "16", "--N_G", "6", "--P", "120", "--E", "24", "--M", "5"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def log_bytes_without_elapsed(path):
    """Log body with the wall-clock column masked (it is the one
    legitimately nondeterministic column)."""
    rows = read_csv(path)
    assert rows[0] == RUN_LOG_HEADER
    return "\n".join(",".join(row[:-1]) for row in rows)


class TestSearchCommand:
    def test_writes_log_result_and_plot(self, tmp_path):
        out = tmp_path / "runs"
        assert main(["search", *SMALL, "--seed", "3", "--out", str(out)]) == 0
        run_id = "search_N16_seed3"
        assert (out / f"{run_id}.log.csv").exists()
        assert (out / f"{run_id}.plot.csv").exists()
        assert (out / f"{run_id}.result.txt").exists()

    def test_log_header_exact(self, tmp_path):
        main(["search", *SMALL, "--seed", "3", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "search_N16_seed3.log.csv")
        assert rows[0] == [
            "run_id",
            "seed",
            "k",
            "best_gamma",
            "mean_gamma",
            "distinct_members",
            "visited_states",
            "elapsed_seconds",
        ]
        assert len(rows) == 1 + 7  # generations 0..6

    def test_result_file_revalidates(self, tmp_path):
        main(["search", *SMALL, "--seed", "4", "--out", str(tmp_path)])
        meta = {}
        for line in (tmp_path / "search_N16_seed4.result.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            meta[key] = value
        code = parse_code(meta["code"])
        stored = float(meta["gamma"])
        recomputed = fitness(code).gamma
        assert abs(stored - recomputed) / recomputed <= 1e-6
        assert int(meta["N"]) == 16
        assert int(meta["seed"]) == 4

    def test_log_monotone_and_visited_monotone(self, tmp_path):
        main(["search", *SMALL, "--seed", "5", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "search_N16_seed5.log.csv")[1:]
        best = [float(r[3]) for r in rows]
        visited = [int(r[6]) for r in rows]
        assert best == sorted(best)
        assert visited == sorted(visited)

    def test_identical_config_invocations_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["search", *SMALL, "--seed", "6", "--out", str(a)])
        main(["search", *SMALL, "--seed", "6", "--out", str(b)])
        name = "search_N16_seed6"
        assert log_bytes_without_elapsed(a / f"{name}.log.csv") == \
            log_bytes_without_elapsed(b / f"{name}.log.csv")
        # the plot CSV carries no timing at all: fully byte-identical
        assert (a / f"{name}.plot.csv").read_bytes() == (b / f"{name}.plot.csv").read_bytes()

    def test_thread_count_does_not_change_logs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        big = ["--N", "31", "--N_G", "3", "--P", "2600", "--E", "500", "--M", "5"]
        main(["search", *big, "--seed", "7", "--out", str(a), "--threads", "1"])
        main(["search", *big, "--seed", "7", "--out", str(b), "--threads", "4"])
        name = "search_N31_seed7"
        assert log_bytes_without_elapsed(a / f"{name}.log.csv") == \
            log_bytes_without_elapsed(b / f"{name}.log.csv")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text(
            "# reproduction defaults\nN = 16\nN_G = 3\nP = 120\nE = 24\nM = 5\n"
            "p_muta = 0.3\np_conv = 0.3\nseed = 11\n"
        )
        out = tmp_path / "runs"
        assert main(["search", "--config", str(cfg), "--seed", "12",
                     "--out", str(out)]) == 0
        assert (out / "search_N16_seed12.log.csv").exists()  # flag beat the file

    def test_every_scalar_config_field_round_trips(self, tmp_path):
        # A valid non-default value for each int and float field of GaConfig.
        want = {
            f.name: f.default + 1 if type(f.default) is int else f.default / 2
            for f in fields(GaConfig)
            if type(f.default) in (int, float)
        }
        assert {"N", "N_G", "P", "E", "M", "p_muta", "p_conv", "seed"} <= set(want)
        cfg = tmp_path / "ga.conf"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in want.items()))
        args = build_parser().parse_args(["search", "--config", str(cfg)])
        config = _build_ga_config(args)
        for key, value in want.items():
            got = getattr(config, key)
            assert (got, type(got)) == (value, type(value)), key

    def test_bad_config_file_is_exit_one(self, tmp_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("NO_SUCH_KEY = 5\n")
        assert main(["search", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_seed_known_requires_matching_length(self, tmp_path):
        # registry codes are length 59; N=16 must be a config error
        assert main(["search", *SMALL, "--seed-known", "--out", str(tmp_path)]) == 1

    def test_unwritable_output_is_exit_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["search", *SMALL, "--out", str(blocker / "sub")])
        assert code == 2


class TestEvalCommand:
    def test_registry_code_report(self, capsys):
        assert main(["eval", "ga"]) == 0
        text = capsys.readouterr().out
        assert "N = 59" in text
        gamma = float(next(l for l in text.splitlines()
                           if l.startswith("gamma (optimal")).split("=")[1])
        assert gamma == pytest.approx(50.84, abs=0.01)

    def test_two_symbol_code(self, capsys):
        assert main(["eval", "+1,+1"]) == 0
        text = capsys.readouterr().out
        mmf = float(next(l for l in text.splitlines()
                         if l.startswith("gamma (optimal")).split("=")[1])
        mf = float(next(l for l in text.splitlines()
                        if l.startswith("gamma (matched")).split("=")[1])
        assert mmf == pytest.approx(2.0)
        assert mf == pytest.approx(2.0)

    def test_legendre_matched_filter_below_optimum(self, capsys):
        assert main(["eval", "legendre"]) == 0
        text = capsys.readouterr().out
        mmf = float(next(l for l in text.splitlines()
                         if l.startswith("gamma (optimal")).split("=")[1])
        mf = float(next(l for l in text.splitlines()
                        if l.startswith("gamma (matched")).split("=")[1])
        assert mmf == pytest.approx(2.69, abs=0.01)
        assert mf <= mmf

    def test_reads_code_from_file(self, tmp_path, capsys):
        path = tmp_path / "code.txt"
        path.write_text("+1,-1,+1,-1\n")
        assert main(["eval", "--file", str(path)]) == 0
        assert "N = 4" in capsys.readouterr().out

    def test_parse_failure_is_exit_one(self, capsys):
        assert main(["eval", "+1,banana"]) == 1
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_length_matches_standalone_search(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["--N_G", "4", "--P", "100", "--E", "20", "--M", "5", "--seed", "5"]
        assert main(["sweep", "10", "10", *args, "--out", str(out)]) == 0
        derived = derive_sweep_seed(5, 10)
        solo = tmp_path / "solo"
        assert main(["search", "--N", "10", "--N_G", "4", "--P", "100", "--E", "20",
                     "--M", "5", "--seed", str(derived), "--out", str(solo)]) == 0
        sweep_log = log_bytes_without_elapsed(
            out / f"search_N10_seed{derived}.log.csv")
        solo_log = log_bytes_without_elapsed(
            solo / f"search_N10_seed{derived}.log.csv")
        assert sweep_log == solo_log

    def test_summary_has_one_row_per_length(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["--N_G", "3", "--P", "80", "--E", "16", "--M", "5", "--seed", "1"]
        assert main(["sweep", "10", "13", *args, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["N", "best_gamma", "visited_states"]
        assert [int(r[0]) for r in rows[1:]] == [10, 11, 12, 13]
        assert all(float(r[1]) > 0 for r in rows[1:])

    def test_invalid_range_rejected(self, tmp_path):
        assert main(["sweep", "12", "10", "--out", str(tmp_path)]) == 1
        assert main(["sweep", "2", "999", "--out", str(tmp_path)]) == 1


class TestStudyCommand:
    ARGS = ["--N", "12", "--N_G", "3", "--P", "80", "--E", "16", "--seed", "2"]

    def test_tournament_size_study(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--variable", "tournament_M",
                     "--values", "2", "5", "20", *self.ARGS, "--out", str(out)]) == 0
        for m in (2, 5, 20):
            rows = read_csv(out / f"study_tournament_M_{m}_seed2.trajectory.csv")
            assert rows[0] == ["generation", "best_gamma"]
            assert len(rows) == 1 + 4

    def test_elite_size_study_writes_three_files(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--variable", "elite_E",
                     "--values", "8", "16", "40", *self.ARGS, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("study_elite_E_*.trajectory.csv"))
        assert len(names) == 3

    def test_init_seeding_study_uses_registry_codes(self, tmp_path):
        out = tmp_path / "study"
        args = ["--N", "59", "--N_G", "2", "--P", "120", "--E", "24", "--seed", "3"]
        assert main(["study", "--variable", "init_seeding", *args,
                     "--out", str(out)]) == 0
        seeded = read_csv(
            out / "study_init_seeding_seed_with_known_codes_seed3.log.csv")
        # the seeded arm starts at least as high as the best inserted code
        assert float(seeded[1][3]) >= 45.0
        unseeded = read_csv(out / "study_init_seeding_none_seed3.log.csv")
        assert float(unseeded[1][3]) < 45.0

    def test_unknown_variable_rejected(self, tmp_path):
        assert main(["study", "--variable", "wing_area",
                     "--values", "1", "--out", str(tmp_path)]) == 1


class TestBruteforceCommand:
    def test_n2_optimum(self, tmp_path, capsys):
        assert main(["bruteforce", "2", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "optimal gamma 2.000000" in text
        meta = (tmp_path / "bruteforce_N2.result.txt").read_text()
        assert "gamma = 2" in meta

    def test_overlarge_length_rejected(self, tmp_path):
        assert main(["bruteforce", "24", "--out", str(tmp_path)]) == 1


class TestRandomsearchCommand:
    def test_best_so_far_non_decreasing(self, tmp_path):
        assert main(["randomsearch", "59", "1000", "--seed", "8",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "randomsearch_N59_seed8.log.csv")
        assert rows[0] == RUN_LOG_HEADER
        best = [float(r[3]) for r in rows[1:]]
        assert best == sorted(best)
        assert [int(r[2]) for r in rows[1:]] == [1, 10, 100, 1000]


class TestSimulateCommand:
    def test_against_published_value(self, capsys):
        assert main(["simulate", "ga", "--trials", "20000", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        est = float(next(l for l in text.splitlines()
                         if l.startswith("empirical")).split("=")[1])
        assert est == pytest.approx(50.84, rel=0.05)

    def test_matched_filter_mode(self, capsys):
        assert main(["simulate", "legendre", "--filter", "matched",
                     "--trials", "20000", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        analytic = float(next(l for l in text.splitlines()
                              if l.startswith("analytic")).split("=")[1])
        est = float(next(l for l in text.splitlines()
                         if l.startswith("empirical")).split("=")[1])
        assert est == pytest.approx(analytic, rel=0.05)

    def test_writes_result_when_out_given(self, tmp_path):
        assert main(["simulate", "+1,+1,-1,+1", "--trials", "5000",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "simulate_N4_seed3.result.txt").exists()


class TestCliPlumbing:
    def test_unknown_subcommand_is_exit_one(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_subcommand_is_exit_one(self):
        assert main([]) == 1

    def test_invalid_hyperparameter_is_exit_one(self, tmp_path):
        assert main(["search", "--N", "1", "--out", str(tmp_path)]) == 1

    def test_search_and_bruteforce_run_without_scipy(self, tmp_path):
        # A fresh interpreter, so no other test's imports count.
        script = (
            "import sys\n"
            "from phasecode.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['search', '--N', '12', '--N_G', '2', '--P', '60', '--E', '12',"
            " '--M', '3', '--seed', '1', '--out', out]) == 0\n"
            "assert main(['bruteforce', '8', '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(phasecode.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
