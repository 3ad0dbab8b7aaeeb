"""Command-line harness: artifacts, formats, determinism, exit codes."""

import csv
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from phasecode import cli
from phasecode.cli import RUN_LOG_HEADER, _build_ga_config, build_parser, derive_sweep_seed, main
from phasecode.codes import parse_code
from phasecode.baselines import known_code
from phasecode.fitness import fitness, optimal_filter
from phasecode.ga import GaConfig
from golden import child_env, log_bytes_without_elapsed, result_without_run_block
from reference import cross_correlation

SMALL = ["--N", "16", "--N_G", "6", "--P", "120", "--E", "24", "--M", "5"]


RUN_BLOCK = ["elapsed_seconds_total", "peak_rss_mb", "cpus", "created_utc", "python", "numpy"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
        recomputed = fitness(code)
        assert abs(stored - recomputed) / recomputed <= 1e-6
        assert int(meta["N"]) == 16
        assert int(meta["seed"]) == 4

    def test_result_reports_cache_hit_rate_and_peak_rss(self, tmp_path):
        main(["search", *SMALL, "--seed", "4", "--out", str(tmp_path)])
        meta = dict(line.split(" = ", 1) for line in
                    (tmp_path / "search_N16_seed4.result.txt").read_text().splitlines())
        visited, total = int(meta["visited_states"]), int(meta["total_evaluations"])
        assert total == 120 * 7 and 0 < visited < total
        assert float(meta["cache_hit_rate"]) == pytest.approx(1 - visited / total, abs=1e-6)
        # ru_maxrss is in KiB on Linux: a reading in bytes would be 1024x too large.
        assert 1.0 < float(meta["peak_rss_mb"]) < 4096.0
        # The CPUs the run may use, which is also its scoring worker count.
        cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
        assert int(meta["cpus"]) == cpus

    def test_failed_rewrite_keeps_old_artifacts(self, tmp_path, monkeypatch):
        def failing_fmt(value):
            nonlocal calls
            calls += 1
            if calls > 4:  # the third row of log.csv
                raise OSError("disk full")
            return f"{value:.17g}"

        for command in (["search", *SMALL, "--seed", "3"], ["randomsearch", "12", "2000"]):
            out = tmp_path / command[0]
            args = [*command, "--out", str(out)]
            assert main(args) == 0
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            calls = 0
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_fmt", failing_fmt)
                assert main(args) == 2
            assert calls == 5, command
            # The old files are intact and no temp file is left beside them.
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before, command

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
        assert result_without_run_block(a / f"{name}.result.txt") == \
            result_without_run_block(b / f"{name}.result.txt")
        # the plot CSV carries no timing at all: fully byte-identical
        assert (a / f"{name}.plot.csv").read_bytes() == (b / f"{name}.plot.csv").read_bytes()

    def test_removed_threads_flag_is_config_error(self, tmp_path, capsys):
        for flags in (["--threads", "2"], ["--seed-known"]):
            assert main(["search", *SMALL, "--out", str(tmp_path), *flags]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flags)}" in err
            assert "Traceback" not in err

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
        bumped = {
            f.name: f.default + 1 if type(f.default) is int else f.default / 2
            for f in fields(GaConfig)
            if type(f.default) in (int, float)
        }
        assert {"N", "N_G", "P", "E", "M", "p_muta", "p_conv", "seed"} <= set(bumped)
        # The str field; init = known needs the registry's length, N = 59.
        seeded = {"N": 59, "init": "known"}
        assert set(bumped) | set(seeded) == {f.name for f in fields(GaConfig)}
        cfg = tmp_path / "ga.conf"
        for want in (bumped, seeded):
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in want.items()))
            flags = [arg for key, value in want.items() for arg in (f"--{key}", str(value))]
            for argv in (["--config", str(cfg)], flags):
                config = _build_ga_config(build_parser().parse_args(["search", *argv]))
                for key, value in want.items():
                    got = getattr(config, key)
                    assert (got, type(got)) == (value, type(value)), (argv[0], key)

    def test_bad_config_file_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "ga.conf"
        for line in ("NO_SUCH_KEY = 5", "M = x"):
            cfg.write_text(f"{line}\n")
            assert main(["search", "--config", str(cfg), "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {cfg}:1: "), line

    def test_init_known_requires_matching_length(self, tmp_path, capsys):
        # registry codes are length 59; N=16 must be a config error
        assert main(["search", *SMALL, "--init", "known", "--out", str(tmp_path)]) == 1
        assert "N = 59" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_init_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("init = bogus\n")
        for argv, where in ((["--init", "bogus"], ""), (["--config", str(cfg)], f"{cfg}:1: ")):
            assert main(["search", *SMALL, *argv, "--out", str(tmp_path / "runs")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {where}init must be random or known, got 'bogus'"), argv
            assert "Traceback" not in err
            assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line, message", [
        ("p_muta = 1.5", "p_muta must be in [0, 1], got 1.5"),
        ("E = 500", "need 0 < E < P, got E=500, P=120"),
        ("N_G = 2.5", "N_G must be int, got '2.5'"),
    ])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys, line, message):
        # A range error, one that spans two keys and a type error all name
        # the file and the line that set the rejected value.
        cfg = tmp_path / "ga.conf"
        cfg.write_text(f"# small\nN = 16\nP = 120\nE = 24\n{line}\n")
        out = tmp_path / "runs"
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:5: {message}\n"
        assert not out.exists()

    def test_flag_over_a_bad_config_value_runs(self, tmp_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("N = 16\nN_G = 1\nP = 120\nE = 500\n")
        assert main(["search", "--config", str(cfg), "--E", "24", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_stop_gamma_is_exit_one(self, tmp_path, capsys, bad):
        assert main(["search", *SMALL, "--stop-gamma", bad, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stop_gamma must be finite")
        assert "Traceback" not in err

    def test_verbose_prints_one_line_per_log_row(self, tmp_path, capsys):
        assert main(["search", *SMALL, "--seed", "3", "--verbose", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "search_N16_seed3.log.csv")[1:]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(rows) == 7
        for line, row in zip(lines, rows):
            assert line.startswith(f"[search_N16_seed3] k={row[2]} best="), line
            assert line.endswith(f" visited={row[6]}"), line

    def test_unallocatable_population_is_exit_one(self, tmp_path, capsys):
        # numpy refuses the 52 PiB request up front, before allocating anything.
        argv = ["search", "--N", "59", "--N_G", "1", "--P", "1000000000000000",
                "--E", "1", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

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

    def test_lag_responses_match_cross_correlation(self, capsys):
        assert main(["eval", "legendre"]) == 0
        lines = [l.split() for l in capsys.readouterr().out.splitlines()
                 if l.startswith("  lag ")]
        s = known_code("legendre").code
        x = optimal_filter(s)
        assert [int(l[1].rstrip(":")) for l in lines] == [i for i in range(-58, 59) if i]
        for _, lag, value in lines:
            want = cross_correlation(x, s, int(lag.rstrip(":"))) ** 2
            assert float(value) == pytest.approx(want, rel=1e-6)

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

    def test_config_file_seed_is_the_base_seed(self, tmp_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("N_G = 2\nP = 60\nE = 12\nseed = 9\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "9", "10", "--config", str(cfg), "--out", str(out)]) == 0
        for n in (9, 10):
            assert (out / f"search_N{n}_seed{derive_sweep_seed(9, n)}.result.txt").exists()
        flag = tmp_path / "flag"
        assert main(["sweep", "9", "10", "--config", str(cfg), "--seed", "5",
                     "--out", str(flag)]) == 0
        for n in (9, 10):
            assert (flag / f"search_N{n}_seed{derive_sweep_seed(5, n)}.result.txt").exists()

    def test_summary_has_one_row_per_length(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["--N_G", "3", "--P", "80", "--E", "16", "--M", "5", "--seed", "1"]
        assert main(["sweep", "10", "13", *args, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["N", "best_gamma", "visited_states"]
        assert [int(r[0]) for r in rows[1:]] == [10, 11, 12, 13]
        assert all(float(r[1]) > 0 for r in rows[1:])

    def test_verbose_prints_each_runs_own_progress_in_order(self, tmp_path, capsys):
        args = ["--N_G", "2", "--P", "60", "--E", "12", "--seed", "1", "--verbose"]
        assert main(["sweep", "10", "11", *args, "--out", str(tmp_path)]) == 0
        want = []
        for n in (10, 11):
            run_id = f"search_N{n}_seed{derive_sweep_seed(1, n)}"
            for row in read_csv(tmp_path / f"{run_id}.log.csv")[1:]:
                k, best, visited = row[2], float(row[3]), row[6]
                want.append(f"[{run_id}] k={k} best={best:.4f} visited={visited}")
        assert capsys.readouterr().err.splitlines() == want

    def test_invalid_range_rejected(self, tmp_path):
        assert main(["sweep", "12", "10", "--out", str(tmp_path)]) == 1
        assert main(["sweep", "2", "999", "--out", str(tmp_path)]) == 1


class TestStudyCommand:
    ARGS = ["--N", "12", "--N_G", "3", "--P", "80", "--E", "16", "--seed", "2"]

    def test_tournament_size_study(self, tmp_path, capsys):
        out = tmp_path / "study"
        assert main(["study", "--variable", "tournament_M",
                     "--values", "2", "5", "20", *self.ARGS, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""  # a study prints no progress lines
        for m in (2, 5, 20):
            rows = read_csv(out / f"study_tournament_M_{m}_seed2.plot.csv")
            assert rows[0] == ["generation", "visited_states", "best_gamma"]
            assert len(rows) == 1 + 4

    def test_elite_size_study_writes_three_files(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--variable", "elite_E",
                     "--values", "8", "16", "40", *self.ARGS, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("study_elite_E_*.plot.csv"))
        assert len(names) == 3

    def test_init_study_uses_registry_codes(self, tmp_path):
        out = tmp_path / "study"
        args = ["--N", "59", "--N_G", "2", "--P", "120", "--E", "24", "--seed", "3"]
        assert main(["study", "--variable", "init", "--values", "random", "known", *args,
                     "--out", str(out)]) == 0
        seeded = read_csv(out / "study_init_known_seed3.log.csv")
        # the seeded arm starts at least as high as the best inserted code
        assert float(seeded[1][3]) >= 45.0
        unseeded = read_csv(out / "study_init_random_seed3.log.csv")
        assert float(unseeded[1][3]) < 45.0
        assert "init = known" in (out / "study_init_known_seed3.result.txt").read_text().splitlines()

    def test_any_scalar_field_study_writes_search_artifacts(self, tmp_path):
        out = tmp_path / "study"
        assert main(["study", "--variable", "p_conv",
                     "--values", "0.3", "0.7", *self.ARGS, "--out", str(out)]) == 0
        for value in ("0.3", "0.7"):
            for ext in ("log.csv", "plot.csv", "result.txt"):
                assert (out / f"study_p_conv_{value}_seed2.{ext}").exists(), (value, ext)
        result = (out / "study_p_conv_0.7_seed2.result.txt").read_text()
        assert "p_conv = 0.7" in result.splitlines()

    def test_unknown_variable_rejected(self, tmp_path, capsys):
        assert main(["study", "--variable", "wing_area",
                     "--values", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --variable: invalid choice: ")
        for name in ("wing_area", "tournament_M", "elite_E", *(f.name for f in fields(GaConfig))):
            assert name in err, name

    def test_negative_seed_rejected_before_the_first_run(self, tmp_path, capsys):
        out = tmp_path / "study"
        assert main(["study", "--variable", "seed", "--values", "1", "-1",
                     "--N", "12", "--N_G", "2", "--P", "60", "--E", "12",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("values", [["0.3", "0.30"], ["0.3", "0.7", "0.3"]])
    def test_repeated_value_rejected_before_the_first_run(self, tmp_path, capsys, values):
        out = tmp_path / "study"
        assert main(["study", "--variable", "p_conv", "--values", *values, *self.ARGS,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: study value {values[-1]!r} repeats")
        assert not out.exists()

    def test_value_of_the_wrong_type_rejected(self, tmp_path, capsys):
        assert main(["study", "--variable", "M", "--values", "2.5",
                     "--out", str(tmp_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestBruteforceCommand:
    def test_n2_optimum(self, tmp_path, capsys):
        assert main(["bruteforce", "2", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "optimal gamma 2.000000" in text
        meta = (tmp_path / "bruteforce_N2.result.txt").read_text()
        assert "gamma = 2" in meta

    def test_result_reports_peak_rss_and_versions(self, tmp_path):
        assert main(["bruteforce", "8", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bruteforce_N8.result.txt").read_text().splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert keys == ["mode", "N", "gamma", *RUN_BLOCK, "code"]
        meta = dict(line.split(" = ", 1) for line in lines)
        # ru_maxrss is in KiB on Linux: a reading in bytes would be 1024x too large.
        assert 1.0 < float(meta["peak_rss_mb"]) < 4096.0
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__

    def test_overlarge_length_rejected(self, tmp_path):
        assert main(["bruteforce", "29", "--out", str(tmp_path)]) == 1

    def test_removed_fold_reversal_flag_is_config_error(self, tmp_path, capsys):
        assert main(["bruteforce", "12", "--out", str(tmp_path), "--fold-reversal"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --fold-reversal" in err
        assert "Traceback" not in err


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
    def test_every_result_record_ends_with_the_run_block(self, tmp_path):
        ga_args = ["--N", "10", "--N_G", "1", "--P", "20", "--E", "4", "--M", "2"]
        commands = [
            ["search", *ga_args],
            ["sweep", "10", "11", *ga_args[2:]],
            ["study", "--variable", "p_conv", "--values", "0.3", "0.7", *ga_args],
            ["bruteforce", "8"],
            ["randomsearch", "8", "50"],
            ["simulate", "+1,+1,-1,+1", "--trials", "100"],
        ]
        for argv in commands:
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out)]) == 0, argv
            records = sorted(out.glob("*.result.txt"))
            assert records, argv
            for path in records:
                keys = [line.split(" = ", 1)[0] for line in path.read_text().splitlines()]
                assert keys[-7:] == [*RUN_BLOCK, "code"], path.name

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "10", "11", "--seed", "-1", "--N_G", "2", "--P", "60", "--E", "12"],
            # N=59 is a valid length for the published codes; N=60 is not.
            ["sweep", "59", "60", "--init", "known", "--N_G", "1", "--P", "60", "--E", "12"],
            ["bruteforce", "30"],
            ["randomsearch", "12", "0"],
            ["randomsearch", "1", "10"],
            ["search", "--N", "12", "--N_G", "2", "--P", "60", "--E", "12", "--stop-gamma", "nan"],
            ["sweep", "10", "11", "--N_G", "2", "--P", "60", "--E", "12", "--stop-gamma", "inf"],
            ["study", "--variable", "M", "--values", "3", "5", "--N", "12", "--N_G", "2",
             "--P", "60", "--E", "12", "--stop-gamma", "nan"],
            # Every defined gamma is > 0, so a target <= 0 is rejected; argparse
            # reads a bare -1e3 as an option, so that form fails one step earlier.
            ["search", "--N", "12", "--N_G", "2", "--P", "60", "--E", "12", "--stop-gamma=-1e3"],
            ["search", "--N", "12", "--N_G", "2", "--P", "60", "--E", "12",
             "--stop-gamma", "-1e3"],
            ["sweep", "10", "11", "--N_G", "2", "--P", "60", "--E", "12", "--stop-gamma", "0"],
            ["study", "--variable", "M", "--values", "3", "5", "--N", "12", "--N_G", "2",
             "--P", "60", "--E", "12", "--stop-gamma", "0"],
            ["study", "--variable", "wing_area", "--values", "1"],
            ["study", "--variable", "M", "--values"],
            ["study", "--variable", "M"],
        ],
    )
    def test_rejected_command_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["search", "sweep", "study"])
    def test_help_lists_the_shared_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        shared = {"--config", "--out", "--stop-gamma", *(f"--{f.name}" for f in fields(GaConfig))}
        assert shared <= listed, shared - listed

    def test_unknown_subcommand_is_exit_one(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_subcommand_is_exit_one(self):
        assert main([]) == 1

    def test_invalid_hyperparameter_is_exit_one(self, tmp_path):
        assert main(["search", "--N", "1", "--out", str(tmp_path)]) == 1

    def test_search_and_bruteforce_run_without_scipy(self, tmp_path):
        # A fresh interpreter, so no other test's imports count. Runs this
        # small score in-process, so the scoring pool's modules stay unloaded
        # too: only the first large batch imports them.
        script = (
            "import sys\n"
            "from phasecode.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['search', '--N', '12', '--N_G', '2', '--P', '60', '--E', '12',"
            " '--M', '3', '--seed', '1', '--out', out]) == 0\n"
            "assert main(['bruteforce', '8', '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
