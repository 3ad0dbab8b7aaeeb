"""Acceptance gate: the eight exit criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criteria 4 and 8 run full-scale searches and
dominate the wall time (minutes); everything else finishes in seconds.
"""

import csv
import math

import numpy as np
import pytest

from phasecode.baselines import brute_force_best, known_code
from phasecode.cli import main
from phasecode.codes import as_code, pack_codes, unpack_codes
from phasecode.echo import empirical_sir
from phasecode.fitness import (
    build_clutter_matrix,
    fitness,
    matched_filter_scr,
    optimal_filter,
    scr,
)
from phasecode.ga import (
    GaConfig,
    Population,
    mutate,
    prevent_early_convergence,
    run,
    tournament_select,
)
from golden import log_bytes_without_elapsed
from reference import N12_OPTIMAL_GAMMA, random_code, tournament_win_probability

# Published reproduction targets (two-decimal reporting -> 0.01 absolute).
PUBLISHED = {"legendre": 2.69, "alphaseq": 33.45, "hpgan": 45.16, "ga": 50.84}
HPGAN_BAR = 45.16
STRETCH_GAMMA = 50.84
VISITED_REFERENCE_N59 = 2.4e5
N100_GAMMA_REFERENCE = 63.23
N100_VISITED_REFERENCE = 7.5e5


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def table1_config(seed: int) -> GaConfig:
    # Published values, with the thinning strength translated from its
    # published drop-rate form (0.7) to this library's keep-rate form (0.3).
    return GaConfig(
        N=59, N_G=200, P=10_000, E=2_000, M=5, p_muta=0.3, p_conv=0.3, seed=seed
    )


class TestCriterion1PublishedScr:
    @pytest.mark.parametrize("name", ["legendre", "alphaseq", "hpgan", "ga"])
    def test_published_scr_reproduction(self, name):
        score = fitness(known_code(name).code)
        ok = abs(score - PUBLISHED[name]) <= 0.01
        report(
            f"1 published-scr[{name}]",
            ok,
            f"recomputed {score:.4f} vs published {PUBLISHED[name]:.2f} +-0.01",
        )
        assert ok


class TestCriterion2OptimalityChain:
    def test_optimality_chain_on_random_codes(self):
        rng = np.random.default_rng(2024)
        worst_rel = 0.0
        for _ in range(1000):
            s = random_code(59, rng)
            f = fitness(s)
            mf = matched_filter_scr(s)
            assert f >= mf - 1e-9
            rel = abs(f - scr(s, optimal_filter(s))) / f
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-6
        report(
            "2 optimality-chain",
            True,
            f"1000 codes, fitness >= matched-filter SCR, "
            f"worst solver/definition gap {worst_rel:.2e} <= 1e-6",
        )


class TestCriterion3SmallNOracle:
    def test_ga_finds_exhaustive_optimum(self):
        code, gamma = brute_force_best(12)
        assert gamma == pytest.approx(N12_OPTIMAL_GAMMA, abs=1e-12)
        hits = 0
        for seed in range(1, 11):
            cfg = GaConfig(
                N=12, N_G=50, P=200, E=40, M=5, p_muta=0.3, p_conv=0.7, seed=seed
            )
            res = run(cfg)
            hits += abs(res.best_gamma - gamma) <= 1e-9 * gamma
        ok = hits >= 9
        report("3 small-N-oracle", ok, f"exact optimum found in {hits}/10 seeds")
        assert ok


class TestCriterion4FullScaleReproduction:
    @pytest.mark.slow
    def test_full_scale_reaches_published_bar(self):
        outcomes = []
        for seed in (1, 2, 3):
            res = run(table1_config(seed), stop_gamma=HPGAN_BAR)
            first = next(
                (st for st in res.history if st.best_gamma >= HPGAN_BAR), None
            )
            outcomes.append((seed, res.best_gamma, first))
        hits = [(s, g, f) for s, g, f in outcomes if f is not None]
        ok = len(hits) >= 2
        best_overall = max(g for _, g, _ in outcomes)
        detail = "; ".join(
            f"seed {s}: gamma {g:.4f}"
            + (f", bar crossed at k={f.k} after {f.visited_states} states" if f else ", no hit")
            for s, g, f in outcomes
        )
        report(
            "4 full-scale-reproduction",
            ok,
            f"{len(hits)}/3 runs reached {HPGAN_BAR}; {detail}; "
            f"published reference {VISITED_REFERENCE_N59:.1e} states; "
            f"stretch {STRETCH_GAMMA}: best observed {best_overall:.4f}",
        )
        assert ok
        for _, _, first in hits:
            assert first.visited_states <= 1_000_000


class TestCriterion5MonteCarloValidation:
    def test_optimal_filter_estimate_for_ga_code(self):
        s = known_code("ga").code
        x = optimal_filter(s)
        est = empirical_sir(s, x, 100_000, np.random.default_rng(7))
        rel = abs(est - 50.84) / 50.84
        ok = rel <= 0.03
        report(
            "5 monte-carlo[ga-optimal]",
            ok,
            f"empirical {est:.3f} vs analytic 50.84, rel err {rel:.3%} <= 3%",
        )
        assert ok

    def test_matched_filter_estimate_for_legendre(self):
        s = known_code("legendre").code
        analytic = matched_filter_scr(s)
        est = empirical_sir(s, np.asarray(s, float), 100_000, np.random.default_rng(8))
        rel = abs(est - analytic) / analytic
        ok = rel <= 0.03
        report(
            "5 monte-carlo[legendre-matched]",
            ok,
            f"empirical {est:.4f} vs analytic {analytic:.4f}, rel err {rel:.3%} <= 3%",
        )
        assert ok


class TestCriterion6OperatorStatistics:
    def test_tournament_rank_frequencies(self):
        P, M, draws = 100, 5, 1_000_000
        rng = np.random.default_rng(60)
        codes = np.stack([random_code(12, rng) for _ in range(P)])
        gammas = np.arange(P, 0, -1).astype(float)  # index i = rank i+1
        pop = Population(pack_codes(codes), gammas, len(np.unique(codes, axis=0)))
        # Count winners by population index: this fixture holds four pairs of
        # identical codes, so a code cannot name its member.
        indices = tournament_select(pop, M, draws, np.random.default_rng(61))
        counts = np.bincount(indices, minlength=P)
        worst_z = 0.0
        for rank in range(1, P + 1):
            p = tournament_win_probability(P, M, rank)
            observed = counts[rank - 1] / draws
            if p == 0.0:
                assert counts[rank - 1] == 0
                continue
            sigma = math.sqrt(p * (1 - p) / draws)
            worst_z = max(worst_z, abs(observed - p) / sigma)
            assert abs(observed - p) <= 3 * sigma
        report(
            "6 operator-stats[tournament]",
            True,
            f"{draws} tournaments at (P=100, M=5), worst rank deviation "
            f"{worst_z:.2f} sigma <= 3",
        )

    def test_mutation_flip_rate(self):
        rng = np.random.default_rng(62)
        s = random_code(59, rng)
        flips = 0
        rows, block = 1_000_000, 100_000
        for _ in range(rows // block):
            out = unpack_codes(mutate(pack_codes(np.tile(s, (block, 1))), 0.3, 59, rng), 59)
            flips += int(np.count_nonzero(out != s))
        rate = flips / rows
        ok = abs(rate - 0.3) <= 0.002
        report(
            "6 operator-stats[mutation]",
            ok,
            f"flipped symbols per row {rate:.5f} vs 0.3 +-0.002 over {rows} rows",
        )
        assert ok

    def test_duplicate_thinning_retention(self):
        rng = np.random.default_rng(63)
        block = pack_codes(np.tile(random_code(12, rng), (11, 1)))
        reps = 100_000
        total = 0
        for _ in range(reps):
            total += prevent_early_convergence(block, 0.7, rng).shape[0]
        mean = total / reps
        ok = abs(mean - 8.0) <= 0.1
        report(
            "6 operator-stats[thinning]",
            ok,
            f"mean retention {mean:.4f} vs 1 + 10*0.7 = 8 +-0.1 over {reps} runs",
        )
        assert ok


class TestCriterion7DeterminismAndInvariants:
    def test_byte_identical_logs_across_runs(self, tmp_path):
        args = ["--N", "31", "--N_G", "3", "--P", "2600", "--E", "500", "--M", "5",
                "--seed", "70"]
        outs = []
        for tag in "abc":
            out = tmp_path / tag
            assert main(["search", *args, "--out", str(out)]) == 0
            outs.append(out)

        name = "search_N31_seed70"
        bodies = [log_bytes_without_elapsed(o / f"{name}.log.csv") for o in outs]
        plots = [(o / f"{name}.plot.csv").read_bytes() for o in outs]
        ok = bodies[0] == bodies[1] == bodies[2] and plots[0] == plots[1] == plots[2]
        report(
            "7 determinism[logs]",
            ok,
            "3 invocations: run-log bodies identical outside the "
            "wall-clock column, plot data byte-identical",
        )
        assert ok
        for o in outs:
            with open(o / f"{name}.log.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            best = [float(r[3]) for r in rows]
            assert best == sorted(best)

    def test_trace_and_symmetry_invariants(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(2, 101))
            s = random_code(n, rng)
            assert build_clutter_matrix(s).trace() == float(n * n - n)
        worst_rev = 0.0
        for _ in range(100):
            s = random_code(59, rng)
            assert fitness(s) == fitness(as_code(-s))  # exact
            a, b = fitness(s), fitness(as_code(s[::-1]))
            worst_rev = max(worst_rev, abs(a - b) / a)
            assert abs(a - b) / a <= 1e-9
        report(
            "7 determinism[invariants]",
            True,
            f"trace(R) = N^2-N exact on 100 codes; negation exact; "
            f"worst reversal gap {worst_rev:.2e} <= 1e-9",
        )


class TestCriterion8LongCodeCapability:
    @pytest.mark.slow
    def test_n100_sweep_entry_completes_and_records(self, tmp_path):
        out = tmp_path / "sweep100"
        assert main(["sweep", "100", "100", "--seed", "80", "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "best_gamma", "visited_states"]
        assert len(rows) == 2
        n, gamma, visited = int(rows[1][0]), float(rows[1][1]), int(rows[1][2])
        assert n == 100
        assert gamma > 0
        # report-only: no threshold against the published single run
        report(
            "8 long-code-capability",
            True,
            f"N=100 sweep entry: gamma {gamma:.4f} after {visited} states "
            f"(published single-run reference: {N100_GAMMA_REFERENCE} after "
            f"{N100_VISITED_REFERENCE:.1e} states)",
        )
