"""Genetic-engine operators, selection probabilities, and pipeline properties."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasecode import ga
from phasecode.codes import as_code, pack_codes, random_codes, unique_rows, unpack_codes
from phasecode.fitness import fitness, fitness_batch
from phasecode.ga import (
    GaConfig,
    Population,
    ScoreCache,
    crossover,
    elite_select,
    evaluate,
    init_population,
    mutate,
    pad_population,
    prevent_early_convergence,
    run,
    score_codes,
    step_generation,
    tournament_select,
)
from reference import (
    crossover_formula,
    draw_tournament_indices_formula,
    elite_select_formula,
    mutate_formula,
    packed_key,
    prevent_early_convergence_formula,
    random_code,
    score_codes_formula,
    step_generation_formula,
    survival_probability,
    tournament_win_probability,
)


def small_config(**overrides):
    base = dict(N=12, N_G=5, P=60, E=12, M=5, p_muta=0.3, p_conv=0.3, seed=7)
    base.update(overrides)
    return GaConfig(**base)


def evaluated_population(codes):
    codes = np.asarray(codes, dtype=np.int8)
    return evaluate(pack_codes(codes), ScoreCache(codes.shape[1]))


def ranked_population(codes, gammas):
    """A population of ``codes`` with the given gammas, as if scored."""
    words = pack_codes(codes)
    return Population(words, np.asarray(gammas, dtype=float), len(unique_rows(words)[0]))


class TestGaConfig:
    def test_table_defaults(self):
        cfg = GaConfig()
        assert (cfg.N, cfg.N_G, cfg.P, cfg.E, cfg.M) == (59, 200, 10_000, 2_000, 5)
        assert cfg.p_muta == 0.3
        # keep rate 0.3 == published drop rate 0.7
        assert cfg.p_conv == 0.3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(N=1),
            dict(N_G=0),
            dict(E=0),
            dict(E=60),
            dict(M=1),
            dict(M=61),
            dict(p_muta=1.5),
            dict(p_conv=-0.1),
            dict(seed=-1),
            dict(init="chirp"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_seed_code_length_checked(self):
        # The registry codes are length 59; N=12 cannot hold them.
        with pytest.raises(ValueError, match="N = 59"):
            small_config(init="known")

    def test_more_known_codes_than_slots_rejected(self):
        with pytest.raises(ValueError, match="more seed codes than population slots"):
            small_config(N=59, P=2, E=1, M=2, init="known")


class TestInitPopulation:
    def test_known_codes_lead_the_population(self):
        from phasecode.baselines import known_code

        cfg = small_config(N=59, init="known")
        codes = unpack_codes(init_population(cfg, np.random.default_rng(cfg.seed)), 59)
        assert codes.shape == (60, 59)
        # The registry minus the GA's own code, in registry order.
        want = [known_code(name).code.tolist() for name in ("legendre", "alphaseq", "hpgan")]
        assert codes[:3].tolist() == want

    def test_reproducible_random_init(self):
        cfg = small_config()
        a = init_population(cfg, np.random.default_rng(5))
        b = init_population(cfg, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_symbol_mean_near_zero_at_scale(self):
        cfg = GaConfig(N=59, P=10_000, E=2_000)
        codes = unpack_codes(init_population(cfg, np.random.default_rng(3)), 59)
        assert abs(float(codes.mean())) <= 0.01


class TestEvaluate:
    def test_identical_members_cost_one_miss(self):
        rng = np.random.default_rng(1)
        code = random_code(12, rng)
        cache = ScoreCache(12)
        pop = evaluate(pack_codes(np.tile(code, (30, 1))), cache)
        assert len(cache) == 1 and pop.distinct_members == 1
        assert np.allclose(pop.gammas, pop.gammas[0])

    def test_published_code_scores_correctly(self):
        from phasecode.baselines import known_code

        s_ga = known_code("ga").code
        rng = np.random.default_rng(2)
        codes = np.vstack([s_ga, *(random_code(59, rng) for _ in range(9))])
        pop = evaluate(pack_codes(codes), ScoreCache(59))
        assert pop.gammas[0] == pytest.approx(50.84, abs=0.01)

    def test_reevaluation_adds_no_misses(self):
        cfg = small_config()
        cache = ScoreCache(cfg.N)
        pop = evaluate(init_population(cfg, np.random.default_rng(0)), cache)
        keys, gammas = cache.keys.tolist(), cache.gammas.copy()
        evaluate(pop.words, cache)
        assert cache.keys.tolist() == keys
        assert np.array_equal(cache.gammas, gammas, equal_nan=True)


class TestEliteSelect:
    def test_picks_highest_scores(self):
        rng = np.random.default_rng(3)
        codes = np.stack([random_code(12, rng) for _ in range(3)])
        pop = ranked_population(codes, [3.0, 1.0, 2.0])
        elites = unpack_codes(pop.words[elite_select(pop, 2)], 12)
        assert np.array_equal(elites[0], codes[0])
        assert np.array_equal(elites[1], codes[2])

    def test_boundary_e_is_p_minus_one(self):
        rng = np.random.default_rng(4)
        codes = np.stack([random_code(12, rng) for _ in range(6)])
        pop = evaluated_population(codes)
        elites = unpack_codes(pop.words[elite_select(pop, 5)], 12)
        order = np.argsort(-pop.gammas, kind="stable")
        assert np.array_equal(elites, codes[order[:5]])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(5)
        codes = np.stack([random_code(12, rng) for _ in range(1000)])
        pop = evaluated_population(codes)
        elites = unpack_codes(pop.words[elite_select(pop, 10)], 12)
        oracle = sorted(range(1000), key=lambda i: (-pop.gammas[i], i))[:10]
        assert np.array_equal(elites, codes[oracle])

    def test_undefined_scores_rank_last(self):
        rng = np.random.default_rng(6)
        codes = np.stack([random_code(12, rng) for _ in range(4)])
        pop = ranked_population(codes, [1.0, float("-inf"), 2.0, float("-inf")])
        elites = unpack_codes(pop.words[elite_select(pop, 2)], 12)
        assert np.array_equal(elites[0], codes[2])
        assert np.array_equal(elites[1], codes[0])

    @pytest.mark.parametrize("E", [1, 100, 250, 251, 500, 750, 751, 999])
    def test_matches_full_stable_sort_on_heavy_ties(self, E):
        # Four values, 250 members each: E falls inside a block of ties or on
        # its edge, and from E = 751 the E-th highest gamma is -inf.
        rng = np.random.default_rng(15)
        values = np.array([3.0, 2.0, 1.0, float("-inf")])
        gammas = values[rng.permutation(np.repeat(np.arange(4), 250))]
        codes = np.stack([random_code(12, rng) for _ in range(1000)])
        pop = ranked_population(codes, gammas)
        elites = unpack_codes(pop.words[elite_select(pop, E)], 12)
        assert elites.dtype == np.int8
        assert np.array_equal(elites, elite_select_formula(codes, gammas, E))


class TestTournamentSelect:
    def test_full_tournament_returns_global_best(self):
        rng = np.random.default_rng(7)
        codes = np.stack([random_code(12, rng) for _ in range(8)])
        pop = evaluated_population(codes)
        best = codes[int(np.argmax(pop.gammas))]
        winners = tournament_select(pop, 8, 20, np.random.default_rng(0))
        assert all(np.array_equal(w, best) for w in unpack_codes(pop.words[winners], 12))

    def test_single_draw_tournament_is_uniform(self):
        rng = np.random.default_rng(8)
        codes = np.stack([random_code(12, rng) for _ in range(4)])
        pop = evaluated_population(codes)
        winners = tournament_select(pop, 1, 40_000, np.random.default_rng(1))
        for c in np.bincount(winners, minlength=4):
            assert c == pytest.approx(10_000, abs=400)  # ~4.6 sigma

    @staticmethod
    def assert_rank_frequencies(P, M, code_seed, draw_seed, draws=200_000):
        """Win frequency of each rank within 4 sigma of the formula."""
        rng = np.random.default_rng(code_seed)
        codes = np.stack([random_code(12, rng) for _ in range(P)])
        pop = ranked_population(codes, np.arange(P, 0, -1))  # rank i has index i-1
        winners = tournament_select(pop, M, draws, np.random.default_rng(draw_seed))
        counts = np.bincount(winners, minlength=P)
        for i in range(1, P + 1):
            p = tournament_win_probability(P, M, i)
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[i - 1] / draws - p) <= 4 * sigma + 1e-12

    def test_rank_frequencies_match_formula_small_case(self):
        # P=20, M=3, 2e5 tournaments, 4-sigma bands per rank
        self.assert_rank_frequencies(20, 3, code_seed=9, draw_seed=2)

    def test_rank_frequencies_match_formula_past_sqrt_p(self):
        # P=100, M=15: P < M^2 <= 4 P, where rejection resampling now runs
        # (about 66% of rows collide on their first draw). 2e5 tournaments,
        # 4-sigma bands per rank, seeds fixed before the first run.
        self.assert_rank_frequencies(100, 15, code_seed=10, draw_seed=3)

    def test_rank_frequencies_match_formula_past_two_sqrt_p(self):
        # P=100, M=25: M^2 > 4 P, where each row is one ``rng.choice`` ordered
        # sample. 2e5 tournaments, 4-sigma bands per rank, seeds fixed before
        # the first run.
        self.assert_rank_frequencies(100, 25, code_seed=18, draw_seed=4)

    def test_draws_match_full_recheck_formula(self):
        # M^2 <= P with P=30, M=5: about 30% of rows collide, so several
        # re-draw passes run. The indices and the generator state afterwards
        # must both match the formula that re-checks every row on each pass.
        rng, ref = np.random.default_rng(16), np.random.default_rng(16)
        idx = ga._draw_tournament_indices(rng, 30, 5, 2000)
        assert np.array_equal(idx, draw_tournament_indices_formula(ref, 30, 5, 2000))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert all(len(set(row)) == 5 for row in idx.tolist())

    @pytest.mark.parametrize("P, M", [(300, 40), (50, 50), (10_000, 201)])
    def test_sampled_rows_hold_distinct_indices(self, P, M):
        # M^2 > 4 P: every row holds M distinct indices in [0, P), even when
        # the tournament takes the whole population (M = P).
        idx = ga._draw_tournament_indices(np.random.default_rng(17), P, M, 500)
        assert idx.shape == (500, M) and idx.dtype == np.int64
        assert idx.min() >= 0 and idx.max() < P
        assert (np.diff(np.sort(idx, axis=1), axis=1) > 0).all()

    @pytest.mark.parametrize("P, M", [(30, 5), (300, 40)])
    def test_no_tournaments_give_an_empty_matrix(self, P, M):
        # Rejection (M^2 <= 4 P) and per-row sampling (M^2 > 4 P) alike.
        idx = ga._draw_tournament_indices(np.random.default_rng(19), P, M, 0)
        assert idx.shape == (0, M)


class TestWinProbability:
    def test_best_rank_inclusion_probability(self):
        assert tournament_win_probability(10_000, 5, 1) == pytest.approx(5 / 10_000)

    def test_zero_when_not_enough_worse_members(self):
        assert tournament_win_probability(50, 5, 47) == 0.0
        assert tournament_win_probability(50, 5, 50) == 0.0

    def test_ranks_sum_to_one(self):
        total = sum(tournament_win_probability(50, 5, i) for i in range(1, 51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_subset_enumeration(self):
        # independent oracle: enumerate all M-subsets of {1..P}, best rank wins
        from itertools import combinations

        P, M = 7, 3
        wins = {i: 0 for i in range(1, P + 1)}
        subsets = list(combinations(range(1, P + 1), M))
        for sub in subsets:
            wins[min(sub)] += 1
        for i in range(1, P + 1):
            assert tournament_win_probability(P, M, i) == pytest.approx(
                wins[i] / len(subsets), abs=1e-15
            )

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            tournament_win_probability(10, 3, 0)
        with pytest.raises(ValueError):
            tournament_win_probability(10, 3, 11)


class TestSurvivalProbability:
    def test_zero_win_probability_gives_zero(self):
        assert survival_probability(50, 5, 50, 10) == 0.0

    def test_single_tournament_reduces_to_win_probability(self):
        p = tournament_win_probability(50, 5, 3)
        assert survival_probability(50, 5, 3, 49) == pytest.approx(p)

    def test_matches_monte_carlo_for_best_rank(self):
        # P=100, M=5, E=20: rank 1 appears among 80 winners w.p. 1-(1-0.05)^80
        P, M, E, reps = 100, 5, 20, 100_000
        rng = np.random.default_rng(10)
        codes = np.stack([random_code(12, rng) for _ in range(P)])
        pop = ranked_population(codes, np.arange(P, 0, -1))
        draw_rng = np.random.default_rng(11)
        hits = 0
        for _ in range(reps):
            winners = tournament_select(pop, M, P - E, draw_rng)
            hits += bool((winners == 0).any())
        expected = survival_probability(P, M, 1, E)
        sigma = math.sqrt(expected * (1 - expected) / reps)
        assert abs(hits / reps - expected) <= 3 * sigma


def replay_crossover(pool, count, seed):
    """The parent indices and split points ``crossover`` draws from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    size, n = pool.shape
    ia = rng.integers(0, size, size=count)
    ib = rng.integers(0, size, size=count)
    return ia, ib, rng.integers(1, n, size=count)


class TestCrossover:
    def test_reference_example(self):
        a = as_code([1, -1, 1, -1, 1, -1, 1])
        b = as_code([-1, -1, -1, 1, 1, 1, 1])
        pool = np.stack([a, b])
        children = unpack_codes(crossover(pack_codes(pool), 2000, 7, np.random.default_rng(10)), 7)
        ia, ib, splits = replay_crossover(pool, 2000, 10)
        for child, i, j, split in zip(children, ia, ib, splits):
            assert child.tolist() == pool[i, :split].tolist() + pool[j, split:].tolist()
        example = (ia == 0) & (ib == 1) & (splits == 3)
        assert example.any()
        for child in children[example]:
            assert child.tolist() == [1, -1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("n", [2, 16, 59, 100])
    def test_matches_where_formula(self, n):
        rng = np.random.default_rng(17)
        pool = np.stack([random_code(n, rng) for _ in range(300)])
        children = unpack_codes(crossover(pack_codes(pool), 1000, n, np.random.default_rng(18)), n)
        expected = crossover_formula(pool, 1000, np.random.default_rng(18))
        assert children.dtype == expected.dtype == np.int8
        assert np.array_equal(children, expected)

    def test_self_crossover_identity(self):
        rng = np.random.default_rng(12)
        s = random_code(20, rng)
        children = unpack_codes(crossover(pack_codes(s[None, :]), 500, 20, rng), 20)
        assert children.dtype == np.int8
        assert all(np.array_equal(child, s) for child in children)

    def test_split_one_keeps_only_first_symbol_of_a(self):
        pool = np.stack([as_code([1] * 6), as_code([-1] * 6)])
        children = unpack_codes(crossover(pack_codes(pool), 2000, 6, np.random.default_rng(11)), 6)
        ia, ib, splits = replay_crossover(pool, 2000, 11)
        boundary = (ia == 0) & (ib == 1) & (splits == 1)
        assert boundary.any()
        for child in children[boundary]:
            assert child.tolist() == [1, -1, -1, -1, -1, -1]

    def test_split_points_uniform(self):
        # Parents drawn as (+1s, -1s) or (-1s, +1s) reveal the split point in
        # the child: it is the length of the leading run.
        n, draws = 8, 70_000
        pool = np.stack([as_code([1] * n), as_code([-1] * n)])
        children = unpack_codes(
            crossover(pack_codes(pool), 150_000, n, np.random.default_rng(13)), n
        )
        mixed = children[children[:, 0] != children[:, -1]]
        assert mixed.shape[0] >= draws
        splits = np.sum(mixed[:draws] == mixed[:draws, :1], axis=1)
        assert splits.min() >= 1 and splits.max() <= n - 1
        counts = np.bincount(splits, minlength=n)[1:]
        expected = draws / (n - 1)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 6 dof: 22.46 is the 0.1% critical value
        assert chi2 < 22.46


WORD_BOUNDARY_LENGTHS = [2, 16, 63, 64, 65, 100, 128, 256]


class TestWordOperators:
    """The packed crossover and mutation against the int8 formulas, on the same draws."""

    @pytest.mark.parametrize("n", WORD_BOUNDARY_LENGTHS)
    def test_crossover_matches_formula(self, n):
        pool = random_codes(300, n, np.random.default_rng(40))
        rng, ref = np.random.default_rng(41), np.random.default_rng(41)
        children = unpack_codes(crossover(pack_codes(pool), 1000, n, rng), n)
        assert np.array_equal(children, crossover_formula(pool, 1000, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", WORD_BOUNDARY_LENGTHS)
    def test_mutate_matches_formula(self, n):
        children = random_codes(1000, n, np.random.default_rng(42))
        rng, ref = np.random.default_rng(43), np.random.default_rng(43)
        out = unpack_codes(mutate(pack_codes(children), 0.5, n, rng), n)
        assert np.array_equal(out, mutate_formula(children.copy(), 0.5, ref))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestMutate:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(14)
        s = random_code(30, rng)
        out = unpack_codes(mutate(pack_codes(np.tile(s, (100, 1))), 0.0, 30, rng), 30)
        assert np.array_equal(out, np.tile(s, (100, 1)))

    def test_unit_probability_flips_exactly_one(self):
        rng = np.random.default_rng(15)
        s = random_code(30, rng)
        out = unpack_codes(mutate(pack_codes(np.tile(s, (200, 1))), 1.0, 30, rng), 30)
        assert np.all(np.sum(out != s, axis=1) == 1)

    def test_flip_position_uniform(self):
        n, draws = 13, 100_000
        rng = np.random.default_rng(16)
        s = random_code(n, rng)
        flipped = unpack_codes(mutate(pack_codes(np.tile(s, (draws, 1))), 1.0, n, rng), n) != s
        assert np.all(flipped.sum(axis=1) == 1)
        counts = np.bincount(np.argmax(flipped, axis=1), minlength=n)
        expected = draws / n
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 12 dof: 32.9 is the 0.1% critical value
        assert chi2 < 32.9


class TestPreventEarlyConvergence:
    def test_keep_probability_one_changes_nothing(self):
        rng = np.random.default_rng(18)
        codes = np.stack([random_code(8, rng) for _ in range(5)] * 4)
        out = prevent_early_convergence(pack_codes(codes), 1.0, np.random.default_rng(0))
        out = unpack_codes(out, 8)
        assert np.array_equal(out, codes)

    def test_keep_probability_zero_deduplicates(self):
        rng = np.random.default_rng(19)
        distinct = [random_code(8, rng) for _ in range(5)]
        codes = np.stack(distinct * 3)
        out = prevent_early_convergence(pack_codes(codes), 0.0, np.random.default_rng(0))
        out = unpack_codes(out, 8)
        assert out.shape[0] == 5
        for kept, original in zip(out, distinct):
            assert np.array_equal(kept, original)

    def test_first_occurrence_always_survives(self):
        rng = np.random.default_rng(20)
        code = random_code(8, rng)
        block = pack_codes(np.tile(code, (11, 1)))
        for trial in range(50):
            out = prevent_early_convergence(block, 0.0, np.random.default_rng(trial))
            assert out.shape[0] == 1

    def test_order_preserved(self):
        rng = np.random.default_rng(21)
        a, b = random_code(8, rng), random_code(8, rng)
        codes = np.stack([a, b, a, b, a])
        out = prevent_early_convergence(pack_codes(codes), 1.0, np.random.default_rng(0))
        out = unpack_codes(out, 8)
        assert np.array_equal(out, codes)

    def test_expected_retention(self):
        # G=11 copies at keep rate 0.7: expected kept 1 + 10*0.7 = 8 (quick check;
        # the tighter +-0.1 bound over 1e5 replications runs in the acceptance suite)
        rng = np.random.default_rng(22)
        block = pack_codes(np.tile(random_code(8, rng), (11, 1)))
        draw = np.random.default_rng(23)
        kept = [prevent_early_convergence(block, 0.7, draw).shape[0] for _ in range(20_000)]
        assert float(np.mean(kept)) == pytest.approx(8.0, abs=0.05)

    @pytest.mark.parametrize("p_conv", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("rows,pool", [(0, 1), (1, 1), (200, 3), (500, 40), (64, 64)])
    def test_matches_per_row_loop(self, p_conv, rows, pool):
        rng = np.random.default_rng(24 + rows)
        distinct = np.stack([random_code(10, rng) for _ in range(pool)])
        block = distinct[rng.integers(0, pool, size=rows)]
        ref_rng, rng = np.random.default_rng(25), np.random.default_rng(25)
        expected = prevent_early_convergence_formula(block, p_conv, ref_rng)
        out = prevent_early_convergence(pack_codes(block), p_conv, rng)
        assert np.array_equal(out, pack_codes(expected))
        assert rng.random() == ref_rng.random()


@st.composite
def _block_sequences(draw):
    """One to four (B, N) code blocks, B up to 30, drawn from a pool of at most 8 rows.

    The pool's rows are one base code with up to three symbols flipped, so
    they share long prefixes. N runs to 200 and includes 63, 64, 127 and
    128, where keys grow from one 64-bit word to two and from two to three.
    """
    n = draw(st.one_of(st.sampled_from([63, 64, 127, 128]), st.integers(2, 200)))
    base = draw(arrays(np.int8, n, elements=st.sampled_from([-1, 1])))
    pool = []
    for flips in draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3),
                               min_size=1, max_size=8)):
        row = base.copy()
        row[flips] *= -1
        pool.append(row)
    pool = np.stack(pool)
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=30)
    return [pool[draw(picks)].reshape(-1, n) for _ in range(draw(st.integers(1, 4)))]


class TestScoreCodes:
    @settings(max_examples=200, deadline=None)
    @given(_block_sequences())
    def test_matches_dict_of_bytes_reference(self, blocks):
        # Each scored code gets the next number as its gamma, and every third
        # one (the first included) is undefined, so cached NaN codes recur.
        scored: dict[bytes, float] = {}
        batches: list[list[bytes]] = []

        def numbering_batch(codes):
            batches.append([packed_key(row) for row in codes])
            out = np.arange(len(scored), len(scored) + len(codes), dtype=float)
            out[out % 3 == 0] = np.nan
            for row, g in zip(codes, out.tolist()):
                assert row.tobytes() not in scored, "a cached code was scored again"
                scored[row.tobytes()] = g
            return out

        cache = ScoreCache(blocks[0].shape[1])
        with mock.patch.object(ga, "fitness_batch", numbering_batch):
            for block in blocks:
                rows = {row.tobytes() for row in block}
                new = rows - scored.keys()
                calls = len(batches)
                gammas, count = score_codes(pack_codes(block), cache)
                want = [scored[row.tobytes()] for row in block]
                assert gammas.tolist() == [-math.inf if math.isnan(g) else g for g in want]
                assert count == len(rows)
                # The misses go in one batch, in ascending key order.
                assert len(batches) - calls == (1 if new else 0)
                if new:
                    assert len(batches[-1]) == len(new)
                    assert batches[-1] == sorted(batches[-1])
                assert len(cache) == len(scored)
                keys = cache.keys.tolist()
                assert keys == sorted(set(keys))
                assert len(cache.gammas) == len(keys)

    def test_matches_per_row_cached_fitness(self):
        rng = np.random.default_rng(26)
        distinct = np.stack([random_code(12, rng) for _ in range(30)])
        cache = ScoreCache(12)
        seen = set()
        for _ in range(3):
            block = distinct[rng.integers(0, 30, size=50)]
            before = len(cache)
            gammas, count = score_codes(pack_codes(block), cache)
            for row, g in zip(block, gammas):
                assert g == pytest.approx(fitness(row), rel=1e-12)
            rows = {r.tobytes() for r in block}
            assert count == len(rows)
            new = rows - seen
            seen |= new
            assert len(cache) - before == len(new)
        assert len(cache) == len(seen)

    def test_cache_rejects_codes_of_another_length_in_the_same_words(self):
        # N = 30 codes pack into one word, as N = 20 codes do: their last ten
        # symbols set pad bits of a length-20 code, so the first miss raises.
        cache = ScoreCache(20)
        score_codes(pack_codes(random_codes(5, 20, np.random.default_rng(1))), cache)
        keys, gammas = cache.keys, cache.gammas
        longer = pack_codes(random_codes(3, 30, np.random.default_rng(0)))
        for target in (ScoreCache(20), cache):
            with pytest.raises(ValueError, match="past symbol 19 of a length-20 code"):
                score_codes(longer, target)
        assert cache.keys is keys and cache.gammas is gammas

    def test_cached_undefined_code_is_a_hit(self, monkeypatch):
        # A NaN gamma in the cache is an undefined code, not a missing one.
        rng = np.random.default_rng(27)
        distinct = np.stack([random_code(12, rng) for _ in range(6)])
        block = distinct[rng.integers(0, 6, size=40)]
        undefined = block[0]
        cache = ScoreCache(12)
        cache.keys, cache.gammas = unique_rows(pack_codes(undefined[None]))[0], np.array([np.nan])
        scored = []

        def recording_batch(codes):
            scored.append(codes.copy())
            return fitness_batch(codes)

        monkeypatch.setattr(ga, "fitness_batch", recording_batch)
        gammas, _ = score_codes(pack_codes(block), cache)
        is_undefined = (block == undefined).all(axis=1)
        assert np.all(gammas[is_undefined] == -np.inf)
        assert np.all(np.isfinite(gammas[~is_undefined]))
        assert len(scored) == 1
        assert not (scored[0] == undefined).all(axis=1).any()
        new = len({row.tobytes() for row in block}) - 1
        assert len(scored[0]) == new and len(cache) == new + 1


class TestPadPopulation:
    def test_full_input_unchanged(self):
        rng = np.random.default_rng(24)
        codes = np.stack([random_code(8, rng) for _ in range(10)])
        out = unpack_codes(pad_population(pack_codes(codes), 10, 8, np.random.default_rng(0)), 8)
        assert np.array_equal(out, codes)

    def test_empty_input_fully_random(self):
        empty = pack_codes(np.empty((0, 8), dtype=np.int8))
        out = unpack_codes(pad_population(empty, 50, 8, np.random.default_rng(1)), 8)
        assert out.shape == (50, 8)
        assert set(np.unique(out)) == {-1, 1}

    def test_overfull_input_is_internal_error(self):
        rng = np.random.default_rng(25)
        codes = np.stack([random_code(8, rng) for _ in range(5)])
        with pytest.raises(RuntimeError):
            pad_population(pack_codes(codes), 4, 8, np.random.default_rng(0))

    def test_padded_symbols_balanced(self):
        empty = pack_codes(np.empty((0, 59), dtype=np.int8))
        out = unpack_codes(pad_population(empty, 5000, 59, np.random.default_rng(2)), 59)
        assert abs(float(out.mean())) <= 0.015


class TestStepGeneration:
    def test_population_size_invariant_over_many_steps(self):
        cfg = small_config(N_G=100)
        rng = np.random.default_rng(cfg.seed)
        cache = ScoreCache(cfg.N)
        pop = evaluate(init_population(cfg, rng), cache)
        for _ in range(100):
            pop = step_generation(pop, cfg, cache, rng)
            codes = unpack_codes(pop.words, cfg.N)
            assert codes.shape == (cfg.P, cfg.N)
            assert set(np.unique(codes)) <= {-1, 1}

    def test_elitism_makes_best_monotone(self):
        cfg = small_config(N_G=50)
        rng = np.random.default_rng(1)
        cache = ScoreCache(cfg.N)
        pop = evaluate(init_population(cfg, rng), cache)
        best = float(pop.gammas.max())
        for _ in range(50):
            pop = step_generation(pop, cfg, cache, rng)
            now = float(pop.gammas.max())
            assert now >= best
            best = now

    def test_trivial_operators_closure(self):
        # p_muta=0, p_conv=1, all members identical: the next generation is
        # the same single code in every slot (no padding needed)
        cfg = small_config(p_muta=0.0, p_conv=1.0)
        rng = np.random.default_rng(2)
        code = random_code(cfg.N, rng)
        pop = evaluate(pack_codes(np.tile(code, (cfg.P, 1))), ScoreCache(cfg.N))
        nxt = step_generation(pop, cfg, ScoreCache(cfg.N), np.random.default_rng(3))
        codes = unpack_codes(nxt.words, cfg.N)
        assert codes.shape == (cfg.P, cfg.N)
        assert all(np.array_equal(row, code) for row in codes)


    @pytest.mark.parametrize("n", [16, 64, 65, 100, 128])
    def test_matches_int8_formula(self, n):
        # Eight generations beside the int8 oracle, which shares no bit
        # handling with the packed step: the same codes, gammas, distinct
        # counts and cache size after every generation.
        cfg = small_config(N=n, P=200, E=40)
        rng, ref = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
        cache, ref_cache = ScoreCache(n), {}
        pop = evaluate(init_population(cfg, rng), cache)
        codes = random_codes(cfg.P, n, ref)
        gammas, distinct = score_codes_formula(codes, ref_cache)
        for k in range(9):
            if k:
                pop = step_generation(pop, cfg, cache, rng)
                codes, gammas, distinct = step_generation_formula(
                    codes, gammas, cfg, ref_cache, ref
                )
            assert np.array_equal(unpack_codes(pop.words, n), codes), k
            assert np.array_equal(pop.gammas, gammas), k
            assert pop.distinct_members == distinct, k
            assert len(cache) == len(ref_cache), k


class TestRun:
    def test_deterministic_history(self):
        cfg = small_config(N_G=10)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.best_code, b.best_code)
        assert a.best_gamma == b.best_gamma
        for sa, sb in zip(a.history, b.history):
            assert (sa.k, sa.best_gamma, sa.mean_gamma) == (sb.k, sb.best_gamma, sb.mean_gamma)
            assert (sa.distinct_members, sa.visited_states) == (
                sb.distinct_members,
                sb.visited_states,
            )

    def test_best_gamma_matches_recomputed_fitness(self):
        res = run(small_config(N_G=10))
        assert res.best_gamma == pytest.approx(
            fitness(res.best_code), rel=1e-9
        )

    def test_history_covers_every_generation(self):
        res = run(small_config(N_G=10))
        assert [st.k for st in res.history] == list(range(11))

    def test_visited_states_bounded(self):
        cfg = small_config(N_G=10)
        res = run(cfg)
        assert res.total_visited_states <= cfg.P * (cfg.N_G + 1)
        assert res.total_visited_states == res.history[-1].visited_states

    def test_stop_gamma_ends_early(self):
        cfg = small_config(N_G=200)
        full = run(cfg)
        target = full.history[5].best_gamma
        stopped = run(cfg, stop_gamma=target)
        assert stopped.best_gamma >= target
        assert stopped.history[-1].k <= 6

    @pytest.mark.parametrize("stop_gamma", [0.0, -1e3, math.nan, math.inf])
    def test_stop_gamma_must_be_finite_and_positive(self, stop_gamma):
        with pytest.raises(ValueError, match="^stop_gamma must be finite"):
            run(small_config(), stop_gamma=stop_gamma)

    @pytest.mark.parametrize("stop", ["none", "mid_run", "generation_0"])
    def test_on_generation_receives_the_history_rows(self, stop):
        cfg = small_config(N_G=10)
        full = run(cfg)
        # Stop at the first gain over generation 0's best, or at that best itself.
        k = next(st.k for st in full.history if st.best_gamma > full.history[0].best_gamma)
        assert 0 < k < cfg.N_G
        stop_gamma, rows = {
            "none": (None, cfg.N_G + 1),
            "mid_run": (full.history[k].best_gamma, k + 1),
            "generation_0": (full.history[0].best_gamma, 1),
        }[stop]
        seen = []
        res = run(cfg, stop_gamma=stop_gamma, on_generation=seen.append)
        assert len(res.history) == rows
        assert len(seen) == rows and all(a is b for a, b in zip(seen, res.history))

    def test_seeded_run_contains_seed_code(self):
        from phasecode.baselines import known_code

        res = run(small_config(N=59, N_G=1, init="known"))
        assert res.best_gamma >= fitness(known_code("hpgan").code)


class TestRunCounts:
    """``RunResult``'s counts: rows scored, and distinct codes across the run."""

    def test_total_evaluations_is_rows_scored(self):
        cfg = small_config(N_G=10)
        full = run(cfg)
        assert len(full.history) == cfg.N_G + 1
        assert full.total_evaluations == cfg.P * len(full.history)
        # Stop at the first gain over the initial best, before generation N_G.
        k = next(st.k for st in full.history if st.best_gamma > full.history[0].best_gamma)
        assert 0 < k < cfg.N_G
        stopped = run(cfg, stop_gamma=full.history[k].best_gamma)
        assert len(stopped.history) == k + 1
        assert stopped.total_evaluations == cfg.P * (k + 1)

    def test_visited_states_are_distinct_codes_of_all_generations(self):
        cfg = small_config(N_G=10)
        res = run(cfg)
        rng = np.random.default_rng(cfg.seed)
        cache = ScoreCache(cfg.N)
        pop = evaluate(init_population(cfg, rng), cache)
        seen = {row.tobytes() for row in pop.words}
        visited = [len(seen)]
        for _ in range(cfg.N_G):
            pop = step_generation(pop, cfg, cache, rng)
            seen |= {row.tobytes() for row in pop.words}
            visited.append(len(seen))
        assert [st.visited_states for st in res.history] == visited
        assert res.total_visited_states == len(seen) == len(cache)
