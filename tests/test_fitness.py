"""Clutter matrix, solver, SCR fitness, and the cache contracts.

The independent oracles here never share code with the production path:
the clutter matrix is rebuilt from literal shifted outer products, small-N
fitness is recomputed through an adjugate (cofactor) inverse, and the
matched-filter value is cross-checked against the autocorrelation formula.
"""

import importlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasecode.codes import as_code, random_code, shifted
from phasecode.fitness import (
    FitnessCache,
    FitnessScore,
    UNDEFINED_SCORE,
    build_clutter_matrix,
    cached_fitness,
    fitness,
    fitness_batch,
    matched_filter_scr,
    optimal_filter,
    scr,
    sort_value,
    _spd_solve,
)

GAMMA_TOL = 0.01  # published SCR values carry two decimals

# The package re-exports the function ``fitness`` under the module's name.
fitness_module = importlib.import_module("phasecode.fitness")


def clutter_matrix_oracle(s):
    """Literal sum of outer products over every nonzero lag."""
    n = len(s)
    R = np.zeros((n, n))
    for lag in range(-(n - 1), n):
        if lag == 0:
            continue
        v = shifted(s, lag)
        R += np.outer(v, v)
    return R


def adjugate_inverse(A):
    """Cofactor-expansion inverse; independent of any factorization route."""
    n = A.shape[0]
    cof = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T / np.linalg.det(A)


class TestClutterMatrix:
    def test_n2_codes_give_identity(self):
        assert np.allclose(build_clutter_matrix(as_code([1, 1])), np.eye(2))
        assert np.allclose(build_clutter_matrix(as_code([1, -1])), np.eye(2))

    def test_matches_literal_outer_product_sum(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 5, 8, 13, 21):
            s = random_code(n, rng)
            assert np.allclose(
                build_clutter_matrix(s), clutter_matrix_oracle(s), atol=1e-12
            )

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            R = build_clutter_matrix(random_code(59, rng))
            assert np.array_equal(R, R.T)

    def test_trace_closed_form(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 31, 59, 100):
            R = build_clutter_matrix(random_code(n, rng))
            assert R.trace() == pytest.approx(n * n - n, abs=1e-9)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            R = build_clutter_matrix(random_code(17, rng))
            assert np.linalg.eigvalsh(R).min() > -1e-9


class TestOptimalFilter:
    def test_identity_clutter_returns_code(self):
        x = optimal_filter(as_code([1, 1]))
        assert np.allclose(x, [1.0, 1.0])

    def test_solve_residual_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s = random_code(59, rng)
            x = optimal_filter(s)
            residual = build_clutter_matrix(s) @ x - np.asarray(s, float)
            assert np.abs(residual).max() <= 1e-8 * 59

    def test_scr_scale_invariant_in_filter(self):
        rng = np.random.default_rng(12)
        s = random_code(59, rng)
        x = optimal_filter(s)
        base = scr(s, x).gamma
        for c in (0.5, -3.0, 1e6):
            assert scr(s, c * x).gamma == pytest.approx(base, rel=1e-9)

    def test_singular_matrix_yields_none(self):
        singular = np.zeros((3, 3))
        assert _spd_solve(singular, np.ones(3)) is None
        indefinite = np.diag([1.0, -1.0, 1.0])
        assert _spd_solve(indefinite, np.ones(3)) is None


class TestScr:
    def test_hand_oracle_n2(self):
        # numerator (1+1)^2 = 4; lags +-1 contribute 1 each
        score = scr(as_code([1, 1]), np.array([1.0, 1.0]))
        assert score.defined and score.gamma == pytest.approx(2.0)

    def test_zero_filter_rejected(self):
        with pytest.raises(ValueError):
            scr(as_code([1, 1]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scr(as_code([1, 1]), np.ones(3))


class TestFitness:
    def test_n2_fitness_is_two(self):
        score = fitness(as_code([1, 1]))
        assert score.defined and score.gamma == pytest.approx(2.0)

    def test_negation_invariance_exact(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            s = random_code(59, rng)
            assert fitness(s).gamma == fitness(as_code(-s)).gamma

    def test_reversal_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            s = random_code(59, rng)
            a, b = fitness(s).gamma, fitness(as_code(s[::-1])).gamma
            assert abs(a - b) / a <= 1e-9

    def test_consistency_with_independent_scr(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            s = random_code(59, rng)
            f = fitness(s).gamma
            g = scr(s, optimal_filter(s)).gamma
            assert abs(f - g) / f <= 1e-6

    def test_cauchy_schwarz_dominates_matched_filter(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            s = random_code(int(rng.integers(2, 64)), rng)
            assert fitness(s).gamma >= matched_filter_scr(s).gamma - 1e-9

    def test_agrees_with_cofactor_inverse_small_n(self):
        # independent oracle: explicit adjugate inverse, exhaustive N in {2, 3, 4}
        for n in (2, 3, 4):
            for bits in range(1 << n):
                s = as_code([1 if (bits >> k) & 1 else -1 for k in range(n)])
                R = clutter_matrix_oracle(s)
                sf = np.asarray(s, float)
                expected = float(sf @ adjugate_inverse(R) @ sf)
                got = fitness(s).gamma
                assert abs(got - expected) <= 1e-9 * max(1.0, expected)


class TestMatchedFilter:
    def test_n2_value(self):
        assert matched_filter_scr(as_code([1, 1])).gamma == pytest.approx(2.0)

    def test_autocorrelation_identity(self):
        # MF SCR equals N^2 / (2 sum_{d>0} r(d)^2)
        from phasecode.codes import autocorrelation

        rng = np.random.default_rng(104)
        for _ in range(50):
            n = int(rng.integers(2, 64))
            s = random_code(n, rng)
            r = autocorrelation(s)
            expected = n * n / (2.0 * float(np.sum(r[1:] ** 2)))
            assert matched_filter_scr(s).gamma == pytest.approx(expected, rel=1e-12)

    def test_never_exceeds_mismatched_optimum_on_legendre(self):
        from phasecode.baselines import known_code

        s_l = known_code("legendre").code
        assert matched_filter_scr(s_l).gamma <= fitness(s_l).gamma


class TestPublishedValues:
    def test_registry_scr_reproduction(self):
        from phasecode.baselines import known_codes

        expected = {"legendre": 2.69, "alphaseq": 33.45, "hpgan": 45.16, "ga": 50.84}
        for k in known_codes():
            score = fitness(k.code)
            assert score.defined
            assert score.gamma == pytest.approx(expected[k.name], abs=GAMMA_TOL)

    def test_scr_route_matches_for_published_codes(self):
        from phasecode.baselines import known_code

        for name in ("legendre", "alphaseq", "hpgan", "ga"):
            s = known_code(name).code
            assert scr(s, optimal_filter(s)).gamma == pytest.approx(
                fitness(s).gamma, rel=1e-6
            )


BARKER_13 = [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]


def _structured_codes():
    """Codes whose Toeplitz T is far from the well-conditioned random case."""
    cases = []
    for n in (2, 3, 13, 59, 100, 160):
        idx = np.arange(n)
        cases.append((f"all-plus-{n}", np.ones(n)))
        cases.append((f"alternating-{n}", (-1.0) ** idx))
        cases.append((f"step-{n}", np.where(idx < n // 2, 1.0, -1.0)))
    cases.append(("barker-13", BARKER_13))
    from phasecode.baselines import known_codes

    cases += [(k.name, k.code) for k in known_codes()]
    return [pytest.param(as_code(code), id=name) for name, code in cases]


def _code_matrices():
    """(B, N) int8 code matrices, B in 1..6, N from the lengths the searches use and beyond."""
    return st.tuples(
        st.integers(1, 6), st.sampled_from([2, 3, 5, 12, 20, 59, 100, 160])
    ).flatmap(lambda shape: arrays(np.int8, shape, elements=st.sampled_from([-1, 1])))


class TestFitnessBatch:
    @settings(max_examples=60, deadline=None)
    @given(_code_matrices())
    def test_agrees_with_cholesky_oracle(self, codes):
        batch = fitness_batch(codes)
        for row, g in zip(codes, batch):
            expected = fitness(row).gamma
            assert abs(g - expected) <= 1e-12 * expected

    @settings(max_examples=60, deadline=None)
    @given(_code_matrices())
    def test_symmetries(self, codes):
        # Negation is exact in floating point; reversal and alternation
        # s[n] -> (-1)^n s[n] keep gamma exactly but round differently.
        base = fitness_batch(codes)
        assert fitness_batch(-codes).tobytes() == base.tobytes()
        alt = (-1) ** np.arange(codes.shape[1])
        for image in (codes[:, ::-1], codes * alt):
            assert np.all(np.abs(fitness_batch(image) - base) <= 1e-12 * base)

    @settings(max_examples=60, deadline=None)
    @given(_code_matrices())
    def test_one_row_chunk_matches_its_row_in_a_batch(self, codes):
        whole = fitness_batch(codes)
        for i in range(len(codes)):
            assert fitness_batch(codes[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()

    @pytest.mark.parametrize("code", _structured_codes())
    def test_structured_codes_agree_with_cholesky_oracle(self, code):
        got = fitness_batch(code)[0]
        expected = fitness(code)
        if not expected.defined:
            assert np.isnan(got)
        else:
            assert abs(got - expected.gamma) <= 1e-12 * expected.gamma

    def test_fallback_rows_go_to_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(107)
        codes = np.stack([random_code(20, rng) for _ in range(300)])
        base = fitness_batch(codes)
        # 1 - q = 1 / (1 + gamma): a threshold between two rows' values sends
        # every row with a larger gamma to the fallback.
        one_minus_q = np.sort(1.0 / (1.0 + base))
        threshold = 0.5 * (one_minus_q[99] + one_minus_q[100])
        expected = 1.0 / (1.0 + base) <= threshold
        calls = []

        def recording_fitness(s):
            calls.append(np.array(s))
            return fitness(s)

        monkeypatch.setattr(fitness_module, "_MIN_ONE_MINUS_Q", threshold)
        monkeypatch.setattr(fitness_module, "fitness", recording_fitness)
        patched = fitness_batch(codes)
        assert expected.sum() == 100
        assert np.array_equal(np.array(calls), codes[expected])
        assert patched[expected].tolist() == [fitness(c).gamma for c in codes[expected]]
        assert patched[~expected].tobytes() == base[~expected].tobytes()

    def test_row_with_singular_clutter_is_nan(self):
        # An all-zero row has r(0) = 0, so the recursion's prediction error is
        # not positive; the oracle finds R = 0 singular.
        rng = np.random.default_rng(108)
        codes = np.stack([random_code(12, rng) for _ in range(4)])
        codes[2] = 0
        got = fitness_batch(codes)
        assert not fitness(codes[2]).defined
        assert np.isnan(got[2]) and np.isfinite(np.delete(got, 2)).all()

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(105)
        codes = np.stack([random_code(31, rng) for _ in range(64)])
        batch = fitness_batch(codes)
        for row, g in zip(codes, batch):
            assert g == pytest.approx(fitness(row).gamma, rel=1e-9)

    def test_thread_count_does_not_change_bytes(self):
        rng = np.random.default_rng(106)
        codes = np.stack([random_code(59, rng) for _ in range(3000)])
        one = fitness_batch(codes, threads=1)
        four = fitness_batch(codes, threads=4)
        assert one.tobytes() == four.tobytes()


class TestFitnessCache:
    def test_repeat_lookup_is_a_hit(self):
        cache = FitnessCache()
        rng = np.random.default_rng(0)
        s = random_code(12, rng)
        first, new1 = cached_fitness(cache, s)
        second, new2 = cached_fitness(cache, s)
        assert new1 and not new2
        assert cache.miss_count == 1 and cache.hit_count == 1
        # bit-identical stored score
        assert first == second

    def test_counts_all_distinct_codes(self):
        cache = FitnessCache()
        n = 12
        for bits in range(1 << n):
            s = as_code([1 if (bits >> k) & 1 else -1 for k in range(n)])
            cached_fitness(cache, s)
        assert cache.miss_count == 4096
        assert len(cache) == 4096

    def test_exact_keys_by_default(self):
        cache = FitnessCache()
        rng = np.random.default_rng(1)
        s = random_code(16, rng)
        cached_fitness(cache, s)
        _, was_new = cached_fitness(cache, as_code(-s))
        assert was_new
        assert cache.miss_count == 2

    def test_concurrent_duplicate_inserts_count_once(self):
        cache = FitnessCache()
        rng = np.random.default_rng(2)
        codes = [random_code(20, rng) for _ in range(32)]

        def worker():
            for s in codes:
                cached_fitness(cache, s)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.miss_count == 32


class TestScoreOrdering:
    def test_undefined_sorts_below_everything(self):
        assert sort_value(UNDEFINED_SCORE) == float("-inf")
        assert sort_value(FitnessScore(0.0)) > sort_value(UNDEFINED_SCORE)
