"""Clutter matrix, solver and SCR fitness.

The independent oracles here never share code with the production path:
the clutter matrix is rebuilt from literal shifted outer products, small-N
fitness is recomputed through an adjugate (cofactor) inverse, and the
matched-filter value is cross-checked against the autocorrelation formula.
"""

import importlib
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasecode import baselines
from phasecode.cli import main
from phasecode.codes import as_code, lag_responses, random_codes, shifted
from phasecode.echo import empirical_sir
from phasecode.fitness import (
    build_clutter_matrix,
    fitness,
    fitness_batch,
    matched_filter_scr,
    optimal_filter,
    scr,
    _spd_solve,
)
from golden import child_env
from reference import random_code

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
        base = scr(s, x)
        for c in (0.5, -3.0, 1e6):
            assert scr(s, c * x) == pytest.approx(base, rel=1e-9)

    def test_singular_matrix_yields_none(self):
        singular = np.zeros((3, 3))
        assert _spd_solve(singular, np.ones(3)) is None
        indefinite = np.diag([1.0, -1.0, 1.0])
        assert _spd_solve(indefinite, np.ones(3)) is None


class TestScr:
    def test_hand_oracle_n2(self):
        # numerator (1+1)^2 = 4; lags +-1 contribute 1 each
        assert scr(as_code([1, 1]), np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_zero_filter_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            scr(as_code([1, 1]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            scr(as_code([1, 1]), np.ones(3))

    @pytest.mark.parametrize(
        "route",
        [lambda s, x: empirical_sir(s, x, 100, np.random.default_rng(0)), lag_responses],
        ids=["empirical_sir", "lag_responses"],
    )
    def test_bad_filter_rejected(self, route):
        # The other routes read the filter through the same checks as ``scr``.
        with pytest.raises(ValueError, match="zero vector"):
            route(as_code([1, 1]), np.zeros(2))
        with pytest.raises(ValueError, match="length mismatch"):
            route(as_code([1, 1]), np.ones(3))


class TestFitness:
    def test_n2_fitness_is_two(self):
        assert fitness(as_code([1, 1])) == pytest.approx(2.0)

    def test_negation_invariance_exact(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            s = random_code(59, rng)
            assert fitness(s) == fitness(as_code(-s))

    def test_reversal_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            s = random_code(59, rng)
            a, b = fitness(s), fitness(as_code(s[::-1]))
            assert abs(a - b) / a <= 1e-9

    def test_consistency_with_independent_scr(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            s = random_code(59, rng)
            f = fitness(s)
            g = scr(s, optimal_filter(s))
            assert abs(f - g) / f <= 1e-6

    def test_cauchy_schwarz_dominates_matched_filter(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            s = random_code(int(rng.integers(2, 64)), rng)
            assert fitness(s) >= matched_filter_scr(s) - 1e-9

    def test_agrees_with_cofactor_inverse_small_n(self):
        # independent oracle: explicit adjugate inverse, exhaustive N in {2, 3, 4}
        for n in (2, 3, 4):
            for bits in range(1 << n):
                s = as_code([1 if (bits >> k) & 1 else -1 for k in range(n)])
                R = clutter_matrix_oracle(s)
                sf = np.asarray(s, float)
                expected = float(sf @ adjugate_inverse(R) @ sf)
                got = fitness(s)
                assert abs(got - expected) <= 1e-9 * max(1.0, expected)


class TestMatchedFilter:
    def test_n2_value(self):
        assert matched_filter_scr(as_code([1, 1])) == pytest.approx(2.0)

    def test_autocorrelation_identity(self):
        # MF SCR equals N^2 / (2 sum_{d>0} r(d)^2)
        from phasecode.codes import autocorrelation

        rng = np.random.default_rng(104)
        for _ in range(50):
            n = int(rng.integers(2, 64))
            s = random_code(n, rng)
            r = autocorrelation(s)
            expected = n * n / (2.0 * float(np.sum(r[1:] ** 2)))
            assert matched_filter_scr(s) == pytest.approx(expected, rel=1e-12)

    def test_never_exceeds_mismatched_optimum_on_legendre(self):
        from phasecode.baselines import known_code

        s_l = known_code("legendre").code
        assert matched_filter_scr(s_l) <= fitness(s_l)


class TestPublishedValues:
    def test_registry_scr_reproduction(self):
        from phasecode.baselines import known_codes

        expected = {"legendre": 2.69, "alphaseq": 33.45, "hpgan": 45.16, "ga": 50.84}
        for k in known_codes():
            assert fitness(k.code) == pytest.approx(expected[k.name], abs=GAMMA_TOL)

    def test_scr_route_matches_for_published_codes(self):
        from phasecode.baselines import known_code

        for name in ("legendre", "alphaseq", "hpgan", "ga"):
            s = known_code(name).code
            assert scr(s, optimal_filter(s)) == pytest.approx(fitness(s), rel=1e-6)


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
            expected = fitness(row)
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
        if np.isnan(expected):
            assert np.isnan(got)
        else:
            assert abs(got - expected) <= 1e-12 * expected

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

        # One chunk, so it is scored in this process, where the patches apply;
        # forked pool workers would not see them.
        monkeypatch.setattr(fitness_module, "_MIN_ONE_MINUS_Q", threshold)
        monkeypatch.setattr(fitness_module, "fitness", recording_fitness)
        patched = fitness_batch(codes)
        assert expected.sum() == 100
        assert np.array_equal(np.array(calls), codes[expected])
        assert patched[expected].tolist() == [fitness(c) for c in codes[expected]]
        assert patched[~expected].tobytes() == base[~expected].tobytes()

    def test_row_with_singular_clutter_is_nan(self):
        # An all-zero row has r(0) = 0, so the recursion's prediction error is
        # not positive; the oracle finds R = 0 singular.
        rng = np.random.default_rng(108)
        codes = np.stack([random_code(12, rng) for _ in range(4)])
        codes[2] = 0
        got = fitness_batch(codes)
        assert np.isnan(fitness(codes[2]))
        assert np.isnan(got[2]) and np.isfinite(np.delete(got, 2)).all()

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(105)
        codes = np.stack([random_code(31, rng) for _ in range(64)])
        batch = fitness_batch(codes)
        for row, g in zip(codes, batch):
            assert g == pytest.approx(fitness(row), rel=1e-9)

    @pytest.mark.parametrize("n", [4, 20, 59, 100])
    def test_chunk_boundaries_do_not_change_bytes(self, n):
        # 2.5 symbol budgets of rows span three chunks; the slices cut them
        # at other rows, down to a one-row slice.
        rng = np.random.default_rng(106)
        b = 5 * fitness_module._CHUNK_SYMBOLS // (2 * n)
        codes = (2 * rng.integers(0, 2, size=(b, n)) - 1).astype(np.int8)
        whole = fitness_batch(codes)
        cuts = [0, 1, b // 5, b // 2 + 3, b - 7, b]
        slices = [fitness_batch(codes[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        assert whole.tobytes() == np.concatenate(slices).tobytes()

    @pytest.mark.parametrize("n, b", [(4, 40000), (20, 3277), (20, 9000), (59, 3000), (100, 655)])
    def test_batch_splits_evenly_by_symbol_budget(self, monkeypatch, n, b):
        rng = np.random.default_rng(109)
        codes = (2 * rng.integers(0, 2, size=(b, n)) - 1).astype(np.int8)
        chunks = []

        def recording_chunk(chunk):
            chunks.append(chunk.copy())
            return np.zeros(len(chunk))

        # At most 3 chunks, below the pool's threshold of 2 per CPU on two or
        # more CPUs, so they are scored in this process, where the patch
        # applies (the local function could not even be sent to a worker).
        monkeypatch.setattr(fitness_module, "_fitness_chunk", recording_chunk)
        fitness_batch(codes)
        assert len(chunks) == -(-b * n // 2**16)
        rows = [len(c) for c in chunks]
        assert max(rows) - min(rows) <= 1
        assert np.array_equal(np.concatenate(chunks), codes)


@pytest.fixture
def no_area(monkeypatch):
    """No work area in this process before the test, and none left after it."""
    monkeypatch.setattr(fitness_module, "_work", None)


def _chunk_shape(n):
    """The (rows, n) shape of a full scoring chunk of length-n codes."""
    return fitness_module._CHUNK_SYMBOLS // n, n


class TestWorkArea:
    """Each process scores its chunks in one reused work area (``_work``)."""

    def test_second_chunk_of_a_shape_allocates_less_than_one_array(self, no_area):
        b, n = _chunk_shape(59)
        codes = random_codes(2 * b, n, np.random.default_rng(120))
        fitness_module._fitness_chunk(codes[:b])
        tracemalloc.start()
        try:
            fitness_module._fitness_chunk(codes[b:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * b * np.dtype(np.float64).itemsize

    def test_chunk_widths_agree_with_the_oracle(self, no_area):
        # A full chunk grows the area; one row then uses a sliver of it, and
        # a chunk wider than the area grows it again.
        b, n = _chunk_shape(59)
        codes = random_codes(b + 7, n, np.random.default_rng(121))
        sizes = []
        for width in (b, 1, b + 7):
            got = fitness_module._fitness_chunk(codes[:width])
            sizes.append(fitness_module._work[0].size)
            want = np.array([fitness(c) for c in codes[:width]])
            assert np.all(np.abs(got - want) <= 1e-12 * want), width
        assert sizes == [n * b, n * b, n * (b + 7)]

    def test_main_process_holds_no_area_after_a_batch(self, no_area, monkeypatch):
        held = []

        def chunk_then_look(codes):
            gammas = score_chunk(codes)
            held.append(fitness_module._work is not None)
            return gammas

        # One chunk, so it is scored in this process, where the patch applies.
        score_chunk = fitness_module._fitness_chunk
        monkeypatch.setattr(fitness_module, "_fitness_chunk", chunk_then_look)
        b, n = _chunk_shape(59)
        fitness_batch(random_codes(b, n, np.random.default_rng(122)))
        assert held == [True]
        assert fitness_module._work is None

    def test_import_makes_no_area(self):
        script = ("import sys, phasecode.fitness\n"
                  "print(sys.modules['phasecode.fitness']._work is None)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"


def _kill_worker(*_):
    """A ``_fitness_chunk`` or ``_orbit_block`` stand-in that kills the pool worker running it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _area_size(_):
    """The length of each work-area buffer (0 for none) of the process that runs this call."""
    return 0 if fitness_module._work is None else fitness_module._work[0].size


def _batch_and_pool_state(codes):
    """``fitness_batch(codes)``, and whether it made a pool in this process."""
    gammas = fitness_batch(codes)
    made_pool = fitness_module._pool is not None
    fitness_module._shutdown_pool()  # such a pool's workers would outlive the test
    return gammas, made_pool


def _pool_batch(n, chunks, seed):
    """Random (B, n) codes that ``fitness_batch`` splits into exactly ``chunks`` chunks."""
    b = chunks * fitness_module._CHUNK_SYMBOLS // n
    return (2 * np.random.default_rng(seed).integers(0, 2, size=(b, n)) - 1).astype(np.int8)


def _alive(pid):
    """Whether ``pid`` names a running process (a zombie has already exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


CPUS = fitness_module.scoring_cpus()
THRESHOLD = fitness_module._POOL_CHUNKS_PER_CPU * CPUS
needs_pool = pytest.mark.skipif(
    CPUS < 2, reason="one CPU, or no fork outside Linux: every batch is scored in-process")


@pytest.fixture
def fresh_pool():
    """No pool before the test, and none left after it (with any patch it forked)."""
    fitness_module._shutdown_pool()
    yield
    fitness_module._shutdown_pool()


class TestWorkerPool:
    """Maps of at least 2 items per CPU (scoring chunks, brute-force blocks) run on forked workers."""

    @needs_pool
    @pytest.mark.parametrize("n", [59, 100])
    def test_pool_batch_matches_chunks_in_process(self, fresh_pool, n):
        codes = _pool_batch(n, THRESHOLD, seed=110)
        got = fitness_batch(codes)
        assert fitness_module._pool is not None  # the batch went to the pool
        want = [fitness_module._fitness_chunk(c) for c in np.array_split(codes, THRESHOLD)]
        assert got.tobytes() == np.concatenate(want).tobytes()

    @needs_pool
    def test_workers_keep_their_area_between_batches(self, fresh_pool, no_area):
        # The workers are forked with no area to inherit; each scores a chunk
        # of the batch and still holds its area afterwards.
        fitness_batch(_pool_batch(59, THRESHOLD, seed=112))
        sizes = fitness_module.pool_map(_area_size, range(THRESHOLD))
        assert min(sizes) >= 59 * (fitness_module._CHUNK_SYMBOLS // 59)

    @needs_pool
    def test_batch_below_threshold_stays_in_process(self, fresh_pool):
        fitness_batch(_pool_batch(59, THRESHOLD - 1, seed=111))
        assert fitness_module._pool is None

    @needs_pool
    def test_workers_ignore_sigint(self, fresh_pool):
        handlers = fitness_module.pool_map(signal.getsignal, [signal.SIGINT] * THRESHOLD)
        assert fitness_module._pool is not None  # the calls ran on the pool
        assert handlers == [signal.SIG_IGN] * THRESHOLD

    @needs_pool
    def test_killed_worker_raises_and_the_next_batch_gets_a_new_pool(
        self, fresh_pool, monkeypatch, tmp_path, capsys
    ):
        # The pool is forked after the patch, so its workers run the stand-in.
        monkeypatch.setattr(fitness_module, "_fitness_chunk", _kill_worker)
        codes = _pool_batch(59, THRESHOLD, seed=112)
        with pytest.raises(RuntimeError, match="died"):
            fitness_batch(codes)
        assert fitness_module._pool is None
        # The CLI reports a RuntimeError with exit code 3.
        argv = ["search", "--N", "59", "--N_G", "1", "--P", str(len(codes)),
                "--E", "20", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("internal error: ")
        monkeypatch.undo()
        want = [fitness_module._fitness_chunk(c) for c in np.array_split(codes, THRESHOLD)]
        assert fitness_batch(codes).tobytes() == np.concatenate(want).tobytes()

    @needs_pool
    def test_worker_killed_between_maps_fails_the_next_map(self, fresh_pool):
        fitness_module.pool_map(abs, range(THRESHOLD))
        pid = fitness_module._pool[0][0]
        os.kill(pid, signal.SIGKILL)
        while _alive(pid):  # until its pipe ends are closed
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match="died"):  # its task pipe is broken
            fitness_module.pool_map(abs, range(THRESHOLD))
        assert fitness_module._pool is None
        assert fitness_module.pool_map(abs, range(-THRESHOLD, 0)) == list(range(THRESHOLD, 0, -1))

    @needs_pool
    def test_batch_in_a_worker_is_scored_in_that_worker(self, fresh_pool):
        # A forked worker inherits the parent's pool, whose pipes it cannot
        # use; each batch of THRESHOLD chunks below would reach a pool if the
        # worker did not run it in-process.
        codes = _pool_batch(59, THRESHOLD, seed=113)
        replies = fitness_module.pool_map(_batch_and_pool_state, [codes] * THRESHOLD)
        assert fitness_module._pool is not None  # the batches ran on the pool
        want = [fitness_module._fitness_chunk(c) for c in np.array_split(codes, THRESHOLD)]
        for got, made_pool in replies:
            assert not made_pool
            assert got.tobytes() == np.concatenate(want).tobytes()

    @needs_pool
    def test_first_worker_leaves_when_its_own_pipes_close(self, fresh_pool):
        # Workers forked after it inherit the parent's ends of its pipes and
        # must close them, or it would never see EOF while they run.
        pool = fitness_module._worker_pool(CPUS)
        pid, tasks, replies = pool.pop(0)
        tasks.close()
        replies.close()
        for _ in range(1000):
            if os.waitpid(pid, os.WNOHANG)[0]:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the first worker did not leave within 10 s")

    @needs_pool
    def test_exception_in_a_worker_is_raised_here(self, fresh_pool):
        with pytest.raises(ValueError, match="invalid literal"):
            fitness_module.pool_map(int, ["1"] * (THRESHOLD - 1) + ["x"])
        assert fitness_module._pool is None

    @needs_pool
    def test_exception_in_a_worker_keeps_its_traceback(self, fresh_pool):
        # The worker's formatted traceback is chained as the cause.
        with pytest.raises(ValueError) as raised:
            fitness_module.pool_map(int, ["1"] * (THRESHOLD - 1) + ["x"])
        cause = str(raised.value.__cause__)
        assert cause.startswith("Traceback (most recent call last):")
        assert "in _serve" in cause and "invalid literal" in cause

    @needs_pool
    @pytest.mark.parametrize("n", [16, 17, 18, 19, 20])
    def test_brute_force_on_the_pool_matches_one_cpu(self, fresh_pool, monkeypatch, n):
        code, gamma = baselines.brute_force_best(n)
        blocks = -(-(1 << (n - 2)) // baselines._BRUTE_FORCE_BLOCK)
        if blocks >= THRESHOLD:  # from N = 18 on two CPUs
            assert fitness_module._pool is not None
        monkeypatch.setattr(fitness_module, "scoring_cpus", lambda: 1)
        one_code, one_gamma = baselines.brute_force_best(n)
        assert code.tobytes() == one_code.tobytes()
        assert np.float64(gamma).tobytes() == np.float64(one_gamma).tobytes()

    @needs_pool
    def test_killed_block_worker_fails_bruteforce_with_exit_three(
        self, fresh_pool, monkeypatch, tmp_path, capsys
    ):
        # The pool is forked after the patch, so its workers run the stand-in.
        monkeypatch.setattr(baselines, "_orbit_block", _kill_worker)
        assert main(["bruteforce", "20", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")
        assert fitness_module._pool is None
        monkeypatch.undo()
        assert baselines.brute_force_best(20)[1] == 20.900605805123988

    @needs_pool
    def test_search_exits_with_no_worker_alive(self, tmp_path):
        # Generation 0 scores P random codes, at least 2 chunks per CPU.
        P = THRESHOLD * fitness_module._CHUNK_SYMBOLS // 59
        _assert_exits_with_no_worker_alive(
            ["search", "--N", "59", "--N_G", "1", "--P", str(P), "--E", "20", "--out", str(tmp_path)]
        )

    @needs_pool
    def test_bruteforce_exits_with_no_worker_alive(self, tmp_path):
        # 16 blocks of 2^14 indices at N = 20, at least 2 per CPU up to 8 CPUs.
        if THRESHOLD > 16:
            pytest.skip("more than 8 CPUs: the 16 blocks stay in-process")
        _assert_exits_with_no_worker_alive(["bruteforce", "20", "--out", str(tmp_path)])

    @needs_pool
    def test_pooled_search_loads_no_multiprocessing(self, tmp_path):
        # A fresh interpreter, so no other test's imports count. Generation 0
        # scores P random codes, at least 2 chunks per CPU, on the pool.
        P = THRESHOLD * fitness_module._CHUNK_SYMBOLS // 59
        argv = ["search", "--N", "59", "--N_G", "1", "--P", str(P), "--E", "20",
                "--out", str(tmp_path)]
        script = (
            "import sys\n"
            "from phasecode.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert sys.modules['phasecode.fitness']._pool\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @needs_pool
    def test_ctrl_c_leaves_no_worker_alive(self):
        # SIGINT reaches the main process during a map whose calls take 0.5 s;
        # the workers ignore it and finish their call before they are reaped.
        # The child restores Python's SIGINT handler, which it would not
        # install had it inherited SIGINT ignored (a background job's state).
        script = (
            "import signal, sys, time\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from phasecode.fitness import pool_map\n"
            f"pool_map(abs, range({THRESHOLD}))\n"
            "print(*(pid for pid, _, _ in sys.modules['phasecode.fitness']._pool), flush=True)\n"
            f"pool_map(time.sleep, [0.5] * {THRESHOLD})\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode != 0
        assert "KeyboardInterrupt" in err
        assert len(pids) == CPUS
        assert not [pid for pid in pids if _alive(pid)]


def _assert_exits_with_no_worker_alive(argv):
    """Run the CLI on ``argv`` in a fresh interpreter that forks the pool; no worker outlives it."""
    script = (
        "import sys\n"
        "from phasecode.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*(pid for pid, _, _ in sys.modules['phasecode.fitness']._pool))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # nothing printed at exit
    pids = [int(pid) for pid in proc.stdout.splitlines()[-1].split()]
    assert len(pids) == CPUS
    assert not [pid for pid in pids if _alive(pid)]
