"""Clutter matrix, optimal mismatched filter, and the SCR fitness of a phase code.

The receiver correlates the return with a real filter x. For a code s the
clutter matrix collects every nonzero-lag shifted replica:

    R = sum_{i != 0} shifted(s, i) shifted(s, i)^T

and the signal-to-clutter ratio of the pair (s, x) is

    scr(s, x) = (x.s)^2 / sum_{i != 0} (x . shifted(s, i))^2.

The optimal filter is x* = R^{-1} s and the resulting fitness is the
quadratic form s^T R^{-1} s. R admits the exact closed form
R[j,k] = r(|j-k|) - s[j]*s[k] with r the aperiodic autocorrelation, which
is what ``build_clutter_matrix`` computes; the literal sum of outer
products is kept in the test suite as an independent oracle.

Two routes evaluate the quadratic form:

- ``fitness`` (one code) factors R by Cholesky, never forming an inverse.
  It is the oracle the batch route is tested against, and its fallback.
- ``fitness_batch`` uses the structure of R = T - s s^T, with T the
  symmetric Toeplitz matrix of r. Sherman-Morrison gives
  s^T R^{-1} s = q / (1 - q) with q = s^T T^{-1} s. Durbin's recursion
  (Durbin 1960; Golub & Van Loan, Matrix Computations, Section 4.7) yields
  the factorization T^{-1} = V D^{-1} V^T / r(0), with V unit upper
  triangular and D the prediction errors, so q is a sum of squares over
  D in O(N^2) and T x = s is never solved. The autocorrelation r(d) is
  taken as exact integer dot products of the +-1 symbols, not by FFT, so
  it needs no rounding.
"""

from __future__ import annotations

import atexit
import os
import sys

import numpy as np

from .codes import PhaseCode, autocorrelation, lag_responses

# Codes are evaluated in chunks of about this many symbols (rows x N), which
# bound the working set of the lag-major arrays. Each chunk pays a fixed cost
# per Durbin step whatever its row count, so short codes get more rows per
# chunk, and a batch is split evenly, leaving no short tail chunk. A code's
# gamma does not depend on its chunk.
_CHUNK_SYMBOLS = 1 << 16

# ``pool_map`` runs on the worker pool (``_worker_pool``) only with at least
# this many items per CPU. A pool ``map`` costs about 0.1 ms, yet pooling
# every map of two or more items sent ``search-n16``'s four 2-3-chunk maps to
# the pool and made it slower on a 2-vCPU VM: ``wall_s`` 0.428 -> 0.454 s,
# worse in 5 of 6 pairs (``bench/run.py --seconds 8``, seeds 21-26).
_POOL_CHUNKS_PER_CPU = 2
_pool = None  # made by ``_worker_pool`` on first use
_in_worker = False  # set in each pool worker, which never uses a pool itself

# Batch rows with 1 - q <= this (q = s^T T^{-1} s) go to the Cholesky
# ``fitness``. 1 - q = 1 / (1 + gamma), so the subtraction loses about
# log10(1 + gamma) digits; Cholesky loses as many, since cond(R) >=
# gamma (N - 1) / N, so above the threshold the two routes agree. Below it
# gamma >= 1e9, eight orders above any SCR the searches reach (about 63 at
# N = 100): R is numerically singular and the oracle decides whether it is
# defined.
_MIN_ONE_MINUS_Q = 1e-9


def build_clutter_matrix(s: PhaseCode) -> np.ndarray:
    """N x N clutter matrix R = sum over nonzero lags of shifted outer products.

    Computed via the closed form R[j,k] = r(|j-k|) - s[j]*s[k]; exactly
    symmetric, positive semidefinite, trace N^2 - N.
    """
    sf = np.asarray(s, dtype=np.float64)
    n = len(sf)
    r = autocorrelation(sf)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return r[idx] - np.outer(sf, sf)


def _spd_solve(R: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve R x = b by Cholesky; None when R is not numerically positive definite."""
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def optimal_filter(s: PhaseCode) -> np.ndarray | None:
    """The SCR-maximizing mismatched filter x* = R^{-1} s, or None if R is singular."""
    sf = np.asarray(s, dtype=np.float64)
    return _spd_solve(build_clutter_matrix(s), sf)


def scr(s: PhaseCode, x: np.ndarray) -> float:
    """Signal-to-clutter ratio of the pair (s, x), summing squared correlations lag by lag.

    This is the literal definition and serves as the independent check of
    ``fitness``; it never goes through the solver. NaN when the clutter
    power is 0 (undefined).
    """
    clutter = 0.0
    for response in lag_responses(s, x):
        clutter += float(response) ** 2
    if clutter == 0.0:
        return float("nan")
    peak = float(np.asarray(x, dtype=np.float64) @ np.asarray(s, dtype=np.float64))
    return peak * peak / clutter


def matched_filter_scr(s: PhaseCode) -> float:
    """SCR of the matched filter x = s; never exceeds the mismatched optimum."""
    return scr(s, np.asarray(s, dtype=np.float64))


def fitness(s: PhaseCode) -> float:
    """Optimal-filter SCR s^T R^{-1} s via the SPD solve; NaN when R is singular."""
    x = optimal_filter(s)
    return float("nan") if x is None else float(np.asarray(s, dtype=np.float64) @ x)


def _fitness_chunk(codes: np.ndarray) -> np.ndarray:
    """Gammas for a (B, N) chunk of codes; NaN marks an undefined (singular-R) entry.

    Runs Durbin's recursion (Golub & Van Loan, Algorithm 4.7.1) for the
    Yule-Walker solutions y of T / r(0), which has a unit diagonal, and
    accumulates r(0) q = sum_k t_k^2 / beta_k from the factorization
    (T / r(0))^{-1} = V D^{-1} V^T. Column k of V is [E y_k; 1; 0], where y_k
    is the order-k solution and E reverses it, so t_k = (E y_k) . s[:k] + s[k];
    D holds the prediction errors beta_0 = 1, beta_1, ... T is positive
    definite exactly when beta stays > 0 at every step, and then R is
    positive definite exactly when 1 - q > 0. Rows that fail either test go
    to the Cholesky ``fitness``.

    The sum is carried as num / beta: each step scales num by the same
    factor 1 - alpha^2 as beta and adds t_k^2, so gamma = q / (1 - q) comes
    out as num / (r(0) beta - num) with a single division. Summing
    t_k^2 / beta_k first and then forming q / (1 - q) rounds twice more
    (N = 2 gives 1.9999999999999998 instead of 2).
    """
    b, n = codes.shape
    # Lag-major (N, B) arrays: each step works on whole contiguous rows.
    s_t = np.ascontiguousarray(codes.T, dtype=np.float64)
    # r(d) sums products of +-1 symbols, so it is an exact integer whatever
    # the summation order. r(0) = s.s rather than N, so an all-zero row has
    # r(0) = 0 and fails the beta test below.
    r0 = np.einsum("ib,ib->b", s_t, s_t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # rho[d - 1] = r(d) / r(0); the trailing zero row lets the last step
        # compute an (unused) reflection coefficient instead of branching.
        rho = np.zeros((n, b))
        for d in range(1, n):
            rho[d - 1] = np.einsum("ib,ib->b", s_t[: n - d], s_t[d:]) / r0
        y = np.empty((n, b))  # Yule-Walker solution, built up in place
        y[0] = alpha = -rho[0]
        beta = np.ones(b)
        num = s_t[0] * s_t[0]
        ok = np.ones(b, dtype=bool)
        for k in range(1, n):
            f = 1.0 - alpha * alpha
            beta *= f
            ok &= beta > 0
            # The reductions that round all read the reversed view y_rev, which
            # einsum sums in the same order for every chunk width, one row
            # included, so a code's gamma does not depend on its chunk.
            y_rev = y[k - 1 :: -1]
            t = np.einsum("ib,ib->b", y_rev, s_t[:k]) + s_t[k]
            num = num * f + t * t
            alpha = -(rho[k] + np.einsum("ib,ib->b", rho[:k], y_rev)) / beta
            y[:k] += alpha * y_rev
            y[k] = alpha
        den = r0 * beta - num  # r(0) beta (1 - q)
        gamma = num / den
        ok &= den > _MIN_ONE_MINUS_Q * r0 * beta
    # ``fitness`` is looked up here at call time, so it can be wrapped.
    for k in np.nonzero(~ok)[0]:
        gamma[k] = fitness(codes[k])
    return gamma


def scoring_cpus() -> int:
    """The CPUs scoring may use: this process's CPU affinity set (``taskset``
    sets it) on Linux, 1 elsewhere. It is also the pool's worker count."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _serve(tasks: int, replies: int) -> None:
    """A pool worker's loop: run each pickled ``(fn, args)`` call read from the
    ``tasks`` pipe and write ``(True, result)`` or ``(False, (exception,
    traceback text))`` to the ``replies`` pipe, until ``tasks`` reaches EOF.

    The worker ignores SIGINT, which the main process handles, and never uses
    a pool: it drops the copy of ``_pool`` it inherited, whose pipes belong to
    the parent, and ``pool_map`` runs every map in-process there.
    """
    import pickle
    import signal

    global _pool, _in_worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pool = None
    _in_worker = True
    with open(tasks, "rb") as calls, open(replies, "wb") as out:
        while True:
            try:
                fn, args = pickle.load(calls)
            except EOFError:
                return
            try:
                reply = True, fn(*args)
            except BaseException as exc:
                import traceback  # loaded only when a call fails

                reply = False, (exc, traceback.format_exc())
            pickle.dump(reply, out)
            out.flush()


def _worker_pool(workers: int) -> list:
    """The pool that ``pool_map`` uses, made on first use: one
    ``(pid, task pipe, reply pipe)`` per forked worker.

    Workers are forked, which takes milliseconds where a spawned worker
    re-imports numpy, so they see the program as it was when the pool was
    made: a monkeypatch made later does not reach them. ``_shutdown_pool``
    stops them, and runs at interpreter exit.
    """
    global _pool
    if _pool is None:
        _pool = []  # filled as workers start, so a failed fork leaves none behind
        for _ in range(workers):
            task_r, task_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    # Every inherited parent end must go, or a worker would
                    # never see EOF when the parent closes its own copy.
                    for _, tasks, replies in _pool:
                        tasks.close()
                        replies.close()
                    os.close(task_w)
                    os.close(reply_r)
                    _serve(task_r, reply_w)
                finally:
                    os._exit(0)
            os.close(task_r)
            os.close(reply_w)
            _pool.append((pid, open(task_w, "wb"), open(reply_r, "rb")))
    return _pool


def _shutdown_pool() -> None:
    """Close each worker's pipes, so it leaves at EOF once its call in flight
    is done, and reap it; the next large map makes a new pool."""
    global _pool
    pool, _pool = _pool or [], None
    for _, tasks, replies in pool:
        for pipe in (tasks, replies):
            try:
                pipe.close()
            except OSError:  # an unsent task for a worker that died
                pass
    for pid, _, _ in pool:
        os.waitpid(pid, 0)


atexit.register(_shutdown_pool)  # so no worker outlives the interpreter


class _WorkerTraceback(Exception):
    """A pool worker's formatted traceback, the cause of the exception it raised."""


def _map_on_pool(pool: list, fn, calls: list) -> list:
    """``[fn(*args) for args in calls]`` on ``pool``'s workers, one call in
    flight per worker: a worker gets its next call when its reply is read, so
    uneven calls still balance. A worker that dies raises ``RuntimeError``."""
    import pickle
    import select

    results = [None] * len(calls)
    todo = iter(enumerate(calls))
    busy = {}  # reply pipe fd -> (worker, index of its call in flight)

    def hand_out(worker) -> None:
        pid, tasks, replies = worker
        for i, args in todo:  # the next call, if one is left
            try:
                pickle.dump((fn, args), tasks)
                tasks.flush()
            except BrokenPipeError:
                raise RuntimeError(f"scoring worker {pid} died") from None
            busy[replies.fileno()] = worker, i
            return

    for worker in pool:
        hand_out(worker)
    while busy:
        for fd in select.select(list(busy), [], [])[0]:
            worker, i = busy.pop(fd)
            pid, _, replies = worker
            try:
                ok, value = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"scoring worker {pid} died") from None
            if not ok:
                exc, text = value
                raise exc from _WorkerTraceback(text)
            results[i] = value
            hand_out(worker)
    return results


def pool_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, on the worker pool when it pays.

    With at least ``_POOL_CHUNKS_PER_CPU`` calls per CPU, on a machine with
    more than one and outside a pool worker, the calls run on a pool of
    forked workers, one per CPU; otherwise in this process. The results come
    back in call order either way, so for a pure ``fn`` the two give the same
    bytes. ``fn`` and its arguments must be picklable, and ``fn`` is looked
    up in the worker as it was when the pool was made. An exception ``fn``
    raises in a worker is raised here.
    """
    calls = list(zip(*iterables))
    cpus = scoring_cpus()
    if _in_worker or cpus == 1 or len(calls) < _POOL_CHUNKS_PER_CPU * cpus:
        return [fn(*args) for args in calls]
    try:
        return _map_on_pool(_worker_pool(cpus), fn, calls)
    except BaseException:
        # A worker may have died, or still hold a call of this map; the next
        # large map makes a new pool.
        _shutdown_pool()
        raise


def fitness_batch(codes: np.ndarray) -> np.ndarray:
    """Vectorized fitness for a (B, N) code matrix; NaN marks an undefined entry.

    The batch is split into chunks of about ``_CHUNK_SYMBOLS`` symbols,
    scored by ``pool_map`` and joined in chunk order. A code's gamma does not
    depend on its chunk, so the pool and this process give the same bytes.
    """
    codes = np.atleast_2d(codes)
    if codes.shape[0] == 0:
        return np.empty(0)
    b, n = codes.shape
    chunks = np.array_split(codes, -(-b * n // _CHUNK_SYMBOLS))
    return np.concatenate(pool_map(_fitness_chunk, chunks))
