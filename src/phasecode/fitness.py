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

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codes import PhaseCode, autocorrelation, code_key, shifted

# Codes are evaluated in fixed-size chunks so results do not depend on the
# thread count (chunks are concatenated in submission order).
_CHUNK = 1024

# Batch rows with 1 - q <= this (q = s^T T^{-1} s) go to the Cholesky
# ``fitness``. 1 - q = 1 / (1 + gamma), so the subtraction loses about
# log10(1 + gamma) digits; Cholesky loses as many, since cond(R) >=
# gamma (N - 1) / N, so above the threshold the two routes agree. Below it
# gamma >= 1e9, eight orders above any SCR the searches reach (about 63 at
# N = 100): R is numerically singular and the oracle decides whether it is
# defined.
_MIN_ONE_MINUS_Q = 1e-9


class FitnessScore(NamedTuple):
    """SCR value of a code; ``defined`` is False when R is numerically singular."""

    gamma: float
    defined: bool = True


UNDEFINED_SCORE = FitnessScore(float("nan"), False)


def sort_value(score: FitnessScore) -> float:
    """Total-order key: undefined scores rank below every defined score."""
    return score.gamma if score.defined else float("-inf")


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


def scr(s: PhaseCode, x: np.ndarray) -> FitnessScore:
    """Signal-to-clutter ratio of the pair (s, x), summing squared correlations lag by lag.

    This is the literal definition and serves as the independent check of
    ``fitness``; it never goes through the solver.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) != len(s):
        raise ValueError(f"length mismatch: filter {len(x)} vs code {len(s)}")
    if not np.any(x):
        raise ValueError("filter must not be the zero vector")
    n = len(s)
    peak = float(x @ np.asarray(s, dtype=np.float64))
    clutter = 0.0
    for i in range(-(n - 1), n):
        if i == 0:
            continue
        clutter += float(x @ shifted(s, i)) ** 2
    if clutter == 0.0:
        return UNDEFINED_SCORE
    return FitnessScore(peak * peak / clutter)


def matched_filter_scr(s: PhaseCode) -> FitnessScore:
    """SCR of the matched filter x = s; never exceeds the mismatched optimum."""
    return scr(s, np.asarray(s, dtype=np.float64))


def fitness(s: PhaseCode) -> FitnessScore:
    """Optimal-filter SCR s^T R^{-1} s via the SPD solve."""
    sf = np.asarray(s, dtype=np.float64)
    x = _spd_solve(build_clutter_matrix(s), sf)
    if x is None:
        return UNDEFINED_SCORE
    return FitnessScore(float(sf @ x))


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
        score = fitness(codes[k])
        gamma[k] = score.gamma if score.defined else np.nan
    return gamma


def fitness_batch(codes: np.ndarray, threads: int = 1) -> np.ndarray:
    """Vectorized fitness for a (B, N) code matrix.

    Returns gamma per row with NaN for undefined entries. The chunk split is
    fixed, so the result is identical for every thread count.
    """
    codes = np.atleast_2d(codes)
    b = codes.shape[0]
    if b == 0:
        return np.empty(0)
    chunks = [codes[lo : lo + _CHUNK] for lo in range(0, b, _CHUNK)]
    if threads <= 1 or len(chunks) == 1:
        parts = [_fitness_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_fitness_chunk, chunks))
    return np.concatenate(parts)


@dataclass
class FitnessCache:
    """Gamma store keyed by ``code_key`` (exact symbol sequence); counts distinct evaluations.

    ``gammas`` maps a packed key to its gamma, NaN when undefined.
    ``miss_count`` is the number of distinct codes ever evaluated through the
    cache, the "visited states" metric; a code and its negation are two
    states. Inserts take ``_lock``, so ``cached_fitness`` may be called from
    several threads.
    """

    gammas: dict[bytes, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    miss_count: int = 0
    hit_count: int = 0

    def get(self, s: np.ndarray) -> FitnessScore | None:
        gamma = self.gammas.get(code_key(s))
        if gamma is None:
            return None
        return UNDEFINED_SCORE if np.isnan(gamma) else FitnessScore(gamma)

    def store(self, s: np.ndarray, score: FitnessScore) -> bool:
        """Insert unless present; returns True when the code was new."""
        return self.add(code_key(s), score.gamma if score.defined else float("nan"))

    def add(self, key: bytes, gamma: float) -> bool:
        """``store`` by packed key and raw gamma (NaN when undefined)."""
        with self._lock:
            if key in self.gammas:
                return False
            self.gammas[key] = gamma
            self.miss_count += 1
            return True

    def __len__(self) -> int:
        return len(self.gammas)


def cached_fitness(cache: FitnessCache, s: PhaseCode) -> tuple[FitnessScore, bool]:
    """Fitness through the cache; second element is True when the code was new."""
    hit = cache.get(s)
    if hit is not None:
        cache.hit_count += 1
        return hit, False
    score = fitness(s)
    if not cache.store(s, score):
        # Lost a concurrent insert race: the stored score is the canonical one.
        cache.hit_count += 1
        return cache.get(s), False
    return score, True
