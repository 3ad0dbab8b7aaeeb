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
  s^T R^{-1} s = q / (1 - q) with q = s^T T^{-1} s, and a Levinson
  recursion solves T x = s in O(N^2) for a whole chunk of codes at once
  (Levinson 1947; Golub & Van Loan, Matrix Computations, Section 4.7).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

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
        cho = scipy.linalg.cho_factor(R, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve(cho, b, check_finite=False)


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

    Solves T x = s for every row with the Levinson recursion of Golub & Van
    Loan (Algorithm 4.7.2) on T / r(0), which has a unit diagonal. ``beta``
    is the prediction error: T is positive definite exactly when it stays
    > 0 at every step, and then R is positive definite exactly when
    1 - q > 0. Rows that fail either test go to the Cholesky ``fitness``.
    """
    S = codes.astype(np.float64)
    b, n = S.shape
    # r(d) is an integer, so the FFT's rounding error is removed exactly.
    nfft = 1 << (2 * n - 2).bit_length()  # a power of two >= 2N - 1
    spec = np.fft.rfft(S, nfft, axis=1)
    r = np.rint(np.fft.irfft(spec.real**2 + spec.imag**2, nfft, axis=1)[:, :n])
    # Lag-major (N, B) arrays: each step works on whole contiguous rows.
    s_t = np.ascontiguousarray(S.T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rhs = s_t / r[:, 0]
        # rho[d - 1] = r(d) / r(0); the trailing zero row lets the last step
        # compute an (unused) reflection coefficient instead of branching.
        rho = np.zeros((n, b))
        rho[:-1] = (r[:, 1:] / r[:, :1]).T
        x = np.empty((n, b))  # solution of T x = s, built up in place
        y = np.empty((n, b))  # Yule-Walker solution, built up in place
        x[0] = rhs[0]
        y[0] = alpha = -rho[0]
        beta = np.ones(b)
        ok = np.ones(b, dtype=bool)
        for k in range(1, n):
            beta *= 1.0 - alpha * alpha
            ok &= beta > 0
            y_rev = y[k - 1 :: -1]
            mu = (rhs[k] - np.einsum("ib,ib->b", rho[:k], x[k - 1 :: -1])) / beta
            x[:k] += mu * y_rev
            x[k] = mu
            alpha = -(rho[k] + np.einsum("ib,ib->b", rho[:k], y_rev)) / beta
            y[:k] += alpha * y_rev
            y[k] = alpha
        q = np.einsum("ib,ib->b", s_t, x)
        gamma = q / (1.0 - q)
        ok &= 1.0 - q > _MIN_ONE_MINUS_Q
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
