"""Reference functions the tests use and the package itself does not call.

``tournament_win_probability`` and ``survival_probability`` are the
analytic law of tournament selection that the GA's sampled tournaments are
checked against; ``random_code`` and ``cross_correlation`` are the
single-code forms of ``random_codes`` and of ``x @ shifted(s, i)``;
``packed_key`` spells out the ``codes.unique_rows`` key bit by bit. The
``*_formula`` functions are the plain forms of GA operators that the
package computes a faster way or in less memory: a full stable sort,
re-checking every tournament on each re-draw pass, all of a draw's
permutations in one array, and a ``np.where`` crossover.
"""

from __future__ import annotations

import math

import numpy as np

from phasecode.codes import CODE_DTYPE, PhaseCode, shifted


def random_code(N: int, rng: np.random.Generator) -> PhaseCode:
    """One code with symbols drawn independently and uniformly from {+1, -1}."""
    if N < 2:
        raise ValueError(f"code length must be >= 2, got {N}")
    return (2 * rng.integers(0, 2, size=N, dtype=np.int8) - 1).astype(CODE_DTYPE)


def cross_correlation(x: np.ndarray, s: PhaseCode, i: int) -> float:
    """Inner product of ``x`` with ``shifted(s, i)`` (aperiodic correlation at lag i)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) != len(s):
        raise ValueError(f"length mismatch: filter {len(x)} vs code {len(s)}")
    return float(x @ shifted(s, i))


def tournament_win_probability(P: int, M: int, i: int) -> float:
    """Probability that the rank-i member (1 = best) wins one M-way tournament.

    Equals C(P-i, M-1) / C(P, M): the member is drawn and every other drawee
    ranks strictly worse. Zero when fewer than M-1 worse members exist.
    Exact integer combinatorics, so no overflow for any practical P.
    """
    if not 1 <= i <= P:
        raise ValueError(f"rank {i} out of range for P={P}")
    if not 1 <= M <= P:
        raise ValueError(f"tournament size {M} out of range for P={P}")
    if i > P - M + 1:
        return 0.0
    return math.comb(P - i, M - 1) / math.comb(P, M)


def survival_probability(P: int, M: int, i: int, E: int) -> float:
    """Probability the rank-i member wins at least one of the P-E tournaments."""
    if not 0 < E < P:
        raise ValueError(f"need 0 < E < P, got E={E}, P={P}")
    p = tournament_win_probability(P, M, i)
    return 1.0 - (1.0 - p) ** (P - E)


def packed_key(code):
    """Reference key: the sign bits, a 1 stop bit and zero padding to whole
    64-bit words, as big-endian bytes."""
    n = len(code)
    bits = "".join("1" if v > 0 else "0" for v in code) + "1"
    bits += "0" * (64 * (n // 64 + 1) - len(bits))
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def elite_select_formula(codes: np.ndarray, gammas: np.ndarray, E: int) -> np.ndarray:
    """The first E rows of a full stable sort by descending gamma."""
    order = np.argsort(-gammas, kind="stable")
    return codes[order[:E]]


def draw_tournament_indices_formula(
    rng: np.random.Generator, P: int, M: int, count: int
) -> np.ndarray:
    """Rejection resampling that re-sorts and re-checks all ``count`` rows
    on every pass and re-draws the rows holding a repeated index."""
    idx = rng.integers(0, P, size=(count, M))
    while True:
        srt = np.sort(idx, axis=1)
        bad = np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0]
        if bad.size == 0:
            return idx
        idx[bad] = rng.integers(0, P, size=(bad.size, M))


def crossover_formula(pool: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Single-point crossover drawn as ``ga.crossover`` draws it, built with ``np.where``."""
    size, n = pool.shape
    ia = rng.integers(0, size, size=count)
    ib = rng.integers(0, size, size=count)
    splits = rng.integers(1, n, size=count)
    cols = np.arange(n)[None, :]
    return np.where(cols < splits[:, None], pool[ia], pool[ib]).astype(CODE_DTYPE)


def symmetry_orbit(code: np.ndarray) -> np.ndarray:
    """The 8 codes that share the gamma of ``code``: negation x reversal x alternation.

    Alternation s[n] -> (-1)^n s[n] maps R to D R D with D = diag((-1)^n),
    which leaves s^T R^{-1} s unchanged.
    """
    alt = np.where(np.arange(code.size) % 2, -1, 1).astype(code.dtype)
    base = np.stack([code, code[::-1]])
    base = np.concatenate([base, base * alt])
    return np.concatenate([base, -base])
