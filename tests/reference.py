"""Reference functions the tests use and the package itself does not call.

``tournament_win_probability`` and ``survival_probability`` are the
analytic law of tournament selection that the GA's sampled tournaments are
checked against; ``random_code`` and ``cross_correlation`` are the
single-code forms of ``random_codes`` and of ``x @ shifted(s, i)``;
``packed_key`` spells out the ``codes.pack_codes`` row bit by bit. The
``*_formula`` functions are the plain forms of GA operators that the
package computes a faster way or in less memory: a full stable sort,
re-checking every tournament on each re-draw pass, a ``np.where``
crossover, a sign flip, a per-row duplicate loop and a dict score cache,
all on int8 codes where the package works on packed words.
``step_generation_formula`` chains them into one generation, so the packed
generation step has an oracle that shares none of its bit handling.
``N12_OPTIMAL_GAMMA`` and ``N12_OPTIMAL_CODE`` pin the exhaustive N=12 optimum.
"""

from __future__ import annotations

import math

import numpy as np

from phasecode.codes import CODE_DTYPE, PhaseCode, random_codes, shifted
from phasecode.fitness import fitness_batch

# Frozen at first computation: exact optimum for N=12 (enumeration of one
# code per symmetry orbit, 528 of the 4096 codes). The exact gamma is
# 2442052/170569, shared by the 8-code symmetry orbit of the code; the pin is
# the orbit's lexicographic minimum, as the tie rule documents.
N12_OPTIMAL_GAMMA = 14.317091616882326
N12_OPTIMAL_CODE = [-1, -1, -1, -1, -1, -1, 1, 1, -1, 1, -1, 1]


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
    """Reference key: the sign bits and zero padding to whole 64-bit words,
    as big-endian bytes."""
    n = len(code)
    bits = "".join("1" if v > 0 else "0" for v in code)
    bits += "0" * (64 * math.ceil(n / 64) - n)
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


def mutate_formula(children: np.ndarray, p_muta: float, rng: np.random.Generator) -> np.ndarray:
    """Single-symbol mutation drawn as ``ga.mutate`` draws it, as a sign flip of
    int8 symbols; mutates ``children`` in place and returns it."""
    count, n = children.shape
    gate = rng.random(size=count) < p_muta
    rows = np.nonzero(gate)[0]
    pos = rng.integers(0, n, size=rows.size)
    children[rows, pos] *= -1
    return children


def prevent_early_convergence_formula(
    codes: np.ndarray, p_conv: float, rng: np.random.Generator
) -> np.ndarray:
    """Duplicate thinning as a loop over rows with a set of the codes seen so far."""
    seen, keep = set(), []
    for idx in range(codes.shape[0]):
        k = codes[idx].tobytes()
        if k not in seen:
            seen.add(k)
            keep.append(idx)
        elif rng.random() < p_conv:
            keep.append(idx)
    return codes[keep]


def score_codes_formula(codes: np.ndarray, cache: dict) -> tuple[np.ndarray, int]:
    """``ga.evaluate``'s gammas and distinct count, on int8 codes with a dict cache
    keyed by ``packed_key``.

    The codes not yet in ``cache`` are scored in one ``fitness_batch`` call,
    in key order, as ``ga.evaluate`` scores its misses.
    """
    keys = [packed_key(row) for row in codes]
    rows = dict(zip(keys, codes))
    new = sorted(k for k in rows if k not in cache)
    if new:
        cache.update(zip(new, fitness_batch(np.stack([rows[k] for k in new])).tolist()))
    gammas = np.array([cache[k] for k in keys], dtype=float)
    return np.where(np.isnan(gammas), -np.inf, gammas), len(rows)


def step_generation_formula(
    codes: np.ndarray, gammas: np.ndarray, config, cache: dict, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """One generation on int8 codes, drawn as ``ga.step_generation`` draws it.

    Built from the ``*_formula`` operators and ``score_codes_formula``; the
    tournaments take the rejection draw (M^2 <= 4 P). Returns the next
    generation's codes, gammas and distinct-code count.
    """
    N, P, E = config.N, config.P, config.E
    elites = elite_select_formula(codes, gammas, E)
    idx = draw_tournament_indices_formula(rng, P, config.M, P - E)
    winners = codes[idx[np.arange(P - E), np.argmax(gammas[idx], axis=1)]]
    children = crossover_formula(np.concatenate([winners, elites]), P - E, rng)
    children = mutate_formula(children, config.p_muta, rng)
    kept = prevent_early_convergence_formula(
        np.concatenate([children, elites]), config.p_conv, rng
    )
    if len(kept) < P:
        kept = np.concatenate([kept, random_codes(P - len(kept), N, rng)])
    return kept, *score_codes_formula(kept, cache)


def symmetry_orbit(code: np.ndarray) -> np.ndarray:
    """The 8 codes that share the gamma of ``code``: negation x reversal x alternation.

    Alternation s[n] -> (-1)^n s[n] maps R to D R D with D = diag((-1)^n),
    which leaves s^T R^{-1} s unchanged.
    """
    alt = np.where(np.arange(code.size) % 2, -1, 1).astype(code.dtype)
    base = np.stack([code, code[::-1]])
    base = np.concatenate([base, base * alt])
    return np.concatenate([base, -base])
