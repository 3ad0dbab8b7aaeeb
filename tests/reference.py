"""Reference functions the tests use and the package itself does not call.

``tournament_win_probability`` and ``survival_probability`` are the
analytic law of tournament selection that the GA's sampled tournaments are
checked against; ``random_code`` and ``cross_correlation`` are the
single-code forms of ``random_codes`` and of ``x @ shifted(s, i)``;
``packed_key`` spells out the ``codes.unique_rows`` key bit by bit.
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
