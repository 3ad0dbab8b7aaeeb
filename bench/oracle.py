"""Independent SCR oracle for checking the outputs of the benchmarked program.

Nothing here imports ``phasecode``. The clutter matrix is built as the
literal sum over the nonzero lags of the outer products of the shifted
replicas of the code,

    R = sum_{i != 0} shift(s, i) shift(s, i)^T,

solved with ``numpy.linalg.solve`` (no Cholesky, no Toeplitz closed form),
and the optimal filter x = R^{-1} s is scored twice: as the quadratic form
gamma = s^T x and as the lag-sum SCR (x.s)^2 / sum_{i != 0} (x . shift(s, i))^2.
For the optimal filter the two agree, which is itself a check.
"""

from __future__ import annotations

import numpy as np

# The four published length-59 codes and the SCR each source reports
# (Legendre sequence, AlphaSeq, HpGAN, the genetic search's optimum).
PUBLISHED_N59 = {
    "legendre": (2.69, """
        +1,+1,-1,+1,+1,+1,-1,+1,-1,+1,-1,-1,+1,-1,-1,+1,+1,+1,-1,+1,
        +1,+1,+1,-1,-1,+1,+1,+1,+1,+1,-1,-1,-1,-1,-1,+1,+1,-1,-1,-1,
        -1,+1,-1,-1,-1,+1,+1,-1,+1,+1,-1,+1,-1,+1,-1,-1,-1,+1,-1"""),
    "alphaseq": (33.45, """
        +1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,-1,-1,-1,-1,
        -1,-1,-1,-1,+1,+1,+1,-1,-1,+1,+1,-1,+1,+1,-1,+1,-1,-1,+1,-1,
        +1,-1,+1,-1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1"""),
    "hpgan": (45.16, """
        -1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,+1,-1,+1,-1,
        +1,-1,+1,-1,-1,+1,-1,+1,+1,+1,-1,-1,+1,+1,-1,-1,-1,-1,+1,+1,
        +1,+1,+1,+1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1"""),
    "ga": (50.84, """
        +1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,+1,-1,-1,-1,
        -1,-1,+1,+1,+1,-1,-1,+1,+1,+1,-1,+1,+1,-1,-1,+1,-1,-1,+1,-1,
        +1,-1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1,+1,-1"""),
}
PUBLISHED_TOLERANCE = 0.01  # the published values carry two decimals

_CHUNK = 4096


def parse_code(text: str) -> np.ndarray:
    """Comma-separated +1/-1 symbols (whitespace ignored) as a float vector."""
    return np.array([float(tok) for tok in text.replace("\n", "").replace(" ", "").split(",")])


def _shift(S: np.ndarray, i: int) -> np.ndarray:
    """Rows of S shifted by lag i, zero-padded: out[:, n] = S[:, n + i]."""
    out = np.zeros_like(S)
    n = S.shape[1]
    if i >= 0:
        out[:, : n - i] = S[:, i:]
    else:
        out[:, -i:] = S[:, : n + i]
    return out


def _lags(n: int):
    return [i for i in range(-(n - 1), n) if i != 0]


def clutter_matrices(S: np.ndarray) -> np.ndarray:
    """(B, N, N) clutter matrices as the literal sum of shifted outer products."""
    b, n = S.shape
    R = np.zeros((b, n, n))
    for i in _lags(n):
        sh = _shift(S, i)
        R += sh[:, :, None] * sh[:, None, :]
    return R


def _filters(S: np.ndarray) -> np.ndarray:
    """x = R^{-1} s per row; rows whose R is singular come back as NaN."""
    R = clutter_matrices(S)
    try:
        return np.linalg.solve(R, S[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(S.shape, np.nan)
        for k in range(S.shape[0]):
            try:
                out[k] = np.linalg.solve(R[k], S[k])
            except np.linalg.LinAlgError:
                pass
        return out


def score(codes) -> tuple[np.ndarray, np.ndarray]:
    """(gamma, lag-sum SCR of the optimal filter) for each row of a code matrix."""
    S = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    gammas, scrs = [], []
    for lo in range(0, S.shape[0], _CHUNK):
        part = S[lo : lo + _CHUNK]
        x = _filters(part)
        peak = np.einsum("bi,bi->b", x, part)
        clutter = sum(np.einsum("bi,bi->b", x, _shift(part, i)) ** 2 for i in _lags(part.shape[1]))
        gammas.append(peak)
        scrs.append(peak * peak / clutter)
    return np.concatenate(gammas), np.concatenate(scrs)


def exact_optimum(n: int) -> float:
    """Best gamma over all 2^n bipolar codes, by enumeration.

    Only codes with s[0] = +1 are scored: negating a code leaves every shifted
    outer product, and so R and gamma, unchanged.
    """
    ks = np.arange(1 << (n - 1), dtype=np.int64)
    bits = (ks[:, None] >> np.arange(n - 2, -1, -1)) & 1
    codes = np.ones((ks.size, n))
    codes[:, 1:] = 2.0 * bits - 1.0
    gammas, _ = score(codes)
    return float(np.nanmax(gammas))


def check_published() -> list[str]:
    """Problems found when scoring the four published N=59 codes; empty when all agree."""
    problems = []
    for name, (published, text) in PUBLISHED_N59.items():
        (gamma,), (lag_sum,) = score(parse_code(text))
        if abs(gamma - published) > PUBLISHED_TOLERANCE:
            problems.append(f"oracle gamma {gamma:.4f} for {name}, published {published}")
        if abs(lag_sum - gamma) > 1e-9 * gamma:
            problems.append(f"oracle lag-sum SCR {lag_sum!r} != gamma {gamma!r} for {name}")
    return problems
