"""Monte-Carlo estimate of the signal-to-clutter ratio of a code and filter.

The return from a coded pulse is the bin-of-interest reflection plus
clutter echoes from every other range bin plus noise:

    y = h0 * s + sum_{i != 0} h_i * shifted(s, i) + w

and the receiver reports the inner product x.y. Averaging the squared
clutter term over unit-variance reflection coefficients reproduces the
analytic SCR, which is what ``empirical_sir`` validates. It needs only the
filter's response to each lag (``codes.lag_responses``, in ``lag_values``
order, as ``scr`` sums them), so it never builds y itself.
"""

from __future__ import annotations

import math

import numpy as np

from .codes import PhaseCode, lag_responses

_SIR_CHUNK = 8192


def _draw_rcs(
    rng: np.random.Generator, shape: tuple[int, int], distribution: str
) -> np.ndarray:
    if distribution == "gaussian":
        return rng.standard_normal(shape)
    if distribution == "uniform":
        # zero mean, unit variance
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    raise ValueError(f"unknown clutter distribution {distribution!r}")


def empirical_sir(
    s: PhaseCode,
    x: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    distribution: str = "gaussian",
) -> float:
    """Monte-Carlo signal-to-clutter estimate for the pair (s, x).

    Per trial the clutter coefficients are i.i.d. zero-mean unit-variance
    (h0 = 1, noise off), so the mean squared clutter power converges to the
    analytic denominator and the estimate converges to scr(s, x). As in
    ``scr``, a zero filter raises ValueError and a clutter power of 0 gives
    NaN (undefined). Trials are drawn in fixed chunk order, so fixed seeds
    reproduce exactly.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    # The per-trial clutter term is just h . response.
    response = lag_responses(s, x)
    peak = float(np.asarray(x, dtype=np.float64) @ np.asarray(s, dtype=np.float64))
    total = 0.0
    done = 0
    while done < trials:
        m = min(_SIR_CHUNK, trials - done)
        h = _draw_rcs(rng, (m, response.size), distribution)
        total += float(np.sum((h @ response) ** 2))
        done += m
    denom = total / trials
    if denom == 0.0:
        return math.nan
    return peak * peak / denom
