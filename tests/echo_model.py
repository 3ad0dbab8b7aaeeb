"""Literal received-echo model, kept in the tests as the independent oracle
for ``phasecode.echo.empirical_sir``.

The return from a coded pulse is the bin-of-interest reflection plus
clutter echoes from every other range bin plus noise:

    y = h0 * s + sum_{i != 0} h_i * shifted(s, i) + w

and the receiver reports the inner product x.y. Everything here is built
one lag at a time, with no shortcut shared with the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from phasecode.codes import PhaseCode, lag_values, shifted


@dataclass
class EchoScenario:
    """Fixed reflection coefficients for one simulated environment.

    ``clutter_rcs[j]`` belongs to ``lag_values(N)[j]``; ``noise_std`` is the
    per-sample standard deviation of the additive white Gaussian noise.
    """

    h0: float
    clutter_rcs: np.ndarray
    noise_std: float = 0.0

    def validate(self, N: int) -> None:
        if len(self.clutter_rcs) != 2 * N - 2:
            raise ValueError(
                f"need {2 * N - 2} clutter coefficients for N={N}, "
                f"got {len(self.clutter_rcs)}"
            )
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass(frozen=True)
class TrialResult:
    """Decomposition of one filter output x.y into its three physical parts."""

    signal_component: float
    clutter_component: float
    noise_component: float

    @property
    def total(self) -> float:
        return self.signal_component + self.clutter_component + self.noise_component


def simulate_received(
    s: PhaseCode, scenario: EchoScenario, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One received vector under the scenario's reflection coefficients."""
    n = len(s)
    scenario.validate(n)
    y = scenario.h0 * np.asarray(s, dtype=np.float64)
    for h, lag in zip(scenario.clutter_rcs, lag_values(n)):
        if h != 0.0:
            y += h * shifted(s, int(lag))
    if scenario.noise_std > 0:
        if rng is None:
            raise ValueError("need an rng when noise_std > 0")
        y += rng.normal(0.0, scenario.noise_std, size=n)
    return y


def mmf_output(x: np.ndarray, y: np.ndarray) -> float:
    """Receiver output for a received vector: the inner product x.y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: filter {len(x)} vs received {len(y)}")
    return float(x @ y)


def simulate_trial(
    s: PhaseCode,
    x: np.ndarray,
    scenario: EchoScenario,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, TrialResult]:
    """One receive-and-filter trial; returns (y, decomposition of x.y)."""
    n = len(s)
    scenario.validate(n)
    x = np.asarray(x, dtype=np.float64)
    if len(x) != n:
        raise ValueError(f"length mismatch: filter {len(x)} vs code {n}")
    sf = np.asarray(s, dtype=np.float64)
    signal = scenario.h0 * float(x @ sf)
    clutter = 0.0
    y = scenario.h0 * sf
    for h, lag in zip(scenario.clutter_rcs, lag_values(n)):
        if h != 0.0:
            v = shifted(s, int(lag))
            clutter += h * float(x @ v)
            y += h * v
    noise = 0.0
    if scenario.noise_std > 0:
        if rng is None:
            raise ValueError("need an rng when noise_std > 0")
        w = rng.normal(0.0, scenario.noise_std, size=n)
        noise = float(x @ w)
        y = y + w
    return y, TrialResult(signal, clutter, noise)
