"""Span tracer that wraps the program's layer functions where their callers look them up.

Each wrapped call records a span (name, start, end, parent) in memory. A
layer's self time is the sum of its spans' durations minus the time covered
by their child spans. The tracer follows a single call stack, so it is only
valid for single-threaded runs (the CLI default ``--threads 1``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Span name -> the per-layer metric its self time is reported under.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "ga.run": "ga.run_self_s",
    "ga.init_population": "ga.init_s",
    "ga.evaluate": "ga.evaluate_self_s",
    "ga.step_generation": "ga.crossover_mutate_s",
    "ga.elite_select": "ga.elite_s",
    "ga.tournament_select": "ga.tournament_s",
    "ga.prevent_early_convergence": "ga.thin_s",
    "ga.pad_population": "ga.pad_s",
    "baselines.brute_force_best": "baselines.bruteforce_self_s",
    "fitness.fitness_batch": "fitness.build_s",
    "numpy.linalg.cholesky": "fitness.cholesky_s",
    "numpy.linalg.solve": "fitness.solve_s",
}

_GA_LAYERS = (
    "run",
    "init_population",
    "evaluate",
    "step_generation",
    "elite_select",
    "tournament_select",
    "prevent_early_convergence",
    "pad_population",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _in_batch(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == "fitness.fitness_batch"

    def wrap(self, owner, attr: str, name: str, only_in_batch: bool = False, count=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``only_in_batch`` records only calls made directly inside a
        ``fitness_batch`` span; ``count(*args)`` adds to the counter ``name``.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if only_in_batch and not self._in_batch():
                return fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(*args)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str):
        """Count calls to ``owner.attr`` made inside a ``fitness_batch`` span, without a span."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self._in_batch():
                self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def install(self, cli_module):
        """Wrap every traced layer of an imported ``phasecode`` package."""
        ga = sys.modules["phasecode.ga"]
        baselines = sys.modules["phasecode.baselines"]
        # ``phasecode.fitness`` the attribute is the function; the module lives here.
        fitness_mod = sys.modules["phasecode.fitness"]

        def rows(codes, *_):
            return int(np.atleast_2d(codes).shape[0])

        self.wrap(cli_module, "main", "cli.main")
        for attr in _GA_LAYERS:
            self.wrap(ga, attr, f"ga.{attr}")
        self.wrap(baselines, "brute_force_best", "baselines.brute_force_best")
        self.wrap(ga, "fitness_batch", "fitness.fitness_batch", count=rows)
        self.wrap(baselines, "fitness_batch", "fitness.fitness_batch", count=rows)
        self.wrap(np.linalg, "cholesky", "numpy.linalg.cholesky", only_in_batch=True)
        self.wrap(np.linalg, "solve", "numpy.linalg.solve", only_in_batch=True)
        # Per-code fallback scoring for chunks with a non-positive-definite R.
        self.count_calls(fitness_mod, "fitness", "fitness.fallback_codes")

    def layers(self) -> dict[str, float]:
        """Per-layer self times, total ``fitness_batch`` time and the counters."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0.0 for metric in SELF_METRICS.values()}
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[SELF_METRICS[name]] += (end - start) - child[idx]
        out["fitness.batch_s"] = total["fitness.fitness_batch"]
        out["fitness.codes"] = self.counts["fitness.fitness_batch"]
        out["fitness.fallback_codes"] = self.counts["fitness.fallback_codes"]
        return out
