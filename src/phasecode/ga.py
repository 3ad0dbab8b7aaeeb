"""Generation-synchronous genetic search over binary phase codes.

One generation applies, in order: elite selection, tournament selection,
single-point crossover over the combined pool, single-symbol mutation,
probabilistic thinning of duplicate codes (early-convergence prevention),
and random padding back to the population size. All randomness is drawn
from one sequential generator in the fixed order listed in
``step_generation``, so runs are reproducible from the seed alone and the
evaluation phase consumes no randomness.

The population is kept packed, one ``codes.pack_codes`` row of
W = ceil(N / 64) words per member, which is also the score cache's key:
selection returns member indices, ``step_generation`` gathers the mating
pool once, crossover and mutation are bit operations on the words, and
thinning and scoring deduplicate the words directly. Only new codes are
packed (the padding, which also builds generation 0), and only codes the
cache misses, and the best code, are unpacked.

``random_search``, the uniform random baseline, scores its draws through
the same ``ScoreCache``, so its visited states compare with ``run``'s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import known_codes
from .codes import (
    CODE_DTYPE,
    PhaseCode,
    head_masks,
    pack_codes,
    random_codes,
    symbol_bits,
    unique_rows,
    unpack_codes,
)
from .fitness import fitness_batch


class ConfigError(ValueError):
    """A ``GaConfig`` that fails a check; ``fields`` names the fields the check reads."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class GaConfig:
    """Search hyperparameters; field names follow the usual GA vocabulary.

    Each field's ``metadata["help"]`` says what it sets; the CLI builds its
    flags and config-file keys from these fields. A config is checked when
    it is built, so a bad one raises ``ValueError`` and never exists.

    The reference hyperparameter table quotes the thinning strength as 0.7;
    that number is the drop rate (the probability that the prevention acts
    on a repeat), so the equivalent keep-rate default here is 0.3. With the
    keep rate misread as 0.7 the population collapses onto one code and the
    N=59 search stalls near gamma 35-40 instead of reproducing the
    published trajectories.
    """

    N: int = field(default=59, metadata={"help": "code length"})
    N_G: int = field(default=200, metadata={"help": "number of generations"})
    P: int = field(default=10_000, metadata={"help": "population size"})
    E: int = field(default=2_000, metadata={"help": "elite count"})
    M: int = field(default=5, metadata={"help": "tournament size"})
    p_muta: float = field(default=0.3, metadata={"help": "mutation probability"})
    p_conv: float = field(default=0.3, metadata={"help": "duplicate keep probability"})
    seed: int = field(default=0, metadata={"help": "master seed"})
    init: str = field(
        default="random",
        metadata={"help": "random, or known (the published prior codes lead generation 0)"},
    )

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ConfigError(f"N must be >= 2, got {self.N}", "N")
        if self.N_G < 1:
            raise ConfigError(f"N_G must be >= 1, got {self.N_G}", "N_G")
        if not 0 < self.E < self.P:
            raise ConfigError(f"need 0 < E < P, got E={self.E}, P={self.P}", "E", "P")
        if not 2 <= self.M <= self.P:
            raise ConfigError(f"need 2 <= M <= P, got M={self.M}, P={self.P}", "M", "P")
        if not 0.0 <= self.p_muta <= 1.0:
            raise ConfigError(f"p_muta must be in [0, 1], got {self.p_muta}", "p_muta")
        if not 0.0 <= self.p_conv <= 1.0:
            raise ConfigError(f"p_conv must be in [0, 1], got {self.p_conv}", "p_conv")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")
        if self.init not in ("random", "known"):
            raise ConfigError(f"init must be random or known, got {self.init!r}", "init")
        seeds = _init_codes(self)
        if seeds.shape[1] != self.N:
            raise ConfigError(
                f"init = {self.init} seeds length-{seeds.shape[1]} codes, "
                f"so it needs N = {seeds.shape[1]}, got N = {self.N}", "init", "N"
            )
        if len(seeds) > self.P:
            raise ConfigError("more seed codes than population slots", "init", "P")


def _init_codes(config: GaConfig) -> np.ndarray:
    """The (K, N) codes that lead generation 0: none for ``random``; for
    ``known``, the published prior codes (the registry minus the GA's own
    ``ga``) in registry order, read through the registry's self-check."""
    if config.init == "known":
        return np.stack([k.code for k in known_codes() if k.name != "ga"])
    return np.empty((0, config.N), CODE_DTYPE)


@dataclass
class Population:
    """Ordered population of scored codes; ``evaluate`` builds one.

    ``words[p]`` is member p's code packed by ``codes.pack_codes``;
    ``gammas[p]`` is its SCR, with undefined scores stored as -inf so every
    comparison stays total. ``distinct_members`` is the number of distinct
    codes.
    """

    words: np.ndarray  # (P, W) uint64
    gammas: np.ndarray  # (P,) float
    distinct_members: int

    @property
    def size(self) -> int:
        return self.words.shape[0]


@dataclass(frozen=True)
class GenerationStats:
    k: int
    best_gamma: float
    mean_gamma: float
    distinct_members: int
    visited_states: int
    elapsed_seconds: float


@dataclass
class RunResult:
    best_code: PhaseCode
    best_gamma: float
    history: list[GenerationStats]
    total_visited_states: int
    total_evaluations: int


@dataclass
class ScoreCache:
    """Every distinct length-N code scored so far, as two parallel arrays.

    ``keys`` holds the ``codes.unique_rows`` keys in ascending order, and
    ``gammas`` the matching gammas, NaN where undefined. So ``len(cache)``
    is the number of distinct codes ever scored: the "visited states" (a
    code and its negation are two). ``score_codes`` rejects rows that are
    not ceil(N / 64) words wide or that set a bit past symbol N - 1.
    """

    N: int
    keys: np.ndarray = field(init=False)
    gammas: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.keys = unique_rows(pack_codes(np.empty((0, self.N), CODE_DTYPE)))[0]
        self.gammas = np.empty(0)

    def __len__(self) -> int:
        return self.keys.size


def score_codes(words: np.ndarray, cache: ScoreCache) -> tuple[np.ndarray, int]:
    """Gammas of a (B, W) packed code matrix, -inf where undefined, and its distinct-row count.

    ``unique_rows`` gives the distinct keys in ascending order, so one
    ``searchsorted`` into ``cache.keys`` finds each key's position: a hit
    where the key stored there is equal (a cached NaN is a hit), a miss
    otherwise. The misses are unpacked and scored in one ``fitness_batch``
    call, in key order, and inserted at those same positions, which keeps
    the cache sorted.
    """
    keys, first, inverse = unique_rows(words)
    if cache.keys.dtype != keys.dtype:
        raise ValueError(f"score cache holds {cache.keys.dtype} keys, got {keys.dtype}")
    pos = np.searchsorted(cache.keys, keys)
    hit = pos < len(cache)
    hit[hit] = cache.keys[pos[hit]] == keys[hit]
    gammas = np.empty(keys.size)
    gammas[hit] = cache.gammas[pos[hit]]
    miss = np.flatnonzero(~hit)
    if miss.size:
        gammas[miss] = fitness_batch(unpack_codes(words[first[miss]], cache.N))
        cache.keys = np.insert(cache.keys, pos[miss], keys[miss])
        cache.gammas = np.insert(cache.gammas, pos[miss], gammas[miss])
    return np.where(np.isnan(gammas), -np.inf, gammas)[inverse], keys.size


def evaluate(words: np.ndarray, cache: ScoreCache) -> Population:
    """The population of packed codes ``words``, scored through the cache (``score_codes``)."""
    return Population(words, *score_codes(words, cache))


def elite_select(pop: Population, E: int) -> np.ndarray:
    """Population indices of the E highest-fitness members, ties broken by lower index.

    ``np.partition`` finds the E-th highest gamma; only the members at or
    above it are sorted, stably and in index order, so the result is the
    head of a full stable sort, ties and -inf included.
    """
    if not 0 < E < pop.size:
        raise ValueError(f"need 0 < E < P, got E={E}, P={pop.size}")
    neg = -pop.gammas
    top = np.flatnonzero(neg <= np.partition(neg, E - 1)[E - 1])
    order = top[np.argsort(neg[top], kind="stable")]
    return order[:E]


def _draw_tournament_indices(
    rng: np.random.Generator, P: int, M: int, count: int
) -> np.ndarray:
    """(count, M) index matrix: each row M distinct indices uniform on [0, P).

    Rejection resampling up to M^2 <= 4 P, where at most about 86% of rows
    collide on their first draw; otherwise one ordered sample
    ``rng.choice(P, M, replace=False)`` per row. Both give the uniform
    distinct-draw law. A row without a collision never changes, so each
    re-draw pass checks only the rows it re-drew.
    """
    if M * M <= 4 * P:
        idx = rng.integers(0, P, size=(count, M))
        bad = np.arange(count)
        while True:
            srt = np.sort(idx[bad], axis=1)
            bad = bad[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
            if bad.size == 0:
                return idx
            idx[bad] = rng.integers(0, P, size=(bad.size, M))
    idx = np.empty((count, M), np.int64)
    for row in idx:
        row[:] = rng.choice(P, M, replace=False)
    return idx


def tournament_select(
    pop: Population, M: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Population indices of the winners of ``count`` independent M-way
    tournaments (draws without replacement within a tournament, elites
    included in the draw pool).

    Each winner is the drawee with the highest gamma; among equal gammas the
    first drawn index wins (the ``argmax`` rule). Indices, not codes, identify
    winners, so members that happen to share a code stay distinguishable.
    """
    if not 1 <= M <= pop.size:
        raise ValueError(f"tournament size {M} out of range for P={pop.size}")
    idx = _draw_tournament_indices(rng, pop.size, M, count)
    drawn = pop.gammas[idx]
    return idx[np.arange(count), np.argmax(drawn, axis=1)]


def prevent_early_convergence(
    words: np.ndarray, p_conv: float, rng: np.random.Generator
) -> np.ndarray:
    """Thin duplicate packed codes: first occurrence kept, later ones kept w.p. p_conv.

    Draws one uniform per repeat, in index order.
    """
    keep = np.zeros(words.shape[0], dtype=bool)
    keep[unique_rows(words)[1]] = True
    repeats = np.nonzero(~keep)[0]
    keep[repeats] = rng.random(repeats.size) < p_conv
    return words[keep]


def pad_population(words: np.ndarray, P: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Append fresh uniform random length-N codes, packed, until the population is full again."""
    count = words.shape[0]
    if count > P:
        raise RuntimeError(f"pipeline produced {count} codes for population size {P}")
    if count == P:
        return words
    return np.concatenate([words, pack_codes(random_codes(P - count, N, rng))])


def init_population(config: GaConfig, rng: np.random.Generator) -> np.ndarray:
    """Generation 0, packed: the ``init`` codes, padded with uniform random codes."""
    return pad_population(pack_codes(_init_codes(config)), config.P, config.N, rng)


def crossover(pool: np.ndarray, count: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` single-point crossover children of a (B, W) packed pool of length-N codes.

    Child i takes its first ``split`` symbols from parent a and the rest
    from parent b. Draws, in order: every parent a, every parent b, every
    split, each uniform (split on [1, N)). Each child is
    ``b ^ ((a ^ b) & head)``, that is ``(a & head) | (b & ~head)``, with
    ``head`` the words of its first ``split`` symbols (``codes.head_masks``).
    """
    size, W = pool.shape
    ia = rng.integers(0, size, size=count)
    ib = rng.integers(0, size, size=count)
    splits = rng.integers(1, N, size=count)
    children = np.take(pool, ib, axis=0)
    delta = np.take(pool, ia, axis=0)
    delta ^= children
    delta &= head_masks(splits, W)
    children ^= delta
    return children


def mutate(
    children: np.ndarray, p_muta: float, N: int, rng: np.random.Generator
) -> np.ndarray:
    """With probability p_muta per row, flip the sign of one uniformly chosen symbol of N.

    Mutates the (B, W) packed matrix in place and returns it. Draws, in
    order: one uniform gate per row, then one position per gated row.
    """
    gate = rng.random(size=children.shape[0]) < p_muta
    rows = np.nonzero(gate)[0]
    word, bit = symbol_bits(rng.integers(0, N, size=rows.size))
    children[rows, word] ^= bit
    return children


def step_generation(
    pop: Population,
    config: GaConfig,
    cache: ScoreCache,
    rng: np.random.Generator,
) -> Population:
    """One full generation step; returns the evaluated next generation.

    Randomness is consumed in this fixed order: tournament draws, parent
    pairs, split points, mutation gates, mutation positions, duplicate-keep
    draws, padding codes.
    """
    N, P, E = config.N, config.P, config.E
    elites = elite_select(pop, E)
    winners = tournament_select(pop, config.M, P - E, rng)
    pool = np.take(pop.words, np.concatenate([winners, elites]), axis=0)
    children = crossover(pool, P - E, N, rng)
    children = mutate(children, config.p_muta, N, rng)
    candidate = np.concatenate([children, pool[P - E :]])
    kept = prevent_early_convergence(candidate, config.p_conv, rng)
    return evaluate(pad_population(kept, P, N, rng), cache)


def _population_stats(k: int, pop: Population, visited: int, t0: float) -> GenerationStats:
    finite = pop.gammas[np.isfinite(pop.gammas)]
    return GenerationStats(
        k=k,
        best_gamma=float(pop.gammas.max()),
        mean_gamma=float(finite.mean()) if finite.size else float("nan"),
        distinct_members=pop.distinct_members,
        visited_states=visited,
        elapsed_seconds=time.perf_counter() - t0,
    )


def check_stop_gamma(stop_gamma: float | None) -> None:
    """Reject a ``stop_gamma`` that is not finite and > 0: no score reaches NaN
    or +inf, and every defined score is > 0, so a target <= 0 would end every
    run at generation 0."""
    if stop_gamma is not None and not 0 < stop_gamma < math.inf:
        raise ValueError(f"stop_gamma must be finite and > 0, got {stop_gamma}")


def run(
    config: GaConfig,
    stop_gamma: float | None = None,
    on_generation: Callable[[GenerationStats], None] | None = None,
) -> RunResult:
    """Full search: from generation 0, record each generation, then step to the next.

    ``stop_gamma`` ends the run early once the best score reaches it (the
    recorded history is still complete up to that generation); it must be
    finite and > 0 (``check_stop_gamma``). Deterministic for a fixed config: all
    stochastic operators share one seeded stream.
    """
    check_stop_gamma(stop_gamma)
    rng = np.random.default_rng(config.seed)
    cache = ScoreCache(config.N)
    t0 = time.perf_counter()
    history: list[GenerationStats] = []
    best_code, best_gamma = None, -math.inf

    pop = evaluate(init_population(config, rng), cache)
    for k in range(config.N_G + 1):
        if k:
            pop = step_generation(pop, config, cache, rng)
        idx = int(np.argmax(pop.gammas))
        if best_code is None or pop.gammas[idx] > best_gamma:
            best_gamma = float(pop.gammas[idx])
            best_code = unpack_codes(pop.words[idx : idx + 1], config.N)[0]
        history.append(_population_stats(k, pop, len(cache), t0))
        if on_generation:
            on_generation(history[-1])
        if stop_gamma is not None and best_gamma >= stop_gamma:
            break

    return RunResult(
        best_code=best_code,
        best_gamma=best_gamma,
        history=history,
        total_visited_states=len(cache),
        total_evaluations=config.P * len(history),
    )


def _checkpoints(budget: int) -> list[int]:
    marks = []
    mark = 1
    while mark < budget:
        marks.append(mark)
        mark *= 10
    marks.append(budget)
    return marks


def random_search(N: int, budget: int, rng: np.random.Generator) -> RunResult:
    """Evaluate ``budget`` uniform random codes; best-so-far at log checkpoints.

    Draws go through the cache, so repeated codes cost nothing and the
    visited-states count stays comparable with the genetic search.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    cache = ScoreCache(N)
    t0 = time.perf_counter()
    history: list[GenerationStats] = []
    best_gamma = float("-inf")
    best_code: PhaseCode | None = None
    gamma_sum = 0.0
    done = 0
    for mark in _checkpoints(budget):
        while done < mark:
            m = min(4096, mark - done)
            codes = random_codes(m, N, rng)
            gammas = score_codes(pack_codes(codes), cache)[0]
            for g in gammas[np.isfinite(gammas)].tolist():
                gamma_sum += g  # sequential, so the logged mean is reproducible
            top = int(np.argmax(gammas))
            if gammas[top] > best_gamma:
                best_gamma = float(gammas[top])
                best_code = codes[top].copy()
            done += m
        history.append(
            GenerationStats(
                k=done,
                best_gamma=best_gamma,
                mean_gamma=gamma_sum / done,
                distinct_members=len(cache),
                visited_states=len(cache),
                elapsed_seconds=time.perf_counter() - t0,
            )
        )
    return RunResult(
        best_code=best_code,
        best_gamma=best_gamma,
        history=history,
        total_visited_states=len(cache),
        total_evaluations=done,
    )
