"""Command-line front end: search runs, sweeps, studies, and calculators.

Every experiment writes flat files under --out: a per-generation run log
CSV (fixed header, deterministic body for a fixed config and seed), a
plot-data CSV, and a structured-text result record holding the best code,
its SCR, and the config echo. Wall-clock timings and environment notes
live in the result record, never in the plot data.

Exit codes: 0 success, 1 config/parse error, 2 I/O error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import baselines, echo, ga
from .codes import format_code, lag_responses, lag_values, parse_code
from .fitness import matched_filter_scr, optimal_filter, scoring_cpus, scr
from .ga import GaConfig, GenerationStats, RunResult

RUN_LOG_HEADER = [
    "run_id",
    "seed",
    "k",
    "best_gamma",
    "mean_gamma",
    "distinct_members",
    "visited_states",
    "elapsed_seconds",
]

# Every GaConfig field with the type of its default (int, float or str):
# one --flag, one config-file key and one study variable per entry.
_SCALAR_FIELDS = {f.name: type(f.default) for f in fields(GaConfig)}
# Study variable names kept from the paper's notation.
_STUDY_ALIASES = {"tournament_M": "M", "elite_E": "E"}
_MAX_SWEEP_N = 256


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit code 1)."""

    def error(self, message):
        raise ValueError(message)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _mix64(value: int) -> int:
    """splitmix64 finalizer; decorrelates sweep seeds derived per N."""
    z = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_sweep_seed(seed: int, N: int) -> int:
    return (seed ^ _mix64(N)) & 0x7FFFFFFFFFFFFFFF


def _parse_field(name: str, text: str):
    """A GaConfig field's value, parsed as the type of its default."""
    kind = _SCALAR_FIELDS[name]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {kind.__name__}, got {text!r}") from None


def _load_config_file(path: str) -> tuple[dict, dict]:
    """Flat key=value config text; '#' starts a comment.

    Returns each key's value and the number of the line that set it.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCALAR_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_field(key, val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        lines[key] = lineno
    return values, lines


def _build_ga_config(args, **overrides) -> GaConfig:
    """GaConfig from defaults, then --config, then flags, then ``overrides``.

    A rejected config names the --config line of the first field its failed
    check reads that took its value from the file.
    """
    values, lines = _load_config_file(args.config) if args.config else ({}, {})
    flags = {name: getattr(args, name) for name in _SCALAR_FIELDS
             if getattr(args, name) is not None}
    for name in [*flags, *overrides]:
        lines.pop(name, None)
    values.update(flags, **overrides)
    try:
        return GaConfig(**values)
    except ga.ConfigError as exc:
        from_file = [lines[name] for name in exc.fields if name in lines]
        if not from_file:
            raise
        raise ValueError(f"{args.config}:{from_file[0]}: {exc}") from None


def _add_ga_flags(parser) -> None:
    """The flags ``search``, ``sweep`` and ``study`` share: --config, one
    flag per GaConfig field, --out and --stop-gamma."""
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(GaConfig):
        parser.add_argument(f"--{f.name}", type=_SCALAR_FIELDS[f.name],
                            help=f.metadata["help"])
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--stop-gamma", type=float, default=None,
                        help="stop early once best gamma reaches this value (finite, > 0)")


def _read_code_arg(args):
    if args.file:
        for line in Path(args.file).read_text().splitlines():
            if line.strip():
                return parse_code(line)
        raise ValueError(f"no code found in {args.file}")
    if args.code:
        try:
            return baselines.known_code(args.code).code
        except KeyError:
            return parse_code(args.code)
    raise ValueError("provide a code string, a registry name, or --file")


@contextmanager
def _atomic_open(path: Path):
    """Text file handle on a temp file beside ``path``, moved over ``path`` once written.

    Makes the parent directory if it is missing. A writer that raises leaves
    ``path`` as it was and deletes the temp file. A process killed partway
    leaves ``path`` whole, old or new, and may leave the temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far in MiB, NaN without ``getrusage``."""
    try:
        import resource
    except ImportError:  # not on Windows
        return float("nan")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _run_block(elapsed_seconds: float) -> dict:
    """The lines every command's result record ends with: its wall time, peak
    RSS, CPUs, creation time and versions."""
    return {
        "elapsed_seconds_total": f"{elapsed_seconds:.6f}",
        "peak_rss_mb": f"{_peak_rss_mb():.1f}",
        "cpus": scoring_cpus(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` then ``rows``, formatted one row at a time as written."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _log_rows(run_id: str, seed: int, history: list[GenerationStats]):
    """The ``RUN_LOG_HEADER`` rows of ``history``, one per generation or checkpoint."""
    return ([run_id, seed, st.k, _fmt(st.best_gamma), _fmt(st.mean_gamma),
             st.distinct_members, st.visited_states, f"{st.elapsed_seconds:.6f}"]
            for st in history)


def _write_result(path: Path, meta: dict, code, elapsed_seconds: float) -> None:
    """Write ``meta``, then the run block, then ``code`` as ``key = value`` lines."""
    lines = [f"{key} = {value}"
             for key, value in {**meta, **_run_block(elapsed_seconds)}.items()]
    lines.append(f"code = {format_code(code)}")
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _run_all(args, runs: list[tuple[str, GaConfig]]) -> list[RunResult]:
    """Run each ``(run_id, config)`` and write its .log.csv, .plot.csv and .result.txt.

    --stop-gamma is checked and --out made once, before the first run. A
    command with --verbose prints one stderr line per generation.
    """
    ga.check_stop_gamma(args.stop_gamma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for run_id, config in runs:
        def progress(st: GenerationStats) -> None:
            print(f"[{run_id}] k={st.k} best={st.best_gamma:.4f} "
                  f"visited={st.visited_states}", file=sys.stderr)

        result = ga.run(config, stop_gamma=args.stop_gamma,
                        on_generation=progress if getattr(args, "verbose", False) else None)
        _write_csv(out / f"{run_id}.log.csv", RUN_LOG_HEADER,
                   _log_rows(run_id, config.seed, result.history))
        _write_csv(out / f"{run_id}.plot.csv", ["generation", "visited_states", "best_gamma"],
                   ([st.k, st.visited_states, _fmt(st.best_gamma)] for st in result.history))
        # Config echo in field order, with N and seed up front beside the run id.
        echo = {name: getattr(config, name) for name in _SCALAR_FIELDS}
        meta = {
            "run_id": run_id,
            "mode": "search",
            "N": echo.pop("N"),
            "seed": echo.pop("seed"),
            "gamma": _fmt(result.best_gamma),
            "visited_states": result.total_visited_states,
            "total_evaluations": result.total_evaluations,
            "generations_run": result.history[-1].k,
            **echo,
            "cache_hit_rate": f"{1 - result.total_visited_states / result.total_evaluations:.6f}",
        }
        _write_result(out / f"{run_id}.result.txt", meta, result.best_code,
                      result.history[-1].elapsed_seconds)
        print(
            f"{run_id}: best gamma {result.best_gamma:.4f} after "
            f"{result.history[-1].k} generations, "
            f"{result.total_visited_states} visited states"
        )
        results.append(result)
    return results


def cmd_search(args) -> int:
    config = _build_ga_config(args)
    _run_all(args, [(args.run_id or f"search_N{config.N}_seed{config.seed}", config)])
    return 0


def cmd_eval(args) -> int:
    code = _read_code_arg(args)
    n = len(code)
    x = optimal_filter(code)
    print(f"N = {n}")
    if x is None:
        print("gamma = undefined (singular clutter matrix)")
        return 0
    best = scr(code, x)
    mf = matched_filter_scr(code)
    print(f"gamma (optimal mismatched filter) = {best:.6f}")
    print(f"gamma (matched filter) = {mf:.6f}")
    print("optimal filter x*:")
    for lo in range(0, n, 8):
        vals = ", ".join(f"{v: .6f}" for v in x[lo : lo + 8])
        print(f"  {vals}")
    print("squared lag responses (x . shifted(s, i))^2:")
    for lag, r in zip(lag_values(n), lag_responses(code, x)):
        print(f"  lag {int(lag):+d}: {r * r:.6e}")
    return 0


def cmd_sweep(args) -> int:
    if not 2 <= args.lo <= args.hi <= _MAX_SWEEP_N:
        raise ValueError(
            f"sweep range must satisfy 2 <= lo <= hi <= {_MAX_SWEEP_N}, "
            f"got [{args.lo}, {args.hi}]"
        )
    # --seed, else the config file's seed, else the GaConfig default.
    base_seed = _build_ga_config(args, N=args.lo).seed
    # Every length's config is built, and so checked, before the first run starts.
    configs = [_build_ga_config(args, N=n, seed=derive_sweep_seed(base_seed, n))
               for n in range(args.lo, args.hi + 1)]
    results = _run_all(args, [(f"search_N{c.N}_seed{c.seed}", c) for c in configs])
    path = Path(args.out) / "sweep.csv"
    _write_csv(path, ["N", "best_gamma", "visited_states"],
               ((c.N, _fmt(r.best_gamma), r.total_visited_states)
                for c, r in zip(configs, results)))
    print(f"sweep complete: {len(results)} rows -> {path}")
    return 0


def cmd_study(args) -> int:
    name = _STUDY_ALIASES.get(args.variable, args.variable)
    # Every value's config is built, and so checked, before the first run starts.
    configs = [_build_ga_config(args, **{name: _parse_field(name, value)})
               for value in args.values]
    for i, config in enumerate(configs):
        if config in configs[:i]:  # values that parse equal, such as 0.3 and 0.30
            raise ValueError(f"study value {args.values[i]!r} repeats "
                             f"{name} = {getattr(config, name)!r}")
    _run_all(args, [(f"study_{args.variable}_{value}_seed{config.seed}", config)
                    for value, config in zip(args.values, configs)])
    return 0


def cmd_bruteforce(args) -> int:
    t0 = time.perf_counter()
    # The work runs first, so a bad N raises before --out is made.
    code, gamma = baselines.brute_force_best(args.N)
    _write_result(Path(args.out) / f"bruteforce_N{args.N}.result.txt",
                  {"mode": "bruteforce", "N": args.N, "gamma": _fmt(gamma)},
                  code, time.perf_counter() - t0)
    print(f"N={args.N}: optimal gamma {gamma:.6f}, code {format_code(code)}")
    return 0


def cmd_randomsearch(args) -> int:
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    # The work runs first, so a bad N or budget raises before --out is made.
    result = ga.random_search(args.N, args.budget, rng)
    out = Path(args.out)
    run_id = f"randomsearch_N{args.N}_seed{args.seed}"
    _write_csv(out / f"{run_id}.log.csv", RUN_LOG_HEADER,
               _log_rows(run_id, args.seed, result.history))
    _write_result(
        out / f"{run_id}.result.txt",
        {
            "run_id": run_id,
            "mode": "randomsearch",
            "N": args.N,
            "seed": args.seed,
            "budget": args.budget,
            "gamma": _fmt(result.best_gamma),
            "visited_states": result.total_visited_states,
        },
        result.best_code,
        time.perf_counter() - t0,
    )
    print(f"{run_id}: best gamma {result.best_gamma:.4f}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    code = _read_code_arg(args)
    if args.filter == "matched":
        x = np.asarray(code, dtype=float)
        analytic = matched_filter_scr(code)
    else:
        x = optimal_filter(code)
        if x is None:
            raise RuntimeError("clutter matrix is singular; no optimal filter")
        analytic = float(np.asarray(code, dtype=float) @ x)  # ``fitness``, on this x
    rng = np.random.default_rng(args.seed)
    estimate = echo.empirical_sir(
        code, x, args.trials, rng, distribution=args.distribution
    )
    rel = abs(estimate - analytic) / analytic if analytic else float("nan")
    print(f"N = {len(code)}")
    print(f"filter = {args.filter}")
    print(f"trials = {args.trials}")
    print(f"analytic gamma = {analytic:.6f}")
    print(f"empirical SIR = {estimate:.6f}")
    print(f"relative error = {rel:.4%}")
    if args.out:
        _write_result(
            Path(args.out) / f"simulate_N{len(code)}_seed{args.seed}.result.txt",
            {
                "mode": "simulate",
                "N": len(code),
                "seed": args.seed,
                "trials": args.trials,
                "filter": args.filter,
                "distribution": args.distribution,
                "analytic_gamma": _fmt(analytic),
                "empirical_sir": _fmt(estimate),
            },
            code,
            time.perf_counter() - t0,
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="phasecode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the genetic search")
    _add_ga_flags(p)
    p.add_argument("--run-id", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="score a code and print its optimal filter")
    p.add_argument("code", nargs="?", help="code text or registry name")
    p.add_argument("--file", help="file holding one code per line (first is used)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="search across a range of code lengths")
    _add_ga_flags(p)
    p.add_argument("lo", type=int)
    p.add_argument("hi", type=int)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("study", help="hyperparameter study with shared seeds")
    _add_ga_flags(p)
    p.add_argument("--variable", required=True, choices=[*_STUDY_ALIASES, *_SCALAR_FIELDS],
                   help="tournament_M (alias of M), elite_E (alias of E), "
                        "or any GaConfig field")
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("bruteforce", help="exact optimum by exhaustive enumeration")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("randomsearch", help="uniform random search baseline")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("N", type=int)
    p.add_argument("budget", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_randomsearch)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the analytic SCR")
    p.add_argument("code", nargs="?", help="code text or registry name")
    p.add_argument("--file", help="file holding one code per line")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--filter", choices=["optimal", "matched"], default="optimal")
    p.add_argument("--distribution", choices=["gaussian", "uniform"],
                   default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        # A MemoryError here is a size the config asked for (say a huge P).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
