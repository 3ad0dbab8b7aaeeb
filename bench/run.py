"""Benchmark for phasecode: GA searches and brute force through the CLI, checked by an oracle.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--threads T]

Each round runs ``phasecode.cli.main`` for the workload in a fresh
interpreter (``child.py``) and checks the artifacts it writes against
``oracle.py`` and against properties the method must have. Rounds repeat
until the next one would end after ``--seconds``. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics (medians over
rounds); with ``--trace 1`` it holds the per-layer metrics of traced rounds,
which alternate with untraced rounds that give the tracing overhead. The line
before it records the environment. Artifacts and a full result record go
to ``.bench_out/`` at the root of the repository.
"""

from __future__ import annotations

import os

# Children get the user's environment as it is: default BLAS threading is what
# users run. The parent only checks outputs; one BLAS thread keeps it from
# competing with a measured child.
USER_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from tracer import SELF_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

P, E, M, P_MUTA, P_CONV = 10_000, 2_000, 5, 0.3, 0.3  # the published hyperparameters
BRUTE_FORCE_BATCH = 8192  # codes per enumeration step of ``brute_force_best``: its "generation"
BRUTE_FORCE_SAMPLE = 4096  # oracle-scored random codes the brute-force optimum must beat
SETUP_REPS = 5
REL_TOL = 1e-9
DEADLINE_S = 165.0  # the whole run ends well inside 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    generations: int = 0  # 0 marks brute force

    @property
    def search(self) -> bool:
        return self.generations > 0

    def argv(self, seed: int, out: Path, threads: int | None) -> list[str]:
        if self.search:
            argv = ["search", "--N", self.N, "--N_G", self.generations, "--P", P, "--E", E,
                    "--M", M, "--p_muta", P_MUTA, "--p_conv", P_CONV, "--seed", seed,
                    "--run-id", "bench"]
        else:
            argv = ["bruteforce", self.N]
        argv += ["--out", out]
        if threads is not None:
            argv += ["--threads", threads]
        return [str(a) for a in argv]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-n59", 59, generations=4),
        Workload("search-n100", 100, generations=1),
        Workload("search-n16", 16, generations=60),
        Workload("bruteforce-n20", 20),
    )
}

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": USER_ENV.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def child_env() -> dict:
    env = dict(USER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env: dict) -> float:
    """Median time for a fresh interpreter to import phasecode and build the CLI parser."""
    cmd = [sys.executable, "-c", "import phasecode.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, check=True)  # compiles bytecode once, untimed
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def read_result(path: Path) -> dict:
    meta = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


def check_code(meta: dict, N: int) -> tuple[list[str], np.ndarray, float]:
    """The best code is bipolar of length N, and its gamma agrees with the oracle."""
    code = oracle.parse_code(meta["code"])
    gamma = float(meta["gamma"])
    problems = []
    if code.size != N or not np.all(np.abs(code) == 1):
        problems.append(f"best code is not a bipolar length-{N} code: {meta['code']}")
        return problems, code, gamma
    want, lag_sum = (float(v[0]) for v in oracle.score(code))
    if not abs(gamma - want) <= REL_TOL * abs(want):
        problems.append(f"gamma {gamma!r} disagrees with the oracle's {want!r}")
    if not abs(lag_sum - want) <= REL_TOL * abs(want):
        problems.append(f"lag-sum SCR {lag_sum!r} of x = R^-1 s differs from gamma {want!r}")
    return problems, code, gamma


def check_search(w: Workload, out: Path, optimum: float | None) -> tuple[list[str], dict]:
    meta = read_result(out / "bench.result.txt")
    problems, code, gamma = check_code(meta, w.N)
    with open(out / "bench.log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ks = [int(r["k"]) for r in rows]
    best = [float(r["best_gamma"]) for r in rows]
    visited = [int(r["visited_states"]) for r in rows]
    elapsed = [float(r["elapsed_seconds"]) for r in rows]
    if ks != list(range(w.generations + 1)):
        problems.append(f"log.csv holds generations {ks[:3]}..{ks[-3:]}, not 0..{w.generations}")
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append("best_gamma decreases in log.csv (elitism broken)")
    if any(b < a for a, b in zip(visited, visited[1:])):
        problems.append("visited_states decreases in log.csv")
    if any(v > (k + 1) * P for k, v in zip(ks, visited)):
        problems.append("visited_states exceeds (k+1)*P in log.csv")
    if best[-1] != gamma or visited[-1] != int(meta["visited_states"]):
        problems.append("last log.csv row disagrees with result.txt")
    if optimum is not None and gamma > optimum * (1 + REL_TOL):
        problems.append(f"best gamma {gamma!r} beats the exact optimum {optimum!r}")
    visited_total = int(meta["visited_states"])
    return problems, {
        "best_gamma": gamma,
        "code": meta["code"],
        "visited": visited_total,
        "hits": int(meta["total_evaluations"]) - visited_total,
        "distinct_members": int(rows[-1]["distinct_members"]),
        "gen_times": list(np.diff(elapsed)),
    }


def check_bruteforce(w: Workload, out: Path, sample_best: float) -> tuple[list[str], dict]:
    meta = read_result(out / f"bruteforce_N{w.N}.result.txt")
    problems, code, gamma = check_code(meta, w.N)
    if sample_best > gamma * (1 + REL_TOL):
        problems.append(f"a sampled code scores {sample_best!r}, above the optimum {gamma!r}")
    if tuple(code) > tuple(-code):
        problems.append("the optimum is lexicographically larger than its negation")
    return problems, {"best_gamma": gamma, "code": meta["code"]}


def run_round(w, seed, trace, out, env, threads, timeout) -> dict:
    out.mkdir(parents=True)
    record_path = out / "record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), "1" if trace else "0",
           *w.argv(seed, out, threads)]
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        try:
            subprocess.run(cmd, env=env, stdout=so, stderr=se, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failed": f"timed out after {timeout:.0f} s", "trace": trace}
    if not record_path.exists():
        return {"failed": (out / "stderr.txt").read_text()[-2000:], "trace": trace}
    record = json.loads(record_path.read_text())
    record["trace"] = trace
    if record["rc"] != 0:
        record["failed"] = f"exit code {record['rc']}: " + (out / "stderr.txt").read_text()[-2000:]
    return record


def end_to_end(w: Workload, rounds: list[dict], setup_s: float) -> dict:
    walls = [r["wall_s"] for r in rounds]
    if w.search:
        gen_s = statistics.median(t for r in rounds for t in r["gen_times"])
        codes_per_s = statistics.median(r["visited"] / r["wall_s"] for r in rounds)
    else:
        enumerated = 1 << (w.N - 1)
        gen_s = statistics.median(wall * BRUTE_FORCE_BATCH / enumerated for wall in walls)
        codes_per_s = statistics.median(enumerated / wall for wall in walls)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "gen_s": (gen_s, "s"),
        "codes_per_s": (codes_per_s, "codes/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "best_gamma": (rounds[0]["best_gamma"], "SCR"),
    }


def per_layer(rounds: list[dict], untraced_wall: float) -> dict:
    traced = [r for r in rounds if r["trace"]]
    names = sorted(traced[0]["layers"])
    layers = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    wall = statistics.median(r["wall_s"] for r in traced)
    self_sum = statistics.median(
        sum(r["layers"][m] for m in SELF_METRICS.values()) / r["wall_s"] for r in traced)
    metrics = {n: (v, "s" if n.endswith("_s") else "count") for n, v in layers.items()}
    hits = statistics.median(r.get("hits", 0) for r in traced)
    misses = statistics.median(r.get("visited", 0) for r in traced)
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["ga.distinct_members"] = (
        statistics.median(r.get("distinct_members", 0) for r in traced), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "ratio")
    metrics["trace.self_sum_frac"] = (self_sum, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="pass --threads to the CLI (default: the CLI's own default)")
    args = parser.parse_args()
    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    if not (SRC / "phasecode" / "cli.py").is_file():
        print(f"error: no phasecode sources under {SRC}", file=sys.stderr)
        return 2
    oracle_problems = oracle.check_published()
    if oracle_problems:
        print("error: the oracle fails on the published codes: " + "; ".join(oracle_problems),
              file=sys.stderr)
        return 2
    env = child_env()
    env_record = environment()
    setup_s = measure_setup(env)
    optimum = oracle.exact_optimum(w.N) if w.search and w.N <= 16 else None
    sample_best = 0.0
    if not w.search:
        rng = np.random.default_rng(args.seed)
        sample_best = float(np.nanmax(oracle.score(rng.choice([-1.0, 1.0], (BRUTE_FORCE_SAMPLE, w.N)))[0]))

    run_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds, durations, problems = [], [], []
    window = time.perf_counter()
    while True:
        round_trace = trace and len(rounds) % 2 == 1  # traced runs alternate, untraced first
        t0 = time.perf_counter()
        timeout = DEADLINE_S - (t0 - started)
        out = run_dir / f"round{len(rounds)}"
        record = run_round(w, args.seed, round_trace, out, env, args.threads, timeout)
        if "failed" not in record:
            found, values = (check_search(w, out, optimum) if w.search
                             else check_bruteforce(w, out, sample_best))
            record.update(values)
            problems += [f"round {len(rounds)}: {p}" for p in found]
            first = next((r for r in rounds if "failed" not in r), record)
            if (values["best_gamma"], values["code"]) != (first["best_gamma"], first["code"]):
                problems.append(f"round {len(rounds)}: a rerun with the same seed gave another best code")
        rounds.append(record)
        durations.append(time.perf_counter() - t0)
        now = time.perf_counter()
        typical = statistics.median(durations)
        if now - started + typical > DEADLINE_S:
            break
        if now - window + typical > args.seconds and (not trace or len(rounds) >= 2):
            break

    done = [r for r in rounds if "failed" not in r]
    untraced = [r for r in done if not r["trace"]]
    if not untraced or (trace and len(untraced) == len(done)):
        for r in rounds:
            print(f"round failed: {r.get('failed')}", file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(done, statistics.median(r["wall_s"] for r in untraced))
    else:
        metrics = end_to_end(w, done, setup_s)
    result = {
        "correct": not problems,
        "attempted": len(rounds),
        "failed": len(rounds) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(
        {"workload": w.name, "seed": args.seed, "environment": env_record, "problems": problems,
         "rounds": rounds, **result}, indent=1, default=str))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
