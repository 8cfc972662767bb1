"""perfbench: the strata benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every repetition runs in a fresh interpreter (``worker.py``) with its own
empty cache directory under ``.perfbench-work/`` and without
``STRATA_CACHE_DIR``, one after another. With ``--trace 0`` repetitions are
started while they fit in ``--seconds`` (at least one) and the end-to-end
metrics are printed; with ``--trace 1`` one plain and one traced repetition
run, the per-layer metrics are printed and the trace is reconciled with the
plain outputs. The last stdout line is one JSON object; a readable summary
goes to stderr. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_ROOT = ROOT / ".perfbench-work"
TIME_LIMIT_S = 170  # a run ends within 180 s
MIN_SETUPS = 9  # set-up samples per run; extra set-up-only repetitions make up the count


class BenchError(RuntimeError):
    """The benchmark itself could not run or its trace did not reconcile."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cache_usage(path: Path | None) -> tuple[int, int]:
    files = [f for f in path.rglob("*") if f.is_file()] if path is not None else []
    return len(files), sum(f.stat().st_size for f in files)


class Run:
    """The repetitions of one workload in one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.setups: list[float] = []
        self.shared_setup_s = 0.0
        self.attempted = self.failed = 0
        self.filled: Path | None = None
        self.count = 0

    def spawn(self, workload: str, cache: Path | None, mode: str, trace: bool) -> dict:
        spec = {"workload": workload, "seed": self.seed, "cache_dir": cache and str(cache),
                "mode": mode, "trace": trace}
        env = {k: v for k, v in os.environ.items() if k != "STRATA_CACHE_DIR"}
        env["PYTHONHASHSEED"] = str(self.seed % 2**32)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time: a run must end within {TIME_LIMIT_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(WORKER), json.dumps(spec)],
                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker did not finish within {TIME_LIMIT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited with code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        if mode == "run":
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            for err in out["errors"]:
                print(f"perfbench: {workload}: {err}", file=sys.stderr)
        return out

    def fill_cache(self) -> None:
        """Warm set-up: run the cold command once into a cache directory."""
        self.filled = self.work / "filled"
        self.filled.mkdir()
        start = time.monotonic()
        self.spawn("flag_g1n6_cold", self.filled, "run", False)
        self.shared_setup_s = time.monotonic() - start

    def rep(self, mode: str, trace: bool = False) -> dict:
        cache = None
        if self.workload.startswith("flag_"):
            self.count += 1
            cache = self.work / f"rep{self.count}"
            if self.filled is not None:
                shutil.copytree(self.filled, cache)
            else:  # the worker asserts that it is still empty before the timed phase
                cache.mkdir()
        start = time.monotonic()
        out = self.spawn(self.workload, cache, mode, trace)
        self.setups.append(out["ready"] - start)
        out["elapsed_s"] = time.monotonic() - start
        out["cache"] = cache
        return out

    def setup_s(self) -> float:
        while len(self.setups) < MIN_SETUPS:
            self.rep("setup")
        return self.shared_setup_s + statistics.median(self.setups)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    reps: list[dict] = []
    spent = 0.0
    while True:  # start another repetition only while it is expected to fit
        reps.append(run.rep("run"))
        spent += reps[-1]["elapsed_s"]
        next_s = spent / len(reps)
        if spent + next_s > seconds or time.monotonic() + 2 * next_s > run.deadline:
            break
    ops = [ms for r in reps for ms in r["ops_ms"]]
    setup_s = run.setup_s()
    print(
        f"perfbench: {run.workload}: {len(reps)} repetitions, {len(ops)} latency samples, "
        f"{len(run.setups)} set-ups",
        file=sys.stderr,
    )
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "query_p50_ms": percentile(ops, 0.5),
        "query_p90_ms": percentile(ops, 0.9),
    }


def per_layer(run: Run) -> dict[str, float]:
    plain = run.rep("run")
    traced = run.rep("run", trace=True)
    m = dict(traced["trace"])
    files, size = cache_usage(traced["cache"])
    m["enumeration.cache.files"] = files
    m["enumeration.cache.bytes"] = size
    m["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    m["fail_ratio"] = run.failed / run.attempted
    reconcile(run, plain, traced, m)
    return m


def reconcile(run: Run, plain: dict, traced: dict, m: dict[str, float]) -> None:
    """Raise when the trace's counts disagree with the plain outputs."""
    problems = []
    if run.workload == "enum_g5n0":
        levels = {int(k): size for k, size in plain["level_sizes"].items()}
        if traced["level_sizes"] != plain["level_sizes"]:
            problems.append("traced and plain level sizes differ")
    elif run.workload == "flag_g1n6_cold":
        levels = {int(Path(f).stem[1:]): n for f, n in traced["level_files"].items()}
    else:  # nothing is generated in the timed phase
        levels = {}
        if run.filled is not None and cache_usage(traced["cache"]) != cache_usage(run.filled):
            problems.append("the warm run changed the cache directory")
    if m["enumeration.unique_graphs"] != sum(levels.values()):
        problems.append(
            f"enumeration.unique_graphs={m['enumeration.unique_graphs']} but the generated "
            f"levels hold {sum(levels.values())} graphs"
        )
    for k, size in sorted(levels.items()):
        if m.get(f"enumeration.children.yielded.k{k}", 0) < size:
            problems.append(f"enumeration.children.yielded.k{k} is below the level size {size}")
    queries = len(plain["ops_ms"]) if run.workload == "query_g2n5" else 0
    if m["lattice.intersection_components.calls"] != queries:
        problems.append(
            f"lattice.intersection_components.calls={m['lattice.intersection_components.calls']}"
            f" but {queries} queries ran"
        )
    if queries and round(m["lattice.nonempty_ratio"] * queries) != plain["nonempty"]:
        problems.append("lattice.nonempty_ratio disagrees with the plain query results")
    if problems:
        raise BenchError("trace does not reconcile: " + "; ".join(problems))


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        if workload == "flag_g1n6_warm":
            run.fill_cache()
        values = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in metrics}
    if set(values) != names:
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    for m in metrics:
        value = values[m["name"]]
        print(f"perfbench: {workload}: {m['name']} = {value:.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strata" / "__init__.py").is_file():
        print(f"perfbench: no strata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result = run_workload(spec, workload, args.seed, args.seconds, bool(args.trace))
            if args.workload == "all":
                result = {"workload": workload, **result}
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
