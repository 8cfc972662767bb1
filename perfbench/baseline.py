"""Repeat perfbench over seeds and record the baseline.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs ``run.py`` once per seed 0..9 on every workload of ``BENCHMARK.json``
(seeds in the outer loop, so slow drift of the machine spreads over all
workloads), then one traced run per workload at the default seed 0, and ``query_g2n5`` once
more at the held-out seed. For every end-to-end metric it prints and records
the median, the quartiles and their distance as a share of the median (the
spread), next to the metric's bound. The record also names the machine and
the line count of ``src/``. ``--out`` writes a second set elsewhere and
prints how far each of its medians is from the one in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
HELD_OUT_SEED = 1000


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu,
            "src_lines": src_lines}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(RUNS))
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            for name, v in bench(w, seed, seconds, 0).items():
                values[w].setdefault(name, []).append(v)
            latest = ", ".join(f"{n}={vs[-1]:.4g}" for n, vs in values[w].items())
            print(f"seed {seed} {w}: {latest}", flush=True)
    record = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            vs = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            flag = "" if spread < m["bound"] / 3 else "  <-- at least a third of the bound"
            print(f"{w:16} {m['name']:13} median {med:10.4g} {m['unit']:3} spread {spread:.4f}"
                  f" (bound {m['bound']}){flag}")
        record["workloads"][w] = {"end_to_end": rows, "per_layer_seed0": bench(w, 0, seconds, 1)}
    record["held_out"] = {
        "seed": HELD_OUT_SEED,
        "query_g2n5": bench("query_g2n5", HELD_OUT_SEED, seconds, 0),
    }
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    recorded = BENCH_DIR / "baseline.json"
    if out.resolve() != recorded and recorded.is_file():
        first = json.loads(recorded.read_text())["workloads"]
        for w in workloads:
            for m in spec["end_to_end"]:
                was = first[w]["end_to_end"][m["name"]]["median"]
                now = record["workloads"][w]["end_to_end"][m["name"]]["median"]
                print(f"{w:16} {m['name']:13} median {now / was - 1:+.4f} against baseline.json"
                      f" (bound {m['bound']})")


if __name__ == "__main__":
    main()
