"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so no process-wide state of
the program (the ``canonical_key`` cache, ``default_store``) survives from one
repetition to the next::

    python3 -s perfbench/worker.py '{"workload": "enum_g5n0", "seed": 0,
        "cache_dir": null, "mode": "run", "trace": false}'

``mode`` is ``setup`` (set up, report when ready, exit) or ``run`` (also run
the timed phase and check its outputs). With ``trace`` the timed phase runs
under :class:`tracer.Tracer`. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from itertools import combinations
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

ENUM_SIG = (5, 0)
ENUM_LEVELS = range(1, 11)
FLAG_ARGV = ["flag-check", "--g", "1", "--n", "6", "--format", "json", "--cache-dir"]
QUERY_SIG = (2, 5)
QUERY_LEVELS = 3
QUERY_PAIRS = 100
QUERY_TRIPLES = 50


def expected() -> dict:
    """Outputs recorded by ``record_expected.py``."""
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def import_strata():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import strata
    import strata.cli  # noqa: F401  (loads every layer, so the tracer sees them all)

    if SRC not in Path(strata.__file__).resolve().parents:
        raise SystemExit(f"strata was imported from {strata.__file__}, not from {SRC}")
    return strata


# -- query_g2n5 inputs ---------------------------------------------------------


def divisor_descriptions() -> list[tuple]:
    """The boundary divisors of QUERY_SIG, described without canonical keys.

    ``("loop",)`` is the irreducible divisor; ``(a, A)`` is the split with a
    genus-``a`` side carrying marks ``A``, written so that it is not larger
    than the description of its other side. The list order is fixed by the
    descriptions alone, so a change of the key scheme leaves it alone.
    """
    g, n = QUERY_SIG
    marks = range(1, n + 1)
    out: list[tuple] = [("loop",)]
    for a in range(g + 1):
        for size in range(n + 1):
            for A in combinations(marks, size):
                B = tuple(m for m in marks if m not in A)
                if (a == 0 and size < 2) or (a == g and len(B) < 2):
                    continue
                if (a, A) <= (g - a, B):
                    out.append((a, A))
    return out


def divisor_graph(strata, desc: tuple):
    g, n = QUERY_SIG
    if desc == ("loop",):
        return strata.one_vertex(g - 1, n, loops=1)
    a, A = desc
    return strata.two_vertex_divisor(a, A, g - a, tuple(m for m in range(1, n + 1) if m not in A))


def sample_queries(seed: int, num_divisors: int) -> list[tuple[int, ...]]:
    """QUERY_PAIRS pairs and QUERY_TRIPLES triples of divisor indices, in seeded order."""
    rng = random.Random(seed)
    indices = range(num_divisors)
    queries = rng.sample(list(combinations(indices, 2)), QUERY_PAIRS)
    queries += rng.sample(list(combinations(indices, 3)), QUERY_TRIPLES)
    rng.shuffle(queries)
    return queries


def expected_component_counts(num_divisors: int) -> dict[tuple[int, ...], int]:
    """Recorded component count of every pair and triple, keyed by divisor indices."""
    rec = expected()["query_g2n5"]
    table = {}
    for size, digits in ((2, rec["pairs"]), (3, rec["triples"])):
        combos = list(combinations(range(num_divisors), size))
        if len(combos) != len(digits):
            raise SystemExit(
                f"expected.json holds {len(digits)} entries of size {size}, not {len(combos)}"
            )
        table.update(zip(combos, map(int, digits)))
    return table


# -- workloads -----------------------------------------------------------------
#
# Each workload has a set-up (outside the timed phase), a timed phase that
# keeps its outputs and returns its latency samples in ms, and a check that
# returns (attempted, failed, errors). An operation that raises is failed.


def _attempt(op):
    try:
        return op()
    except Exception as exc:  # counted as a failed operation by the check
        return exc


def _timed(op):
    start = time.perf_counter()
    out = _attempt(op)
    return (time.perf_counter() - start) * 1e3, out


class Enum:
    def __init__(self, strata, spec):
        self.store = strata.StratumStore()
        self.sig = strata.GnSignature(*ENUM_SIG)

    def run(self):
        # One latency sample: the whole enumeration is what a user waits for.
        # Each level is still checked, and counted, on its own.
        def levels():
            self.sizes = [_attempt(lambda: len(self.store.level(self.sig, k))) for k in ENUM_LEVELS]

        ms, _ = _timed(levels)
        return [ms]

    def check(self, strata):
        want = expected()["enum_g5n0"]["level_sizes"]
        errors = [
            f"level k={k}: {got!r}, want {w}"
            for k, got, w in zip(ENUM_LEVELS, self.sizes, want)
            if got != w
        ]
        return len(want), len(errors), errors

    def report(self):
        sizes = zip(ENUM_LEVELS, self.sizes)
        return {"level_sizes": {str(k): s for k, s in sizes if isinstance(s, int)}}


def level_files(cache: Path) -> dict[str, object]:
    """Graph count of each ``k<k>.json`` level file under a cache directory.

    Keyed by the file's path relative to ``cache``; a file that cannot be
    read as a level maps to the exception it raised.
    """
    return {
        f.relative_to(cache).as_posix(): _attempt(
            lambda: len(json.loads(f.read_text(encoding="utf-8"))["graphs"])
        )
        for f in sorted(cache.rglob("k*.json"))
    }


class Flag:
    def __init__(self, strata, spec):
        self.cli = strata.cli
        self.cache = Path(spec["cache_dir"])
        self.cold = spec["workload"] == "flag_g1n6_cold"
        self.argv = FLAG_ARGV + [spec["cache_dir"]]

    def run(self):
        if self.cold and any(self.cache.iterdir()):
            raise SystemExit(f"cold cache directory {self.cache} is not empty")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ms, self.code = _timed(lambda: self.cli.main(self.argv))
        self.stdout = buf.getvalue()
        return [ms]

    def check(self, strata):
        # One operation for the verdict and one per level file the run leaves.
        want = expected()["flag_g1n6"]
        self.levels = level_files(self.cache)
        errors = []
        if (self.code, self.stdout) != (want["exit_code"], want["stdout"]):
            errors.append(f"flag-check gave exit {self.code!r} and stdout {self.stdout!r}")
        names = sorted(set(self.levels) | set(want["level_files"]))
        for name in names:
            got, w = self.levels.get(name), want["level_files"].get(name)
            if got != w:
                errors.append(f"cache file {name}: {got!r} graphs, want {w}")
        return 1 + len(names), len(errors), errors

    def report(self):
        return {"level_files": {n: c for n, c in self.levels.items() if isinstance(c, int)}}


class Query:
    def __init__(self, strata, spec):
        self.seed = spec["seed"]
        self.lattice = strata.lattice
        self.store = strata.StratumStore()
        sig = strata.GnSignature(*QUERY_SIG)
        self.store.level(sig, QUERY_LEVELS)
        self.divisors = [divisor_graph(strata, d) for d in divisor_descriptions()]
        self.queries = sample_queries(spec["seed"], len(self.divisors))
        self.sets = [
            strata.divisor_set(sig, [self.divisors[i] for i in q], self.store) for q in self.queries
        ]

    def run(self):
        ops, self.results = [], []
        for S in self.sets:
            ms, report = _timed(lambda: self.lattice.intersection_components(S, self.store))
            ops.append(ms)
            self.results.append(report)
        return ops

    def check(self, strata):
        table = expected_component_counts(len(self.divisors))
        errors = []
        for q, report in zip(self.queries, self.results):
            if isinstance(report, Exception):
                errors.append(f"query {q} raised {report!r}")
                continue
            comps = report.components
            if len(comps) != table[q]:
                errors.append(f"query {q}: {len(comps)} components, want {table[q]}")
            elif not all(strata.is_degeneration(G, self.divisors[i]) for G in comps for i in q):
                errors.append(f"query {q}: a component does not degenerate every divisor")
        # One more operation where the seed's nonempty count is recorded.
        recorded = expected()["query_g2n5"]["nonempty_by_seed"].get(str(self.seed))
        if recorded is not None and self.report()["nonempty"] != recorded:
            errors.append(f"{self.report()['nonempty']} nonempty queries, want {recorded}")
        return len(self.queries) + (recorded is not None), len(errors), errors

    def report(self):
        ok = [r for r in self.results if not isinstance(r, Exception)]
        return {"nonempty": sum(1 for r in ok if r.components)}


WORKLOADS = {"enum_g5n0": Enum, "flag_g1n6_cold": Flag, "flag_g1n6_warm": Flag, "query_g2n5": Query}


def main(spec: dict) -> dict:
    strata = import_strata()
    work = WORKLOADS[spec["workload"]](strata, spec)
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    start = time.perf_counter()
    ops = work.run()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, errors = work.check(strata)
    out = {
        "ready": ready,
        "wall_s": wall,
        "ops_ms": ops,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        **work.report(),
    }
    if tracer is not None:
        out["trace"] = tracer.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
