"""Record the outputs perfbench checks against into ``expected.json``.

    python3 perfbench/record_expected.py

Run it only when a change of the program's results is intended. It records:
the (5,0) level sizes for k = 1..10; the exact stdout and exit code of the
(1,6) flag check, with the graph count of each level file it writes into an
empty cache directory; and the number of intersection components of every pair
and triple of (2,5) divisors, as one digit per divisor set in
``itertools.combinations`` order over the divisor descriptions of
``worker.divisor_descriptions``, with the nonempty-query count of the seeds
the baseline uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from itertools import combinations
from pathlib import Path

import worker

SEEDS = list(range(10)) + [1000]  # the ten baseline seeds and the held-out seed


def main() -> None:
    strata = worker.import_strata()
    out: dict = {}

    store = strata.StratumStore()
    sig = strata.GnSignature(*worker.ENUM_SIG)
    out["enum_g5n0"] = {"level_sizes": [len(store.level(sig, k)) for k in worker.ENUM_LEVELS]}

    work = worker.BENCH_DIR.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(dir=work)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = strata.cli.main(worker.FLAG_ARGV + [cache])
        levels = worker.level_files(Path(cache))
    finally:
        shutil.rmtree(cache)
        if not any(work.iterdir()):
            work.rmdir()
    out["flag_g1n6"] = {"exit_code": code, "stdout": buf.getvalue(), "level_files": levels}

    store = strata.StratumStore()
    sig = strata.GnSignature(*worker.QUERY_SIG)
    descs = worker.divisor_descriptions()
    index = {strata.canonical_key(worker.divisor_graph(strata, d)): i for i, d in enumerate(descs)}
    counts: dict[tuple[int, ...], int] = {}
    for k in (2, 3):
        for G in store.level(sig, k):
            support = G.delta_support()
            if len(support) == k:
                q = tuple(sorted(index[key] for key in support))
                counts[q] = counts.get(q, 0) + 1
    if max(counts.values()) > 9:
        raise SystemExit("a divisor set has more than 9 components; widen the encoding")
    table = {}
    for size, name in ((2, "pairs"), (3, "triples")):
        table[name] = "".join(str(counts.get(q, 0)) for q in combinations(range(len(descs)), size))
    out["query_g2n5"] = {
        "nonempty_by_seed": {
            str(seed): sum(counts.get(q, 0) > 0 for q in worker.sample_queries(seed, len(descs)))
            for seed in SEEDS
        },
        **table,
    }
    path = worker.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
