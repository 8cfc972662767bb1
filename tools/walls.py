"""Cold flag verdicts of cells beyond the benchmark harness's time cap.

Each cell runs ``flag_verdict(GnSignature(g, n), StratumStore())`` with no
cache directory in a fresh interpreter, one cell after another, and prints
one JSON line: the verdict, the wall seconds of that call and the process's
peak resident set (``ru_maxrss``).  ``strata`` is imported from this
checkout's ``src/``.

    python3 tools/walls.py 0,8 1,7
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def cold_verdict(g: int, n: int) -> dict:
    from strata import GnSignature, StratumStore, flag_verdict

    start = time.perf_counter()
    witness = flag_verdict(GnSignature(g, n), StratumStore())
    wall_s = time.perf_counter() - start
    return {
        "g": g,
        "n": n,
        "is_flag": witness is None,
        "wall_s": round(wall_s, 2),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def _cell(text: str) -> tuple[int, int]:
    g, n = text.split(",")
    return int(g), int(n)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cells", nargs="+", type=_cell, metavar="G,N")
    args = parser.parse_args(argv)
    spawn = multiprocessing.get_context("spawn")
    for g, n in args.cells:
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            print(json.dumps(pool.submit(cold_verdict, g, n).result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
