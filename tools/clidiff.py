"""Byte-for-byte comparison of the ``strata`` CLI between two checkouts.

Runs one fixed list of 309 invocations against ``OLD/src`` and ``NEW/src``,
each in a fresh interpreter with ``STRATA_CACHE_DIR`` unset (older checkouts
read it) and its own empty working directory holding the fixture files the
error cases read.  Exit code, stdout, stderr and the files the invocation
leaves in that directory (each by relative path and sha256, so level files
written to a cache directory count) are compared; ``verify`` timings and the
checkout's own path (which shows in tracebacks) are masked first.
Each difference is printed, and the exit code is 1 if there is any.
Standard library only.

    python3 tools/clidiff.py OLD NEW

The list covers ``enumerate`` at every k in every format, ``complex`` full
and to ``--max-dim 2`` in every format, ``flag-check``, ``witness`` and
``verify`` in text and json, and ``intersect`` in every format on pairs of
the first four divisors, on the cells below; ``enumerate --g 4 --n 0`` json
at every k (legless graphs, rich in loops and parallel edges);
``flag-check`` and ``witness`` in text and json at (0,4) and (1,1), below
dimension 2; ``paper-suite`` in text and json; ``flag-check --g 1 --n 4``
and ``enumerate --g 2 --n 3 --k 4`` in json, each writing its levels to the
new cache directory ``fresh``;
``complex --g 1 --n 6`` json, a large complex (945 facets of six divisors),
and ``complex --g 0 --n 8`` json, a larger one (10,395 facets);
and the error cases of ``tests/test_cli.py``, among them ``intersect`` with
only one of ``--g``/``--n`` given against files of another signature,
``intersect`` on a multi-edge graph that is no divisor (a genus-0 centre
with eight genus-1 leaves), ``flag-check`` on a cache directory that cannot
be written and on one whose name is too long to read (``ENAMETOOLONG``),
``complex --max-dim 1`` with a budget below the divisor count, and at
(0,2000), whose divisor count alone exceeds the default budget,
``enumerate --g 1 --n 4 --k 3 --max-graphs 20`` (a generated level over
budget), ``verify --g 0 --n 4:5 --max-graphs 3`` in text and json, with and
without ``--skip-over-budget`` (one cell in budget, one skipped), and
``--format dot`` on each command that does not render graphs.
Divisor keys are read from OLD's ``complex`` output, so both sides get the
same arguments.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from itertools import combinations
from pathlib import Path

CELLS = ((2, 2), (2, 3), (1, 4), (3, 2), (0, 6))
FORMATS = ("text", "json", "dot")


def _graph(genus, edges, legs) -> str:
    """A ``dualgraph/1`` file body; ``legs[m - 1]`` is the vertex of mark m."""
    return json.dumps({
        "schema": "dualgraph/1",
        "genus": genus,
        "edges": edges,
        "legs": {str(m + 1): v for m, v in enumerate(legs)},
    })


# Relative paths under each invocation's working directory.
FIXTURES = {
    "loop22.json": _graph([1], [[0, 0]], [0, 0]),
    "loop23.json": _graph([1], [[0, 0]], [0, 0, 0]),
    "d0.json": _graph([2, 1], [[0, 1]], [1, 1]),
    "d1.json": _graph([2, 1], [[0, 1]], [0, 1]),
    "d2.json": _graph([2, 1], [[0, 1]], [1, 0]),
    "no_edges.json": json.dumps({"schema": "dualgraph/1", "genus": [1], "legs": {"1": 0, "2": 0}}),
    "bad_genus.json": json.dumps({"schema": "dualgraph/1", "genus": 5, "edges": [], "legs": {}}),
    "deep.json": "[" * 200_000,
    # A genus-0 centre with eight genus-1 leaves: no divisor, and slow to key.
    "star8.json": _graph([0] + [1] * 8, [[0, v] for v in range(1, 9)], []),
    "nested/g1n4/k1.json": "[" * 200_000,
    # Cache dirs that cannot be written: a file where a signature's directory
    # goes, and a directory where a level file goes.
    "file_at_sig/g1n3": "",
    "dir_at_level/g1n3/k1.json/keep": "",
}


def _dim(g: int, n: int) -> int:
    return 3 * g - 3 + n


def run(checkout: Path, argv: list[str]) -> tuple[int, str, str, tuple[tuple[str, str], ...]]:
    """One invocation of ``strata.cli`` from ``checkout/src`` in a fresh working directory.

    Returns the exit code, stdout, stderr and, for each file left in that
    directory, its relative path and sha256.
    """
    env = {k: v for k, v in os.environ.items() if k != "STRATA_CACHE_DIR"}
    env["PYTHONPATH"] = str(checkout / "src")
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in FIXTURES.items():
            path = Path(cwd, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "strata.cli", *argv],
            capture_output=True, text=True, cwd=cwd, env=env,
        )
        files = tuple(
            (path.relative_to(cwd).as_posix(), sha256(path.read_bytes()).hexdigest())
            for path in sorted(Path(cwd).rglob("*"))
            if path.is_file()
        )
    out, err = result.stdout, result.stderr
    if argv[0] == "verify":
        out = re.sub(r'"seconds":[0-9.]+', '"seconds":T', out)
        out = re.sub(r"\b\d+\.\d\ds\b", "T.TTs", out)
    src = str(checkout.resolve() / "src")
    return result.returncode, out.replace(src, "<src>"), err.replace(src, "<src>"), files


def invocations(old: Path) -> list[list[str]]:
    keys = {}
    for g, n in CELLS:
        code, out, err, _ = run(old, ["complex", "--g", str(g), "--n", str(n), "--format", "json"])
        if code != 0:
            sys.exit(f"OLD complex ({g},{n}) failed with exit {code}: {err}")
        keys[g, n] = json.loads(out)["vertices"]
    code, out, _, _ = run(old, ["enumerate", "--g", "2", "--n", "2", "--k", "2"])
    not_divisor = out.split()[0]

    calls = []
    for g, n in CELLS:
        sig = ["--g", str(g), "--n", str(n)]
        for k in range(1, _dim(g, n) + 1):
            calls += [["enumerate", *sig, "--k", str(k), "--format", f] for f in FORMATS]
        for depth in ([], ["--max-dim", "2"]):
            calls += [["complex", *sig, *depth, "--format", f] for f in FORMATS]
        for command in ("flag-check", "witness", "verify"):
            calls += [[command, *sig, "--format", f] for f in ("text", "json")]
        for a, b in combinations(keys[g, n][:4], 2):
            calls += [["intersect", *sig, "--format", f, a, b] for f in FORMATS]
    # (4,0) has no legs: its vertices carry only loops and edges, many of them parallel.
    calls += [
        ["enumerate", "--g", "4", "--n", "0", "--k", str(k), "--format", "json"] for k in range(1, 10)
    ]
    # Below dimension 2 the flag walk has no edges to start from.
    calls += [
        [command, "--g", g, "--n", n, "--format", f]
        for command in ("flag-check", "witness")
        for g, n in (("0", "4"), ("1", "1"))
        for f in ("text", "json")
    ]
    calls += [["paper-suite", "--format", f] for f in ("text", "json")]
    calls.append(["complex", "--g", "1", "--n", "6", "--format", "json"])
    calls.append(["complex", "--g", "0", "--n", "8", "--format", "json"])
    # Level files written to an empty cache directory.
    calls += [
        ["flag-check", "--g", "1", "--n", "4", "--format", "json", "--cache-dir", "fresh"],
        ["enumerate", "--g", "2", "--n", "3", "--k", "4", "--format", "json",
         "--cache-dir", "fresh"],
    ]

    # The error and edge cases of tests/test_cli.py.
    for f in ("text", "json"):
        calls += [
            ["enumerate", "--g", "0", "--n", "2", "--k", "1", "--format", f],
            ["enumerate", "--g", "1", "--n", "1", "--k", "1", "--max-graphs", "0", "--format", f],
            ["enumerate", "--g", "1", "--n", "4", "--k", "3", "--max-graphs", "20", "--format", f],
            ["intersect", "--format", f, "loop22.json", "no_edges.json"],
            ["intersect", "--format", f, "loop22.json", "bad_genus.json"],
            ["intersect", "--format", f, "deep.json"],
            ["intersect", "--format", f, "star8.json"],
            ["intersect", "--g", "7", "--format", f, "d0.json", "d1.json"],
            ["intersect", "--n", "9", "--format", f, "d0.json", "d1.json"],
            ["verify", "--g", "3:1", "--n", "2", "--format", f],
            ["verify", "--g", "0", "--n", "0:2", "--format", f],
            ["flag-check", "--g", "1", "--n", "3", "--format", f, "--cache-dir", "file_at_sig"],
            ["flag-check", "--g", "1", "--n", "3", "--format", f, "--cache-dir", "dir_at_level"],
            ["flag-check", "--g", "1", "--n", "3", "--format", f, "--cache-dir", "x" * 300],
        ]
    calls += [
        ["enumerate", "--g", "0", "--n", "5", "--k", "1", "--max-graphs", "3"],
        ["enumerate", "--g", "1", "--n", "1", "--k", "1", "--threads", "2"],
        ["intersect", keys[2, 2][0]],
        ["intersect", "--g", "2", "--n", "2", not_divisor],
        ["intersect", "--g", "2", "--n", "2", keys[2, 2][0]],
        ["intersect", "loop22.json", "loop23.json"],
        ["intersect", "d0.json", "d1.json", "d2.json"],
        ["flag-check", "--g", "2", "--n", "2", "--format", "dot"],
        ["witness", "--g", "2", "--n", "2", "--format", "dot"],
        ["verify", "--g", "2", "--n", "2", "--format", "dot"],
        ["paper-suite", "--format", "dot"],
        ["flag-check", "--g", "1", "--n", "4", "--format", "json", "--cache-dir", "nested"],
        ["verify", "--g", "0", "--n", "5", "--max-graphs", "3"],
        ["verify", "--g", "0", "--n", "5", "--max-graphs", "3", "--skip-over-budget", "--format", "json"],
        ["verify", "--g", "0:1", "--n", "0:4", "--format", "json"],
        ["complex", "--g", "2", "--n", "3", "--max-dim", "9", "--format", "json"],
    ]
    # A budget below the divisor count, on the one command that reads no level.
    calls += [
        ["complex", "--g", "0", "--n", "6", "--max-dim", "1", "--max-graphs", "5", "--format", f]
        for f in ("text", "json")
    ]
    calls += [
        ["complex", "--g", "0", "--n", "2000", "--max-dim", "1", "--format", f]
        for f in ("text", "json")
    ]
    # One cell in budget and one over it, skipped or not.
    calls += [
        ["verify", "--g", "0", "--n", "4:5", "--max-graphs", "3", "--format", f, *skip]
        for f in ("text", "json")
        for skip in ([], ["--skip-over-budget"])
    ]
    for argv in (
        ["enumerate", "--g", "1", "--n", "1", "--k", "1"],
        ["intersect", "--g", "2", "--n", "2", keys[2, 2][0]],
        ["flag-check", "--g", "2", "--n", "3"],
        ["witness", "--g", "2", "--n", "3"],
        ["verify", "--g", "2", "--n", "3"],
        ["paper-suite"],
    ):
        calls.append(argv + ["--max-dim", "1"])
    return calls


def _diff(label: str, a: str, b: str) -> str:
    lines = difflib.unified_diff(
        a.splitlines(), b.splitlines(), f"OLD {label}", f"NEW {label}", lineterm="", n=1
    )
    return "\n".join(line[:200] for line in list(lines)[:40])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout whose src/ is the reference")
    parser.add_argument("new", type=Path, help="checkout whose src/ is compared")
    args = parser.parse_args()
    calls = invocations(args.old)
    results, seconds = {}, {}
    for side, checkout in (("old", args.old), ("new", args.new)):
        start = time.perf_counter()
        results[side] = [run(checkout, argv) for argv in calls]
        seconds[side] = time.perf_counter() - start
    differing = 0
    for argv, a, b in zip(calls, results["old"], results["new"]):
        if a == b:
            continue
        differing += 1
        print(f"DIFF strata {' '.join(argv)}")
        if a[0] != b[0]:
            print(f"  exit code: OLD {a[0]}, NEW {b[0]}")
        for label, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
            if x != y:
                print(_diff(label, x, y))
        if a[3] != b[3]:
            print(_diff("files", *("\n".join(map(" ".join, r[3])) for r in (a, b))))
    print(
        f"{len(calls)} invocations, {differing} differ"
        f" (OLD {seconds['old']:.1f} s, NEW {seconds['new']:.1f} s)"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
