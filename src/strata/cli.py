"""Command-line surface: enumeration, intersections, complexes, verification.

Exit codes are a stable contract: 0 for success (or a nonempty result),
1 for a definitive negative (empty intersection, non-flag complex), 2 for
usage errors, 3 for resource overflows.  With ``--format json`` errors are
emitted as machine-readable JSON on stderr; only argparse's own errors (an
unknown option, a value of the wrong type) stay text.

:func:`main` checks the options, builds the one :class:`StratumStore` and
hands it with the parsed arguments to the command; each subcommand accepts
only the options it reads.  All output is ordered by canonical key;
execution is sequential.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import combinations
from pathlib import Path

from . import __version__
from .complexes import (
    boundary_complex,
    flag_verdict,
    high_genus,
    pinwheel,
    predicted_flag,
    universal_degeneration,
)
from .enumeration import (
    DEFAULT_MAX_GRAPHS,
    BudgetExceededError,
    StratumStore,
    _dumps,
    _write_level,
)
from .graphs import (
    DualGraph,
    GnSignature,
    InvalidSignatureError,
    canonical_key,
    chain,
    divisor_graph,
    key_to_hex,
)
from .lattice import DivisorSet, divisor_set, intersection_components

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FORMATS = ("text", "json", "dot")


def _emit_error(args: argparse.Namespace, code: str, message: str) -> None:
    if args.format == "json":
        print(_dumps({"error": {"code": code, "message": message}}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def _witness_json(witness: tuple[bytes, ...] | None) -> dict | None:
    if witness is None:
        return None
    # The last three fields are the same for every witness (a non-face clique);
    # they are kept for byte-identical JSON.
    return {
        "clique": [key_to_hex(k) for k in witness],
        "is_face": False,
        "components": [],
        "pairwise_ok": True,
    }


def _graph_dot(G: DualGraph, name: str) -> str:
    lines = [f'graph "{name}" {{']
    for v, g in enumerate(G.genus):
        lines.append(f'  v{v} [label="g={g}"];')
    for i, j in sorted(G.edges):
        lines.append(f"  v{i} -- v{j};")
    for m, v in enumerate(G.legs):
        lines.append(f'  leg{m + 1} [shape=plaintext, label="{m + 1}"];')
        lines.append(f"  leg{m + 1} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


# -- commands -----------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace, store: StratumStore) -> int:
    sig = GnSignature(args.g, args.n)
    level = store.level(sig, args.k)
    if args.format == "json":
        _write_level(sys.stdout, sig, args.k, level)
        print()
    elif args.format == "dot":
        for t, G in enumerate(level.values()):
            print(_graph_dot(G, f"g{sig.g}n{sig.n}k{args.k}_{t}"))
    else:
        for key, G in level.items():
            print(f"{key_to_hex(key)}  {G.describe()}")
        print(f"total: {len(level)}", file=sys.stderr)
    return EXIT_OK


def _resolve_divisor_inputs(
    args: argparse.Namespace, store: StratumStore
) -> DivisorSet:
    graphs: list[DualGraph] = []
    keys: list[str] = []
    for item in args.divisors:
        path = Path(item)
        if item.endswith(".json") or path.is_file():
            graphs.append(DualGraph.from_json(path.read_text(encoding="utf-8")))
        else:
            keys.append(item)
    signatures = {G.signature for G in graphs}
    if len(signatures) > 1:
        raise ValueError(f"mixed signatures among inputs: {sorted(map(str, signatures))}")
    if args.g is not None and args.n is not None:
        sig = GnSignature(args.g, args.n)
    elif signatures:
        sig = next(iter(signatures))
    else:
        raise ValueError("bare keys need --g and --n to fix the signature")
    for found in signatures:
        if args.g not in (None, found.g) or args.n not in (None, found.n):
            raise ValueError("inputs do not match the requested signature")
    return divisor_set(sig, graphs + keys, store)


def cmd_intersect(args: argparse.Namespace, store: StratumStore) -> int:
    S = _resolve_divisor_inputs(args, store)
    report = intersection_components(S, store)
    if args.format == "json":
        print(_dumps(report.to_json_obj()))
    elif args.format == "dot":
        for t, G in enumerate(report.components):
            print(_graph_dot(G, f"component_{t}"))
    else:
        print(f"signature {S.signature}, {len(S)} divisors")
        for G in report.components:
            print(f"  component {key_to_hex(canonical_key(G))}  {G.describe()}")
        print("nonempty" if report.nonempty else "empty")
    return EXIT_OK if report.nonempty else EXIT_NEGATIVE


def cmd_complex(args: argparse.Namespace, store: StratumStore) -> int:
    sig = GnSignature(args.g, args.n)
    C = boundary_complex(sig, store, max_dim=args.max_dim)
    if args.format == "json":
        print(_dumps(C.to_json_obj()))
    elif args.format == "dot":
        print(C.to_dot(), end="")
    else:
        print(f"boundary complex of {sig}")
        print(f"f-vector: {C.f_vector()}")
        for i, key in enumerate(C.vertices):
            print(f"  v{i} {key_to_hex(key)}  {C.divisor_graphs[i].describe()}")
        print(f"facets: {[list(f) for f in C.facets()]}")
    return EXIT_OK


def cmd_flag_check(args: argparse.Namespace, store: StratumStore) -> int:
    sig = GnSignature(args.g, args.n)
    witness = flag_verdict(sig, store)
    if args.format == "json":
        obj = {
            "g": sig.g,
            "n": sig.n,
            "is_flag": witness is None,
            "witness": _witness_json(witness),
        }
        print(_dumps(obj))
    else:
        print(f"{sig}: {'flag' if witness is None else 'not a flag complex'}")
        for key in witness or ():
            print(f"  witness divisor {key_to_hex(key)}")
    return EXIT_OK if witness is None else EXIT_NEGATIVE


def cmd_witness(args: argparse.Namespace, store: StratumStore) -> int:
    sig = GnSignature(args.g, args.n)
    witness = flag_verdict(sig, store)
    if args.format == "json":
        print(_dumps({"g": sig.g, "n": sig.n, "witness": _witness_json(witness)}))
    elif witness is None:
        print(f"{sig} is a flag complex; no witness")
    else:
        table = store.divisors(sig)
        print(f"minimal non-face clique of size {len(witness)} in {sig}:")
        for key in witness:
            print(f"  {key_to_hex(key)}  {table[key].describe()}")
    return EXIT_NEGATIVE if witness is None else EXIT_OK


def _parse_range(text: str) -> range:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


def cmd_verify(args: argparse.Namespace, store: StratumStore) -> int:
    rows = []
    for g in _parse_range(args.g):
        for n in _parse_range(args.n):
            try:
                sig = GnSignature(g, n)
            except InvalidSignatureError:
                continue
            start = time.perf_counter()
            predicted = predicted_flag(sig)
            try:  # a cell over budget is skipped, never silently passed
                witness = flag_verdict(sig, store)
                computed = witness is None
            except BudgetExceededError:
                witness = computed = None
            rows.append({
                "g": g,
                "n": n,
                "predicted": predicted,
                "computed": computed,
                "agree": None if computed is None else predicted == computed,
                "skipped": computed is None,
                "witness": None if witness is None else [key_to_hex(k) for k in witness],
                "seconds": round(time.perf_counter() - start, 3),
            })
    if not rows:
        raise ValueError(f"--g {args.g} --n {args.n} names no existing signature")
    if args.format == "json":
        print(_dumps(rows))
    else:
        print(f"{'sig':>8} {'predicted':>9} {'computed':>9} {'agree':>6} {'time':>8}  witness")
        for row in rows:
            computed = "skipped" if row["skipped"] else str(row["computed"])
            agree = "-" if row["agree"] is None else str(row["agree"])
            witness = ",".join(k[:12] for k in row["witness"] or ())
            sig = GnSignature(row["g"], row["n"])
            print(
                f"{str(sig):>8} {str(row['predicted']):>9} {computed:>9}"
                f" {agree:>6} {row['seconds']:7.2f}s  {witness}"
            )
    if any(row["skipped"] for row in rows) and not args.skip_over_budget:
        return EXIT_BUDGET
    if any(row["agree"] is False for row in rows):
        return EXIT_NEGATIVE
    return EXIT_OK


def _paper_suite_checks(store: StratumStore):
    """The curated reproduction set; yields (name, passed, detail)."""

    def m22_divisors():
        return len(store.divisors(GnSignature(2, 2))) == 4, ""

    def m22_fvector():
        fv = boundary_complex(GnSignature(2, 2), store).f_vector()
        return fv == (4, 5, 2), f"f-vector {fv}"

    def m22_flag():
        return flag_verdict(GnSignature(2, 2), store) is None, ""

    def m22_nonedge():
        C = boundary_complex(GnSignature(2, 2), store)
        adj = C.adjacency()
        missing = [
            (i, j)
            for i, j in combinations(range(len(C.vertices)), 2)
            if j not in adj[i]
        ]
        detail = "; ".join(
            f"{C.divisor_graphs[i].describe()} | {C.divisor_graphs[j].describe()}"
            for i, j in missing
        )
        return len(missing) == 1, f"non-edges: {detail}"

    def m23_union_of_two():
        sig = GnSignature(2, 3)
        d_irr = divisor_graph(2, 3, None)
        d_split = divisor_graph(2, 3, (1, (1, 2)))
        S = divisor_set(sig, [d_irr, d_split], store)
        report = intersection_components(S, store)
        shown = {
            canonical_key(chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)),
            canonical_key(chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)),
        }
        got = {canonical_key(G) for G in report.components}
        return got == shown and len(report.components) == 2, f"{len(report.components)} components"

    def m12_parallel_edges():
        G = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
        return G.num_edges == 2 and len(G.delta_support()) == 1, ""

    def universal_degenerations():
        for g, n in [(2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]:
            sig = GnSignature(g, n)
            if not set(store.divisors(sig)) <= universal_degeneration(sig).delta_support():
                return False, f"fails at {sig}"
        return True, ""

    def family(F):
        """Pair (i, j) of ``F`` meets in ``F.pairs[i, j]`` alone; all do not meet."""
        for i, j in combinations(F.divisors, 2):
            S = divisor_set(F.signature, [F.divisors[i], F.divisors[j]], store)
            report = intersection_components(S, store)
            if {canonical_key(G) for G in report.components} != {canonical_key(F.pairs[i, j])}:
                return False, f"pair {i},{j} mismatch"
        S = divisor_set(F.signature, F.divisors.values(), store)
        if intersection_components(S, store).nonempty:
            return False, "total intersection not empty"
        return True, ""

    def pinwheel_flag_23():
        return flag_verdict(GnSignature(2, 3), store) is not None, ""

    def theorem_spots():
        for g, n in [(2, 2), (2, 3), (1, 3), (0, 5), (3, 2)]:
            sig = GnSignature(g, n)
            if predicted_flag(sig) != (flag_verdict(sig, store) is None):
                return False, f"disagreement at ({g},{n})"
        return True, ""

    yield "M22 four boundary divisors", m22_divisors
    yield "M22 f-vector (4,5,2)", m22_fvector
    yield "M22 flag complex", m22_flag
    yield "M22 single non-edge pair", m22_nonedge
    yield "M23 union of two strata", m23_union_of_two
    yield "M12 parallel-edge remark", m12_parallel_edges
    yield "universal degenerations for zero or one mark", universal_degenerations
    yield "pinwheel family (2,3)", lambda: family(pinwheel(3))
    yield "pinwheel family (2,4)", lambda: family(pinwheel(4))
    yield "pinwheel breaks flagness at (2,3)", pinwheel_flag_23
    yield "high-genus triple (3,2)", lambda: family(high_genus(3, 2))
    yield "high-genus triple (4,2)", lambda: family(high_genus(4, 2))
    yield "classification spot grid", theorem_spots


def cmd_paper_suite(args: argparse.Namespace, store: StratumStore) -> int:
    results = []
    for name, check in _paper_suite_checks(store):
        passed, detail = check()
        results.append({"name": name, "passed": passed, "detail": detail})
    if args.format == "json":
        print(_dumps(results))
    else:
        for row in results:
            mark = "PASS" if row["passed"] else "FAIL"
            suffix = f"  ({row['detail']})" if row["detail"] else ""
            print(f"{mark}  {row['name']}{suffix}")
        total = sum(r["passed"] for r in results)
        print(f"{total}/{len(results)} checks passed")
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_NEGATIVE


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata",
        description="Stable dual graphs, boundary strata, and boundary complexes.",
    )
    parser.add_argument("--version", action="version", version=f"strata {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, help="stratum cache directory")
    common.add_argument(
        "--max-graphs", type=int, default=DEFAULT_MAX_GRAPHS,
        help="hard per-level graph budget",
    )
    common.add_argument("--format", choices=FORMATS, default="text")
    common.set_defaults(dot=False)  # commands that render graphs set dot=True
    signature = argparse.ArgumentParser(add_help=False)
    signature.add_argument("--g", type=int, required=True)
    signature.add_argument("--n", type=int, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common, signature], help="list strata of one level")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_enumerate, dot=True)

    p = sub.add_parser("intersect", parents=[common], help="intersect boundary divisors")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("divisors", nargs="+", help="hex keys or dualgraph JSON files")
    p.set_defaults(func=cmd_intersect, dot=True)

    p = sub.add_parser("complex", parents=[common, signature], help="build the boundary complex")
    p.add_argument("--max-dim", type=int, default=None, help="complex build depth")
    p.set_defaults(func=cmd_complex, dot=True)

    p = sub.add_parser("flag-check", parents=[common, signature], help="decide the flag property")
    p.set_defaults(func=cmd_flag_check)

    p = sub.add_parser("witness", parents=[common, signature], help="minimal non-face clique")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", parents=[common], help="classification over a grid")
    p.add_argument("--g", required=True, help="genus or range lo:hi")
    p.add_argument("--n", required=True, help="marks or range lo:hi")
    p.add_argument("--skip-over-budget", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-suite", parents=[common], help="curated reproduction set")
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_graphs < 1:
            raise ValueError("--max-graphs must be positive")
        if args.format == "dot" and not args.dot:
            raise ValueError(f"--format dot is not supported by {args.command}")
        return args.func(args, StratumStore(args.cache_dir, args.max_graphs))
    except BudgetExceededError as exc:
        _emit_error(args, "budget", str(exc))
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        _emit_error(args, "usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
