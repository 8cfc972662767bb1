"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All results are exact combinatorial values, so every comparison is equality;
runtime bounds are asserted where stated.  Run with ``pytest -v -s`` to see
the per-criterion lines.

Criterion 1 pins the unique non-edge of the genus-2 two-mark complex to
{0(1,2)-2, 1(1)-1(2)}.  ``test_m22_ground_truth_nonedge`` rebuilds the
1-skeleton from the brute-force oracles in ``helpers`` and finds the same
pair.  It also shows that {1(1,2)-1, 0(1,2)-2} is an edge: the stable graph
1 - 1 - 0(1,2) degenerates both divisors.
"""

from __future__ import annotations

import time
from itertools import combinations

from strata import (
    BudgetExceededError,
    DivisorSet,
    GnSignature,
    boundary_complex,
    canonical_key,
    chain,
    flag_verdict,
    high_genus,
    intersection_components,
    is_degeneration,
    divisor_set,
    one_vertex,
    pinwheel,
    predicted_flag,
    two_vertex_divisor,
    universal_degeneration,
)
import test_properties as props
from helpers import (
    delta_multiset,
    flag_witness,
    intersect_nonempty,
    is_isomorphic,
    oracle_canon,
    oracle_contract,
    oracle_strata,
    raw,
)
from test_completeness import SMALL_SIGNATURES


def _line(num, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def test_criterion_1_m22_reproduction(store):
    start = time.perf_counter()
    sig = GnSignature(2, 2)
    table = store.divisors(sig)
    C = boundary_complex(sig, store)
    flag = flag_witness(C) is None
    adj = C.adjacency()
    nonedges = [
        {C.vertices[i], C.vertices[j]}
        for i, j in combinations(range(len(C.vertices)), 2)
        if j not in adj[i]
    ]
    elapsed = time.perf_counter() - start
    expected_pair = {
        canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
        canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
    }
    checks = {
        "divisor count 4": len(table) == 4,
        "f-vector (4,5,2)": C.f_vector() == (4, 5, 2),
        "exactly one non-edge": len(nonedges) == 1,
        "non-edge {0(1,2)-2, 1(1)-1(2)}": nonedges == [expected_pair],
        "is_flag": flag,
        "runtime": elapsed < 1.0,
    }
    failed = [name for name, good in checks.items() if not good]
    _line(1, not failed,
          f"M22 reproduction; {elapsed:.2f}s"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    assert len(table) == 4
    assert C.f_vector() == (4, 5, 2)
    assert flag
    assert len(nonedges) == 1
    assert elapsed < 1.0
    assert nonedges == [expected_pair], (
        "the unique non-edge of the (2,2) complex should be "
        "{0(1,2)-2, 1(1)-1(2)}: the genus-0 side holding marks 1 and 2 fits "
        "on neither side of the 1(1)|1(2) split"
    )


def test_m22_ground_truth_nonedge(store):
    """Companion to criterion 1: the verified non-edge of the M22 complex.

    The library's non-edge is checked against a 1-skeleton built only from
    the oracles in ``helpers``: the divisors are ``oracle_strata(2, 2, 1)``,
    and two of them span an edge when they are the two one-edge contractions
    of some graph in ``oracle_strata(2, 2, 2)``.
    """
    sig = GnSignature(2, 2)
    C = boundary_complex(sig, store)
    adj = C.adjacency()
    nonedges = [
        {C.vertices[i], C.vertices[j]}
        for i, j in combinations(range(len(C.vertices)), 2)
        if j not in adj[i]
    ]
    assert nonedges == [
        {
            canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
            canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
        }
    ]

    oracle_divisors = set(oracle_strata(2, 2, 1))
    oracle_edges = set()
    for G in oracle_strata(2, 2, 2).values():
        ends = {oracle_canon(*oracle_contract(*G, e)) for e in (0, 1)}
        assert ends <= oracle_divisors
        if len(ends) == 2:
            oracle_edges.add(frozenset(ends))
    oracle_nonedges = [
        frozenset(pair)
        for pair in combinations(sorted(oracle_divisors), 2)
        if frozenset(pair) not in oracle_edges
    ]
    # 0(1,2) - 2 and 1(1) - 1(2) in oracle canonical form.
    assert oracle_nonedges == [
        frozenset({((0, 2), ((0, 1),), (0, 0)), ((1, 1), ((0, 1),), (0, 1))})
    ]
    as_oracle = [oracle_canon(*raw(D)) for D in C.divisor_graphs]
    library_nonedges = [
        frozenset({as_oracle[i], as_oracle[j]})
        for i, j in combinations(range(len(C.vertices)), 2)
        if j not in adj[i]
    ]
    assert library_nonedges == oracle_nonedges

    bridge = chain([(1, ()), (1, ()), (0, (1, 2))])
    assert is_degeneration(bridge, two_vertex_divisor(1, (1, 2), 1, ()))
    assert is_degeneration(bridge, two_vertex_divisor(0, (1, 2), 2, ()))
    assert frozenset(
        {
            oracle_canon(*raw(two_vertex_divisor(1, (1, 2), 1, ()))),
            oracle_canon(*raw(two_vertex_divisor(0, (1, 2), 2, ()))),
        }
    ) in oracle_edges


def test_criterion_2_m23_two_components(store):
    start = time.perf_counter()
    sig = GnSignature(2, 3)
    S = divisor_set(
        sig,
        [one_vertex(1, 3, loops=1), two_vertex_divisor(1, (1, 2), 1, (3,))],
        store,
    )
    report = intersection_components(S, store)
    displayed = {
        canonical_key(chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)),
        canonical_key(chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)),
    }
    got = {canonical_key(G) for G in report.components}
    elapsed = time.perf_counter() - start
    ok = len(report.components) == 2 and got == displayed and elapsed < 1.0
    _line(2, ok, f"M23 two-component intersection; {elapsed:.2f}s")
    assert len(report.components) == 2
    assert got == displayed
    assert elapsed < 1.0


def test_criterion_3_m12_parallel_edges(store):
    start = time.perf_counter()
    from strata import DualGraph

    G = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
    multiset = delta_multiset(G)
    support = G.delta_support()
    elapsed = time.perf_counter() - start
    same = len(multiset) == 2 and multiset[0] == multiset[1] and set(multiset) == support
    ok = same and len(support) == 1 and elapsed < 1.0
    _line(3, ok, f"M12 parallel-edge divisor multiset; {elapsed:.2f}s")
    assert len(multiset) == 2
    assert multiset[0] == multiset[1]
    assert set(multiset) == support
    assert len(support) == 1
    assert elapsed < 1.0


def test_criterion_4_pinwheel_families(store):
    start = time.perf_counter()
    for n in (3, 4):
        F = pinwheel(n)
        for i, j in combinations(F.divisors, 2):
            S = divisor_set(F.signature, [F.divisors[i], F.divisors[j]], store)
            report = intersection_components(S, store)
            shape = canonical_key(F.pairs[i, j])
            assert {canonical_key(G) for G in report.components} == {shape}
        assert not intersect_nonempty(divisor_set(F.signature, F.divisors.values(), store), store)
    flag23 = flag_verdict(GnSignature(2, 3), store)
    elapsed = time.perf_counter() - start
    ok = flag23 is not None and elapsed < 30.0
    _line(4, ok, f"pinwheel families at (2,3) and (2,4); {elapsed:.2f}s")
    assert flag23 is not None
    assert elapsed < 30.0


def test_criterion_5_high_genus_triples(store):
    start = time.perf_counter()
    for g, n in [(3, 2), (4, 2)]:
        sig = GnSignature(g, n)
        all_marks = tuple(range(1, n + 1))
        rest = tuple(range(2, n + 1))
        D = {
            1: chain([(g - 1, ()), (1, all_marks)]),
            2: chain([(g - 1, (1,)), (1, rest)]),
            3: chain([(g - 1, rest), (1, (1,))]),
        }
        for (i, j), displayed in high_genus(g, n).pairs.items():
            S = divisor_set(sig, [D[i], D[j]], store)
            report = intersection_components(S, store)
            assert len(report.components) == 1
            assert is_isomorphic(report.components[0], displayed)
        triple = divisor_set(sig, [D[1], D[2], D[3]], store)
        assert not intersect_nonempty(triple, store)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _line(5, ok, f"high-genus triples at (3,2) and (4,2); {elapsed:.2f}s")
    assert elapsed < 120.0


def test_criterion_6_universal_degenerations(store):
    start = time.perf_counter()
    for g, n in [(2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]:
        sig = GnSignature(g, n)
        U = universal_degeneration(sig)
        for D in store.divisors(sig).values():
            assert is_degeneration(U, D)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _line(6, ok, f"universal degenerations over five signatures; {elapsed:.2f}s")
    assert elapsed < 10.0


GRID = (
    [(0, n) for n in range(4, 8)]
    + [(1, n) for n in range(1, 6)]
    + [(2, n) for n in range(0, 5)]
    + [(3, n) for n in range(0, 3)]
)


def test_criterion_7_classification_grid(store):
    start = time.perf_counter()
    skipped = []
    for g, n in GRID:
        sig = GnSignature(g, n)
        try:
            witness = flag_verdict(sig, store)
        except BudgetExceededError:
            skipped.append((g, n))
            continue
        assert predicted_flag(sig) == (witness is None), f"disagreement at {sig}"
        if witness is not None:
            assert len(witness) >= 3
            for a, b in combinations(witness, 2):
                assert intersect_nonempty(DivisorSet(sig, (a, b)), store)
    elapsed = time.perf_counter() - start
    ok = not skipped and elapsed < 900.0
    _line(
        7,
        ok,
        f"classification grid of {len(GRID)} cells; {elapsed:.2f}s"
        + (f"; skipped: {skipped}" if skipped else "; no cells skipped"),
    )
    assert elapsed < 900.0
    required = [cell for cell in GRID if cell not in {(1, 5), (2, 4), (3, 2)}]
    assert all(cell not in skipped for cell in required)
    assert not skipped


def test_criterion_8_property_suites(store):
    start = time.perf_counter()
    pool = props.build_pool(store)
    props.test_smoothing_commutes(pool)
    props.test_smoothing_preserves_genus_stability_legs(pool)
    props.test_canonical_key_matches_bijection_oracle(pool)
    props.test_degeneration_partial_order(pool)
    props.test_complex_downward_closure(store)
    props.test_unique_realization_of_divisor_collections(store)
    props.test_genus_one_reduction_suite(store)
    elapsed = time.perf_counter() - start
    _line(8, True, f"seven property suites, >=1000 cases each; {elapsed:.2f}s")


def test_criterion_9_enumeration_completeness(store):
    start = time.perf_counter()
    cells = 0
    for g, n in SMALL_SIGNATURES:
        sig = GnSignature(g, n)
        for k in range(1, sig.dim + 1):
            expected = oracle_strata(g, n, k)
            level = store.level(sig, k)
            assert len(level) == len(expected)
            assert {oracle_canon(*raw(G)) for G in level.values()} == set(expected)
            cells += 1
    elapsed = time.perf_counter() - start
    _line(9, True, f"brute-force agreement on {cells} cells; {elapsed:.2f}s")
