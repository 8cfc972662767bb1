from __future__ import annotations

import re
import tracemalloc
from itertools import combinations
from math import factorial

import pytest

from strata import (
    BoundaryComplex,
    DivisorSet,
    GnSignature,
    StratumStore,
    boundary_complex,
    canonical_key,
    flag_verdict,
    high_genus,
    intersection_components,
    is_degeneration,
    one_vertex,
    pinwheel,
    predicted_flag,
    two_vertex_divisor,
    universal_degeneration,
)
from strata.complexes import _verify_downward_closed
from strata.graphs import divisor_graph
from helpers import (
    flag_witness,
    intersect_nonempty,
    is_face,
    is_isomorphic,
    oracle_facets,
    tree_chain,
    witness_for,
)
from test_acceptance import GRID


# -- construction --------------------------------------------------------------


def test_m22_complex(store):
    C = boundary_complex(GnSignature(2, 2), store)
    assert C.f_vector() == (4, 5, 2)
    assert flag_witness(C) is None
    adj = C.adjacency()
    missing = [
        (i, j)
        for i, j in combinations(range(len(C.vertices)), 2)
        if j not in adj[i]
    ]
    assert len(missing) == 1
    i, j = missing[0]
    nonedge = {C.vertices[i], C.vertices[j]}
    assert nonedge == {
        canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
        canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
    }


def test_m22_triangles(store):
    C = boundary_complex(GnSignature(2, 2), store)
    key = {
        "irr": canonical_key(one_vertex(1, 2, loops=1)),
        "marked_genus0": canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
        "marked_genus1": canonical_key(two_vertex_divisor(1, (1, 2), 1, ())),
        "split_marks": canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
    }
    assert set(C.faces[3]) == {
        tuple(sorted((key["irr"], key["marked_genus0"], key["marked_genus1"]))),
        tuple(sorted((key["irr"], key["marked_genus1"], key["split_marks"]))),
    }


def test_dimension_one_space_has_isolated_vertices(store):
    C = boundary_complex(GnSignature(1, 1), store)
    assert C.f_vector() == (1,)
    assert flag_witness(C) is None


def test_dimension_zero_space_is_empty_complex(store):
    C = boundary_complex(GnSignature(0, 3), store)
    assert C.f_vector() == ()
    assert C.vertices == ()
    assert flag_witness(C) is None


def test_genus_zero_five_marks(store):
    C = boundary_complex(GnSignature(0, 5), store)
    assert C.f_vector() == (10, 15)
    assert flag_witness(C) is None
    facets = C.facets()
    assert len(facets) == 15
    assert all(len(f) == 2 for f in facets)


@pytest.mark.parametrize("n", range(4, 8))
def test_genus_zero_face_map_is_a_wedge_of_spheres(store, n):
    """At g = 0 every intersection of divisors is one stratum, so the complex is Δ_{0,n}.

    Δ_{0,n} is a wedge of (n-2)! spheres of dimension n-4, so its reduced
    Euler characteristic is (-1)^(n-4) (n-2)!.  The f-vectors are (3),
    (10,15), (25,105,105) and (56,490,1260,945).
    """
    f = boundary_complex(GnSignature(0, n), store).f_vector()
    reduced_euler = -1 + sum((-1) ** j * f_j for j, f_j in enumerate(f))
    assert reduced_euler == (-1) ** (n - 4) * factorial(n - 2), f


# -- the cone over the irreducible divisor -------------------------------------


def _apex(sig: GnSignature) -> bytes | None:
    """The key of δ_irr, the irreducible divisor; ``None`` at g = 0, which has none."""
    return canonical_key(divisor_graph(sig.g, sig.n, None)) if sig.g else None


def test_complex_is_a_cone_over_the_irreducible_divisor(store):
    """At g >= 1 every face without δ_irr extends by it, and f_j = b_j + b_{j-1}.

    A face without δ_irr is realized by trees; trading one unit of a
    positive genus for a loop adds exactly δ_irr.  ``f_j`` counts the faces
    with j divisors and ``b_j`` those without δ_irr, the empty face included.
    """
    cells = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        if g == 0:
            continue
        faces, apex = {S for k in range(1, sig.dim + 1) for S in store.faces(sig, k)}, _apex(sig)
        base = [S for S in faces if apex not in S]
        for S in base:
            assert tuple(sorted(S + (apex,))) in faces, (sig, S)
        f, b = [0] * (sig.dim + 2), [1] + [0] * (sig.dim + 1)
        for S in faces:
            f[len(S)] += 1
        for S in base:
            b[len(S)] += 1
        assert all(f[j] == b[j] + b[j - 1] for j in range(1, sig.dim + 2)), (sig, f, b)
        cells += 1
    assert cells == 13


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 15), (5, 105), (6, 945)])
def test_genus_one_top_trees_are_trivalent_trees(n, count):
    """The top level of the (1, n) tree chain has (2n-3)!! trees: trivalent, n + 1 leaves."""
    top = tree_chain(1, n)[-1]
    assert len(top) == count
    assert all(T.num_edges == n - 1 for T in top)


def test_tree_chain_supports_are_the_base_faces(store):
    """Level by level, the tree chain's supports are the faces without δ_irr."""
    for g, n in GRID:
        sig = GnSignature(g, n)
        levels, apex = tree_chain(g, n), _apex(sig)
        for k in range(1, sig.dim + 1):
            trees = levels[k] if k < len(levels) else []
            supports = [tuple(sorted(T.delta_support())) for T in trees]
            assert set(supports) == {S for S in store.faces(sig, k) if apex not in S}, (sig, k)
            if g <= 1:
                assert len(set(supports)) == len(supports), (sig, k)


def test_faces_downward_closed_explicitly(store):
    for g, n in [(2, 2), (1, 3), (0, 6)]:
        C = boundary_complex(GnSignature(g, n), store)
        for size, faces in C.faces.items():
            if size < 2:
                continue
            for face in faces:
                for v in face:
                    assert tuple(k for k in face if k != v) in C.faces[size - 1]


def _closure_map(*faces: str):
    """A face map holding the given faces, keyed by size; ``"ab"`` is the face (b"a", b"b")."""
    out: dict[int, set] = {}
    for face in faces:
        out.setdefault(len(face), set()).add(tuple(c.encode() for c in face))
    return out


@pytest.mark.parametrize(
    "faces",
    [
        _closure_map("a", "b", "c", "ab", "ac", "abc"),
        _closure_map("a", "b", "c", "abc"),
    ],
    ids=["missing_face", "missing_level"],
)
def test_verify_downward_closed_rejects_open_maps(faces):
    with pytest.raises(RuntimeError, match="downward closure"):
        _verify_downward_closed(faces)


def test_verify_downward_closed_accepts_closed_map():
    _verify_downward_closed(_closure_map("a", "b", "c", "ab", "ac", "bc", "abc"))


def test_complex_holds_the_store_face_maps_on_grid(store):
    """Each face level from size 2 up is the store's face map object, not a copy."""
    levels = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        C = boundary_complex(sig, store)
        for j in range(2, max(C.faces, default=0) + 1):
            assert C.faces[j] is store.faces(sig, j), (sig, j)
            levels += 1
    assert levels == 40  # 2..min(dim, divisor count) per cell


def test_complex_build_allocates_little_over_built_face_maps():
    """Building (1,6)'s complex once its face maps exist traces under 0.5 MB.

    Copying each face into a frozenset of vertex indices traced 4.94 MB.
    """
    sig, store = GnSignature(1, 6), StratumStore()
    for j in range(2, sig.dim + 1):
        store.faces(sig, j)
    tracemalloc.start()
    try:
        C = boundary_complex(sig, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.f_vector()[-1] == 945
    assert peak < 500_000, peak


def test_facets_match_pairwise_scan_on_grid(store):
    checked = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        for max_dim in (None, *range(sig.dim + 1)):
            C = boundary_complex(sig, store, max_dim=max_dim)
            assert C.facets() == oracle_facets(C), (g, n, max_dim)
            checked += 1
    assert checked == 105


def _dot_edges(C: BoundaryComplex) -> list[tuple[int, ...]]:
    """The index pairs of the ``v{i} -- v{j}`` lines of ``C.to_dot()``, in order."""
    lines = C.to_dot().splitlines()
    return [tuple(map(int, re.findall(r"v(\d+)", line))) for line in lines if " -- " in line]


def test_f_vector_invariant_under_vertex_reordering(store):
    """Reversed vertices keep the f-vector, and the exports name the same faces.

    Facets and edges, mapped back to keys, are the same sets, and every
    index tuple an export writes is sorted.
    """
    C = boundary_complex(GnSignature(2, 3), store)
    R = BoundaryComplex(C.signature, C.vertices[::-1], C.divisor_graphs[::-1], C.faces)
    assert R.f_vector() == C.f_vector()

    def keyed(X: BoundaryComplex, faces) -> set[frozenset[bytes]]:
        assert all(list(face) == sorted(face) for face in faces), faces
        return {frozenset(X.vertices[i] for i in face) for face in faces}

    edges = keyed(C, _dot_edges(C))
    assert len(edges) == C.f_vector()[1]
    assert keyed(R, _dot_edges(R)) == edges
    pairs = [(i, j) for i, adj in enumerate(R.adjacency()) for j in adj if i < j]
    assert keyed(R, pairs) == edges
    assert keyed(R, R.facets()) == keyed(C, C.facets())


def test_max_dim_validation(store):
    with pytest.raises(ValueError, match="max_dim"):
        boundary_complex(GnSignature(2, 2), store, max_dim=99)


def test_truncated_complex_refuses_flag_check(store):
    C = boundary_complex(GnSignature(2, 3), store, max_dim=2)
    with pytest.raises(ValueError, match="truncated"):
        flag_witness(C)


@pytest.mark.parametrize("max_dim", [0, 1])
def test_complex_without_one_skeleton_refuses_flag_check(store, max_dim):
    C = boundary_complex(GnSignature(2, 3), store, max_dim=max_dim)
    with pytest.raises(ValueError, match="truncated"):
        flag_witness(C)


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1)])
def test_full_complex_below_dimension_two_keeps_its_verdict(store, g, n):
    sig = GnSignature(g, n)
    C = boundary_complex(sig, store)
    assert max(C.faces, default=0) < 2
    assert flag_witness(C) is flag_verdict(sig, store) is None


def test_exports(store):
    C = boundary_complex(GnSignature(2, 2), store)
    obj = C.to_json_obj()
    assert obj["schema"] == "bcomplex/1"
    assert len(obj["vertices"]) == 4
    assert sorted(map(len, obj["facets"])) == [3, 3]
    dot = C.to_dot()
    assert dot.startswith('graph "boundary_complex_g2n2"')
    assert dot.count(" -- ") == 5
    assert "tooltip" in dot


# -- flag checking ---------------------------------------------------------------


def test_flag_witness_at_2_3(store):
    witness = flag_verdict(GnSignature(2, 3), store)
    assert witness is not None
    assert len(witness) == 3
    expected = {canonical_key(D) for D in pinwheel(3).divisors.values()}
    assert set(witness) == expected


def test_witness_meets_pairwise_but_not_all_together(store):
    """On every non-flag cell of the acceptance grid the witness is a non-face clique."""
    cells = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        witness = flag_verdict(sig, store)
        if witness is None:
            continue
        cells += 1
        for a, b in combinations(witness, 2):
            assert intersect_nonempty(DivisorSet(sig, (a, b)), store)
        assert not intersect_nonempty(DivisorSet(sig, witness), store)
    assert cells == sum(not predicted_flag(GnSignature(g, n)) for g, n in GRID)


def test_eager_and_lazy_flag_checks_agree(store):
    for g, n in [(2, 2), (2, 3), (1, 3), (0, 5), (1, 4), (3, 2)]:
        sig = GnSignature(g, n)
        assert flag_witness(boundary_complex(sig, store)) == flag_verdict(sig, store)


def test_witness_is_lexicographically_minimal(store):
    """Among the smallest non-face cliques, the key-lex least one is reported."""
    sig = GnSignature(2, 4)
    witness = flag_verdict(sig, store)
    assert witness is not None
    C = boundary_complex(sig, store, max_dim=3)
    adj = C.adjacency()
    nonface_triples = sorted(
        (i, j, k)
        for i, j, k in combinations(range(len(C.vertices)), 3)
        if j in adj[i] and k in adj[i] and k in adj[j]
        and not is_face(C, {i, j, k})
    )
    assert nonface_triples
    expected = tuple(C.vertices[t] for t in nonface_triples[0])
    assert witness == expected


def test_witness_for_probe(store):
    sig = GnSignature(2, 3)
    divisors = list(pinwheel(3).divisors.values())
    probe = witness_for(sig, divisors, store)
    assert not probe.is_face
    assert probe.pairwise_ok
    assert probe.components == ()
    single = witness_for(sig, divisors[:1], store)
    assert single.is_face
    assert len(single.components) == 1


# -- counterexample families ------------------------------------------------------


FAMILIES = {
    "pinwheel(3)": pinwheel(3),
    "pinwheel(4)": pinwheel(4),
    "high_genus(3,2)": high_genus(3, 2),
    "high_genus(4,2)": high_genus(4, 2),
    "high_genus(3,3)": high_genus(3, 3),
}


@pytest.mark.parametrize("F", FAMILIES.values(), ids=FAMILIES.keys())
def test_family_pairs_meet_in_displayed_graph_but_all_do_not(store, F):
    sig = F.signature
    key = {i: canonical_key(D) for i, D in F.divisors.items()}
    assert set(F.pairs) == set(combinations(F.divisors, 2))
    for (i, j), shown in F.pairs.items():
        report = intersection_components(DivisorSet(sig, (key[i], key[j])), store)
        assert len(report.components) == 1
        assert is_isomorphic(report.components[0], shown)
        assert shown.delta_support() == {key[i], key[j]}
    assert not intersect_nonempty(DivisorSet(sig, tuple(key.values())), store)


def test_pinwheel_requires_three_marks():
    with pytest.raises(ValueError):
        pinwheel(2)


def test_high_genus_triple_bounds():
    with pytest.raises(ValueError):
        high_genus(2, 3)
    with pytest.raises(ValueError):
        high_genus(3, 1)


def test_universal_degeneration_instances(store):
    for g, n in [(2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]:
        sig = GnSignature(g, n)
        U = universal_degeneration(sig)
        assert U.total_genus == g and U.n == n and U.is_stable()
        for D in store.divisors(sig).values():
            assert is_degeneration(U, D)


def test_universal_degeneration_shapes():
    three = universal_degeneration(GnSignature(3, 0))
    assert three.genus == (1, 1, 0)
    assert sorted(three.edges) == [(0, 1), (1, 2), (2, 2)]
    one_one = universal_degeneration(GnSignature(1, 1))
    assert one_one == one_vertex(0, 1, loops=1)


def test_universal_degeneration_bounds():
    with pytest.raises(ValueError):
        universal_degeneration(GnSignature(0, 4))
    with pytest.raises(ValueError):
        universal_degeneration(GnSignature(2, 2))


# -- classification ---------------------------------------------------------------


def test_predictions():
    assert predicted_flag(GnSignature(0, 9))
    assert predicted_flag(GnSignature(1, 6))
    assert predicted_flag(GnSignature(5, 1))
    assert predicted_flag(GnSignature(2, 2))
    assert not predicted_flag(GnSignature(2, 3))
    assert not predicted_flag(GnSignature(3, 2))


def test_check_theorem_cells(store):
    """The theorem is the prediction against the computed verdict, cell by cell."""
    for g, n, expected in [(2, 2, True), (2, 3, False), (1, 4, True)]:
        sig = GnSignature(g, n)
        witness = flag_verdict(sig, store)
        assert predicted_flag(sig) == expected
        assert (witness is None) == expected
        if not expected:
            assert len(witness) >= 3
