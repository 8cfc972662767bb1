from __future__ import annotations

import json

import pytest

from strata import (
    BudgetExceededError,
    GnSignature,
    StratumStore,
    canonical_key,
    chain,
    count_strata,
    divisors,
    one_vertex,
    smooth_point,
    strata,
    two_vertex_divisor,
)

# Stratum counts frozen from the exhaustive filter over all multigraphs
# (see helpers.oracle_strata, exercised in full in test_completeness).
FROZEN_COUNTS = {
    (2, 2): (4, 13, 24),
    (0, 5): (10, 15),
    (0, 6): (25, 105, 105),
    (1, 3): (5, 10, 7),
    (2, 0): (2, 2, 2),
    (2, 1): (2, 5, 5),
}


def test_divisor_counts(store):
    assert len(divisors(GnSignature(2, 2), store)) == 4
    assert len(divisors(GnSignature(1, 1), store)) == 1
    assert len(divisors(GnSignature(0, 5), store)) == 10
    assert len(divisors(GnSignature(0, 4), store)) == 3


def test_divisors_of_dimension_zero_space_empty(store):
    assert len(divisors(GnSignature(0, 3), store)) == 0


def test_divisors_agree_with_level_one(store):
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 2), (3, 2)]:
        sig = GnSignature(g, n)
        assert divisors(sig, store).keys() == strata(sig, 1, store).keys()


@pytest.mark.parametrize("sig,expected", sorted(FROZEN_COUNTS.items()))
def test_frozen_stratum_counts(store, sig, expected):
    sig = GnSignature(*sig)
    got = tuple(count_strata(sig, k, store) for k in range(1, len(expected) + 1))
    assert got == expected


def test_displayed_codim2_strata_present(store):
    level = strata(GnSignature(2, 3), 2, store)
    assert canonical_key(chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)) in level
    assert canonical_key(chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)) in level


@pytest.mark.parametrize("g,n", [(1, 2), (0, 5)])
def test_top_codimension_strata_are_trivalent(store, g, n):
    sig = GnSignature(g, n)
    for G in strata(sig, sig.dim, store):
        assert set(G.genus) == {0}
        assert all(G.valence(v) == 3 for v in range(G.num_vertices))


# The top level k = 3g-3 of (g,0) consists of the connected trivalent
# multigraphs with loops on 2g-2 vertices, counted in the literature
# (OEIS A005967), not by this code.
TRIVALENT_COUNTS = {2: 2, 3: 5, 4: 17, 5: 71}


@pytest.mark.parametrize("g,expected", sorted(TRIVALENT_COUNTS.items()))
def test_top_level_of_g0_counts_trivalent_multigraphs(store, g, expected):
    sig = GnSignature(g, 0)
    assert count_strata(sig, sig.dim, store) == expected


def test_every_level_matches_signature(store):
    sig = GnSignature(2, 2)
    for k in range(1, sig.dim + 1):
        for G in strata(sig, k, store):
            assert G.total_genus == 2
            assert G.n == 2
            assert G.num_edges == k
            assert G.is_stable()


def test_smoothing_closure(store):
    for g, n in [(2, 2), (1, 3), (0, 6)]:
        sig = GnSignature(g, n)
        for k in range(2, sig.dim + 1):
            below = strata(sig, k - 1, store)
            for G in strata(sig, k, store):
                for e in range(G.num_edges):
                    assert canonical_key(G.smooth(e)) in below


def test_smooth_point_shape():
    G = smooth_point(GnSignature(2, 3))
    assert G == one_vertex(2, 3)


def test_level_requires_k_in_range(store):
    sig = GnSignature(1, 2)
    with pytest.raises(ValueError, match="out of range"):
        strata(sig, 0, store)
    with pytest.raises(ValueError, match="out of range"):
        strata(sig, sig.dim + 1, store)
    with pytest.raises(ValueError, match="out of range"):
        strata(GnSignature(0, 3), 1, store)


def test_budget_overflow_is_an_error():
    tight = StratumStore(max_graphs=3)
    with pytest.raises(BudgetExceededError):
        tight.level(GnSignature(0, 5), 1)


def test_enumeration_deterministic():
    a = StratumStore().level(GnSignature(2, 2), 2).keys()
    b = StratumStore().level(GnSignature(2, 2), 2).keys()
    assert a == b


def test_keys_are_sorted(store):
    keys = strata(GnSignature(2, 3), 2, store).keys()
    assert list(keys) == sorted(keys)


# -- disk cache ---------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    sig = GnSignature(2, 2)
    writer = StratumStore(cache_dir=tmp_path)
    expected = writer.level(sig, 2).keys()
    path = tmp_path / "g2n2" / "k2.json"
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["schema"] == "stratumset/1"
    assert payload["generator_version"] == "2"
    assert payload["k"] == 2
    reader = StratumStore(cache_dir=tmp_path)
    assert reader.level(sig, 2).keys() == expected


def test_stale_cache_regenerated(tmp_path):
    sig = GnSignature(1, 2)
    writer = StratumStore(cache_dir=tmp_path)
    expected = writer.level(sig, 1).keys()
    path = tmp_path / "g1n2" / "k1.json"
    payload = json.loads(path.read_text())
    payload["generator_version"] = "0"
    path.write_text(json.dumps(payload))
    reader = StratumStore(cache_dir=tmp_path)
    assert reader.level(sig, 1).keys() == expected
    assert json.loads(path.read_text())["generator_version"] == "2"


def test_corrupt_cache_regenerated(tmp_path):
    sig = GnSignature(1, 1)
    writer = StratumStore(cache_dir=tmp_path)
    expected = writer.level(sig, 1).keys()
    path = tmp_path / "g1n1" / "k1.json"
    path.write_text("{not json")
    reader = StratumStore(cache_dir=tmp_path)
    assert reader.level(sig, 1).keys() == expected


def test_tampered_cache_regenerated(tmp_path):
    """A level file missing a graph fails its count and digest and is rebuilt."""
    sig = GnSignature(1, 4)
    expected = StratumStore(cache_dir=tmp_path).level(sig, 3).keys()
    path = tmp_path / "g1n4" / "k3.json"
    payload = json.loads(path.read_text())
    del payload["graphs"][0]
    path.write_text(json.dumps(payload))
    reader = StratumStore(cache_dir=tmp_path)
    assert reader.level(sig, 3).keys() == expected
    assert len(json.loads(path.read_text())["graphs"]) == len(expected)


@pytest.mark.parametrize("field", ["count", "sha256"])
def test_cache_without_integrity_field_regenerated(tmp_path, field):
    sig = GnSignature(2, 2)
    expected = StratumStore(cache_dir=tmp_path).level(sig, 2).keys()
    path = tmp_path / "g2n2" / "k2.json"
    payload = json.loads(path.read_text())
    assert payload["count"] == len(expected)
    del payload[field]
    path.write_text(json.dumps(payload))
    assert StratumStore(cache_dir=tmp_path).level(sig, 2).keys() == expected
    assert field in json.loads(path.read_text())


def test_budget_enforced_on_cached_levels(tmp_path):
    sig = GnSignature(0, 5)
    StratumStore(cache_dir=tmp_path).level(sig, 1)
    with pytest.raises(BudgetExceededError):
        StratumStore(cache_dir=tmp_path, max_graphs=3).level(sig, 1)


def test_faces_group_level_by_support(store):
    sig = GnSignature(2, 2)
    faces = store.faces(sig, 2)
    assert store.faces(sig, 2) is faces
    for support, graphs in faces.items():
        assert len(support) == 2
        assert all(G.delta_support() == support for G in graphs)
        assert [canonical_key(G) for G in graphs] == sorted(canonical_key(G) for G in graphs)
    grouped = sum(len(graphs) for graphs in faces.values())
    distinct = sum(len(G.delta_support()) == 2 for G in strata(sig, 2, store))
    assert grouped == distinct


def test_divisor_construction_covers_both_shapes(store):
    table = divisors(GnSignature(2, 2), store)
    keys = set(table.keys())
    assert canonical_key(one_vertex(1, 2, loops=1)) in keys
    assert canonical_key(two_vertex_divisor(0, (1, 2), 2, ())) in keys
    assert canonical_key(two_vertex_divisor(1, (1, 2), 1, ())) in keys
    assert canonical_key(two_vertex_divisor(1, (1,), 1, (2,))) in keys
