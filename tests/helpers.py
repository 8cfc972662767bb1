"""Independent oracles and small utilities shared by the test modules.

The strata oracles deliberately avoid the library's enumeration and
canonicalization paths: graphs are raw (genus, edges, legs) tuples,
generation is a filter over all multigraphs, and deduplication minimizes
over vertex bijections directly.  The intersection oracles read enumerated
levels but not the store's face map: one searches every edge count for a
graph lying on all divisors, the other scans a whole level.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

from strata import DivisorSet, DualGraph, GnSignature, StratumStore, default_store


def raw(G: DualGraph) -> tuple:
    return (G.genus, tuple(sorted(G.edges)), G.legs)


def relabel(G: DualGraph, perm: tuple[int, ...]) -> DualGraph:
    """Copy of ``G`` with vertex ``v`` renamed to ``perm[v]``."""
    genus = [0] * G.num_vertices
    for old, new in enumerate(perm):
        genus[new] = G.genus[old]
    edges = tuple((perm[i], perm[j]) for i, j in G.edges)
    legs = tuple(perm[v] for v in G.legs)
    return DualGraph(tuple(genus), edges, legs)


def _connected(V: int, edges) -> bool:
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(V)}) == 1


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _mark_assignments(marks: tuple[int, ...], counts: tuple[int, ...]):
    """All ways to deal ``marks`` into ordered groups of the given sizes."""
    if not counts:
        yield ()
        return
    for chosen in combinations(marks, counts[0]):
        rest = tuple(m for m in marks if m not in chosen)
        for tail in _mark_assignments(rest, counts[1:]):
            yield (chosen,) + tail


def oracle_contract(genus, edges, legs, e: int) -> tuple:
    """Raw graph with edge ``e`` contracted, on (genus, edges, legs) tuples.

    A loop at ``v`` raises the genus of ``v`` by one; an edge ``i - j``
    merges ``j`` into ``i`` (genera add) and closes the gap in vertex ids.
    """
    i, j = sorted(edges[e])
    rest = [edge for pos, edge in enumerate(edges) if pos != e]
    genus = list(genus)
    if i == j:
        genus[i] += 1
        return (tuple(genus), tuple(rest), tuple(legs))
    genus[i] += genus.pop(j)

    def new_id(v: int) -> int:
        return i if v == j else v - (v > j)

    return (
        tuple(genus),
        tuple((new_id(a), new_id(b)) for a, b in rest),
        tuple(new_id(v) for v in legs),
    )


def oracle_canon(genus, edges, legs) -> tuple:
    """Reference canonical form: minimum over genus/leg-preserving bijections.

    Any isomorphism fixes leg labels and genera, so it permutes vertices
    only within groups of equal (genus, leg set); minimizing the relabeled
    encoding over those bijections is a complete invariant.
    """
    V = len(genus)
    legsets = [tuple(sorted(m for m, w in enumerate(legs) if w == v)) for v in range(V)]
    groups: dict[tuple, list[int]] = {}
    for v in range(V):
        groups.setdefault((genus[v], legsets[v]), []).append(v)
    ordered = [groups[key] for key in sorted(groups)]
    best = None
    for perms in product(*(permutations(cell) for cell in ordered)):
        new_id = [0] * V
        pos = 0
        for cell in perms:
            for v in cell:
                new_id[v] = pos
                pos += 1
        g2 = [0] * V
        for old in range(V):
            g2[new_id[old]] = genus[old]
        e2 = tuple(
            sorted(
                (new_id[i], new_id[j]) if new_id[i] <= new_id[j] else (new_id[j], new_id[i])
                for i, j in edges
            )
        )
        l2 = tuple(new_id[v] for v in legs)
        enc = (tuple(g2), e2, l2)
        if best is None or enc < best:
            best = enc
    return best


def oracle_strata(g: int, n: int, k: int) -> dict[tuple, tuple]:
    """All stable (g, n) dual graphs with k edges, by exhaustive filtering.

    Scans every multigraph on at most k+1 vertices, every genus assignment,
    and every stable distribution of the marks, deduplicating with
    :func:`oracle_canon`.  Returns canonical form -> one raw representative.
    """
    marks = tuple(range(1, n + 1))
    classes: dict[tuple, tuple] = {}
    for V in range(1, k + 2):
        pairs = [(i, j) for i in range(V) for j in range(i, V)]
        for edges in combinations_with_replacement(pairs, k):
            if not _connected(V, edges):
                continue
            cycle_rank = k - V + 1
            decoration = g - cycle_rank
            if decoration < 0:
                continue
            deg = [0] * V
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            for genus in _compositions(decoration, V):
                for counts in _compositions(n, V):
                    stable = all(
                        deg[v] + counts[v] >= 3
                        if genus[v] == 0
                        else deg[v] + counts[v] >= 1
                        if genus[v] == 1
                        else True
                        for v in range(V)
                    )
                    if not stable:
                        continue
                    for groups in _mark_assignments(marks, counts):
                        legs = [0] * n
                        for v, group in enumerate(groups):
                            for m in group:
                                legs[m - 1] = v
                        raw_graph = (genus, edges, tuple(legs))
                        classes.setdefault(oracle_canon(*raw_graph), raw_graph)
    return classes


def vertex_isomorphisms(G: DualGraph, H: DualGraph):
    """Yield every vertex bijection G -> H that is an isomorphism.

    Tries all permutations; the reference oracle for ``is_isomorphic`` and
    ``canonical_key`` on small graphs.
    """
    if G.num_vertices != H.num_vertices or G.n != H.n or G.num_edges != H.num_edges:
        return
    h_edges = sorted(H.edges)
    for perm in permutations(range(G.num_vertices)):
        if any(H.genus[perm[v]] != G.genus[v] for v in range(G.num_vertices)):
            continue
        if any(perm[G.legs[m]] != H.legs[m] for m in range(G.n)):
            continue
        mapped = sorted(
            (perm[i], perm[j]) if perm[i] <= perm[j] else (perm[j], perm[i])
            for i, j in G.edges
        )
        if mapped == h_edges:
            yield perm


def intersect_nonempty_superset(S: DivisorSet, store: StratumStore | None = None) -> bool:
    """Slow cross-check: does any stratum lie on every divisor of ``S``?

    Scans all edge counts for a graph whose divisor support contains ``S``;
    must agree with ``intersect_nonempty`` (redundant edges of such a graph
    can be smoothed away one at a time).
    """
    store = store or default_store()
    sig = S.signature
    want = set(S.keys)
    for k in range(len(S), sig.dim + 1):
        for G in store.level(sig, k):
            if want <= G.delta_support():
                return True
    return False


def level_supports(sig: GnSignature, k: int, store: StratumStore) -> list[tuple]:
    """Every graph of level k with its divisor support, in level order."""
    return [(G, G.delta_support()) for G in store.level(sig, k)]


def scan_components(S: DivisorSet, supports: list[tuple]) -> tuple[DualGraph, ...]:
    """Level-scan oracle for ``intersection_components``.

    The graphs of level |S| whose divisor support equals ``S``, in level
    order; ``supports`` is ``level_supports`` of that level.
    """
    want = frozenset(S.keys)
    return tuple(G for G, support in supports if support == want)
