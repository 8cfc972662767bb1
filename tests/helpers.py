"""Independent oracles and small utilities shared by the test modules.

The strata oracles deliberately avoid the library's enumeration and
canonicalization paths: graphs are raw (genus, edges, legs) tuples,
generation is a filter over all multigraphs, and deduplication minimizes
over vertex bijections directly.  The intersection oracles read enumerated
levels but not the store's face map: one searches every edge count for a
graph lying on all divisors, the other scans a whole level.  The delta
oracle builds and keys each one-edge smoothing instead of reading divisors
off the graph.  The generation oracle builds every child of every parent,
with no least-label rejection, and keys each one; the least-label oracle
keys each child whose new edge has the least label, with no move classes.
The divisor oracle keys every stable one-edge candidate graph instead of
keying by description, and the divisor-count oracle sums over mark counts
where the library uses a closed form.
The facet oracle tests every face against every face one size up.

The rest are test-side forms of things the library does one way:
isomorphism is ``canonical_key`` equality, smoothing one edge is
``smooth_set`` of one edge, nonemptiness is ``intersection_components``,
and :func:`flag_witness` runs the library's clique walk on a built complex
where ``flag_verdict`` runs it on the store's face map.  :func:`to_json`
is a graph's compact ``dualgraph/1`` text, the form the CLI reads.  The
genus-1 reduction (:func:`sigma`) maps tree-type (1, n) strata to (0, n+2).
"""

from __future__ import annotations

import json
from itertools import chain, combinations, combinations_with_replacement, permutations, product
from math import comb
from typing import NamedTuple

from strata import (
    BoundaryComplex,
    DivisorSet,
    DualGraph,
    GnSignature,
    StratumStore,
    canonical_key,
    divisor_set,
    intersection_components,
)
from strata.complexes import _flag_walk
from strata.graphs import _edge_sides, divisor_graph


def to_json(G: DualGraph) -> str:
    return json.dumps(G.to_json_obj(), sort_keys=True, separators=(",", ":"))


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


def is_isomorphic(G: DualGraph, H: DualGraph) -> bool:
    """Isomorphism fixing legs pointwise, permuting vertices and edges."""
    return canonical_key(G) == canonical_key(H)


def has_loop(G: DualGraph) -> bool:
    return any(i == j for i, j in G.edges)


def smooth(G: DualGraph, edge_id: int) -> DualGraph:
    """Smooth a single edge (merge endpoints, or turn a loop into genus)."""
    return G.smooth_set((edge_id,))


def delta(G: DualGraph, edge_id: int) -> DualGraph:
    """The one-edge graph left after smoothing every other edge of ``G``."""
    if not (0 <= edge_id < G.num_edges):
        raise ValueError(f"invalid edge id {edge_id}")
    return G.smooth_set(e for e in range(G.num_edges) if e != edge_id)


def delta_multiset(G: DualGraph) -> tuple[bytes, ...]:
    """Reference for ``DualGraph.delta_multiset``: key every one-edge smoothing."""
    if G.num_edges == 0:
        raise ValueError("delta multiset of an edgeless graph")
    return tuple(sorted(canonical_key(delta(G, e)) for e in range(G.num_edges)))


def oracle_divisors(g: int, n: int) -> dict[bytes, DualGraph]:
    """Reference for ``StratumStore.divisors``: key every stable candidate, in key order.

    The candidates are the loop graph (genus g-1, one loop, all legs), then
    each split (a, A) -- (g-a, complement) by a, |A| and A.  The first
    candidate of each class represents it; keying removes the swap symmetry.
    """
    found: dict[bytes, DualGraph] = {}
    if 3 * g - 3 + n >= 1:
        splits = (
            (a, A)
            for a in range(g + 1)
            for size in range(n + 1)
            for A in combinations(range(1, n + 1), size)
        )
        for side in chain([None] if g >= 1 else [], splits):
            G = divisor_graph(g, n, side)
            if G.is_stable():
                found.setdefault(canonical_key(G), G)
    return dict(sorted(found.items()))


def oracle_divisor_count(g: int, n: int) -> int:
    """Reference for ``graphs._divisor_count``: sum over the mark count ``s`` of one side.

    A side of genus ``a`` in 0..g is unstable at ``a = 0`` if ``s < 2``, its
    complement at ``a = g`` if ``n - s < 2``.  Each split is counted from
    both sides, except the n = 0, a = g/2 split, which is its own swap.
    """
    ordered = sum(comb(n, s) * (g + 1 - (s < 2) - (n - s < 2)) for s in range(n + 1))
    return (g >= 1) + (ordered + (n == 0 and g % 2 == 0)) // 2


def oracle_split_children(G: DualGraph, v: int):
    """Every stable split of vertex ``v`` as ``(a1, mask, child)``, built and checked.

    Each item incident to v (a leg, a non-loop edge end, or either end of a
    loop) is assigned to one of the two halves: ``v`` keeps genus ``a1`` and
    the unset items, the new vertex the rest.  (genus, assignment) and its
    mirror give isomorphic children, so only half the range is generated.
    """
    a = G.genus[v]
    legs_here = [m for m, w in enumerate(G.legs) if w == v]
    ends: list[tuple[int, int]] = []
    for e, (i, j) in enumerate(G.edges):
        if i == v:
            ends.append((e, 0))
        if j == v:
            ends.append((e, 1))
    items = len(legs_here) + len(ends)
    new = G.num_vertices
    for a1 in range(a // 2 + 1):
        a2 = a - a1
        for mask in range(1 << items):
            if a1 == a2 and mask > (~mask & ((1 << items) - 1)):
                continue
            genus = list(G.genus) + [a2]
            genus[v] = a1
            side = {}
            for t, item in enumerate(ends):
                side[item] = new if mask >> (len(legs_here) + t) & 1 else v
            edges = []
            for e, (i, j) in enumerate(G.edges):
                i2 = side.get((e, 0), i) if i == v else i
                j2 = side.get((e, 1), j) if j == v else j
                edges.append((i2, j2))
            edges.append((v, new))
            legs = list(G.legs)
            for t, m in enumerate(legs_here):
                if mask >> t & 1:
                    legs[m] = new
            child = DualGraph(tuple(genus), edges, tuple(legs))
            if child.is_stable():
                yield a1, mask, child


def oracle_move_class(G: DualGraph, v: int, a1: int, mask: int) -> tuple:
    """The class of one :func:`oracle_split_children` move; moves of one class give isomorphic children.

    The class is the marks moved, per far end ``w != v`` how many of ``v``'s
    ends to ``w`` move (parallel edges are interchangeable), and the sorted
    per-loop counts of moved loop ends (a loop's two ends are
    interchangeable, and so are the loops at ``v``).  When both halves get
    equal genus, it is the lesser of the class and its mirror's.
    """
    legs_here = [m for m, w in enumerate(G.legs) if w == v]
    ends = [e for e, (i, j) in enumerate(G.edges) for u in (i, j) if u == v]

    def move_class(m: int) -> tuple:
        far: dict[int, int] = {}
        loops: dict[int, int] = {}
        for t, e in enumerate(ends, len(legs_here)):
            i, j = G.edges[e]
            count = loops if i == j else far
            side = e if i == j else i + j - v
            count[side] = count.get(side, 0) + (m >> t & 1)
        moved = tuple(mark for t, mark in enumerate(legs_here) if m >> t & 1)
        return moved, tuple(sorted(far.items())), tuple(sorted(loops.values()))

    cls = move_class(mask)
    if 2 * a1 == G.genus[v]:
        cls = min(cls, move_class(~mask & ((1 << len(legs_here) + len(ends)) - 1)))
    return cls


def oracle_loop_children(G: DualGraph):
    """Children obtained by trading one unit of genus at a vertex for a loop."""
    for v, g in enumerate(G.genus):
        if g == 0 or g == 1 and G.valence(v) + 2 < 3:
            continue
        genus = list(G.genus)
        genus[v] = g - 1
        yield DualGraph(tuple(genus), G.edges + ((v, v),), G.legs)


def oracle_children(G: DualGraph):
    """Every stable one-edge-deeper degeneration of ``G``, duplicates and all."""
    for v in range(G.num_vertices):
        for _, _, child in oracle_split_children(G, v):
            yield child
    yield from oracle_loop_children(G)


def oracle_level(parents) -> dict[bytes, DualGraph]:
    """The level above ``parents``, keying every child: key -> first child, in key order."""
    found: dict[bytes, DualGraph] = {}
    for G in parents:
        for child in oracle_children(G):
            found.setdefault(canonical_key(child), child)
    return dict(sorted(found.items()))


def least_is_last(sides) -> bool:
    """Whether the last edge has the least label: ``None`` first, then (genus, marks)."""
    ranks = [(-1, 0) if side is None else side for side in sides]
    return ranks[-1] == min(ranks)


def least_label_level(parents) -> dict[bytes, DualGraph]:
    """The level above ``parents`` under least-label rejection: first child per key, in key order.

    Every child of :func:`oracle_children` whose new edge (the last) has the
    least :func:`_edge_sides` label is keyed, with no move-class pruning.
    """
    found: dict[bytes, DualGraph] = {}
    for G in parents:
        for child in oracle_children(G):
            if least_is_last(_edge_sides(child)):
                found.setdefault(canonical_key(child), child)
    return dict(sorted(found.items()))


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


def intersect_nonempty_superset(S: DivisorSet, store: StratumStore) -> bool:
    """Slow cross-check: does any stratum lie on every divisor of ``S``?

    Scans all edge counts for a graph whose divisor support contains ``S``;
    must agree with ``intersect_nonempty`` (redundant edges of such a graph
    can be smoothed away one at a time).
    """
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


def oracle_facets(faces) -> tuple[tuple[int, ...], ...]:
    """Reference for ``BoundaryComplex.facets``: the pairwise scan over adjacent sizes."""
    out = []
    for j in sorted(faces, reverse=True):
        bigger = faces.get(j + 1, frozenset())
        for face in faces[j]:
            if not any(face < other for other in bigger):
                out.append(tuple(sorted(face)))
    return tuple(sorted(out))


def is_face(C: BoundaryComplex, indices) -> bool:
    face = frozenset(indices)
    return face in C.faces.get(len(face), frozenset())


def flag_witness(C: BoundaryComplex) -> tuple[bytes, ...] | None:
    """The eager twin of ``flag_verdict``: the same clique walk on a built complex.

    Returns the least non-face clique as sorted divisor keys, ``None`` for a
    flag complex.  Raises ``ValueError`` when ``C`` was built too shallow for
    the verdict to be determined (only possible for truncated complexes):
    below size 2, where the 1-skeleton itself is missing, or below a clique
    the walk reaches.  The build depth is the largest face size listed.
    """
    depth = max(C.faces, default=0)
    if depth < 2 <= min(C.signature.dim, len(C.vertices)):
        raise ValueError(f"complex truncated at max_dim={depth}; it has no 1-skeleton")
    index = {key: i for i, key in enumerate(C.vertices)}

    def face_test(face: frozenset[bytes]) -> bool:
        if len(face) > depth:
            raise ValueError(
                f"complex truncated at max_dim={depth}; "
                f"flag check reached a clique of size {len(face)}"
            )
        return is_face(C, (index[key] for key in face))

    edges = (frozenset(C.vertices[i] for i in edge) for edge in C.faces.get(2, ()))
    return _flag_walk(edges, face_test, C.signature.dim)


def intersect_nonempty(S: DivisorSet, store: StratumStore) -> bool:
    return intersection_components(S, store).nonempty


class WitnessProbe(NamedTuple):
    clique: tuple[bytes, ...]
    is_face: bool
    components: tuple[DualGraph, ...]
    pairwise_ok: bool


def witness_for(sig: GnSignature, keys, store: StratumStore) -> WitnessProbe:
    """Face verdict, components, and pairwise status for any divisor set."""
    S = divisor_set(sig, keys, store)
    report = intersection_components(S, store)
    pairwise = all(
        intersect_nonempty(DivisorSet(sig, (a, b)), store)
        for i, a in enumerate(S.keys)
        for b in S.keys[i + 1 :]
    )
    return WitnessProbe(
        clique=S.keys,
        is_face=report.nonempty,
        components=report.components,
        pairwise_ok=pairwise,
    )


# -- the genus-1 reduction ----------------------------------------------------


def is_tree_type(G: DualGraph) -> bool:
    """True when ``G`` has no nonseparating edges, i.e. is a tree."""
    return G.num_edges == G.num_vertices - 1


def sigma(G: DualGraph) -> DualGraph:
    """Replace the genus-1 vertex of a tree-type genus-1 graph by a marked one.

    The vertex's genus drops to 0 and two new legs n+1, n+2 land on it; the
    result is a stable genus-0 graph with the same edge structure.
    """
    if G.total_genus != 1:
        raise ValueError("sigma needs a graph of total genus 1")
    if not is_tree_type(G):
        raise ValueError("sigma needs a tree-type graph")
    v = G.genus.index(1)
    genus = list(G.genus)
    genus[v] = 0
    return DualGraph(tuple(genus), G.edges, G.legs + (v, v))


def sigma_inverse(H: DualGraph) -> DualGraph:
    """Undo :func:`sigma`: strip the top two marks and restore genus 1.

    ``H`` must have total genus 0 with its two highest marks on a common
    vertex.
    """
    if H.total_genus != 0:
        raise ValueError("sigma_inverse needs a graph of total genus 0")
    if H.n < 2:
        raise ValueError("sigma_inverse needs at least two marks")
    v = H.legs[-1]
    if H.legs[-2] != v:
        raise ValueError("the two highest marks must share a vertex")
    genus = list(H.genus)
    genus[v] += 1
    return DualGraph(tuple(genus), H.edges, H.legs[:-2])
