"""Genus-decorated multigraphs with labeled legs and their smoothing calculus.

A :class:`DualGraph` records the combinatorial type of a nodal curve: one
vertex per component (decorated with its geometric genus), one edge per node
(loops allowed), and one numbered leg per marked point.  Everything here is
an immutable value; the operations (smoothing, degeneration tests) return
new graphs.  Every graph holds the one :func:`_shared` tuple of each of its
edge pairs, of its genus vector and of each edge label it carries, so many
graphs store each value once.

Isomorphism fixes leg labels pointwise and may permute vertices and parallel
edges.  :func:`canonical_key` assigns each isomorphism class a unique byte
string, so keys double as dictionary keys and as a deterministic total order.
It colours vertices by genus, valence and legs, refines the colouring by
neighbour colours and individualizes vertices of cells that stay shared;
graphs whose first colours are all distinct skip that search.  Keys are
computed afresh on every call; nothing caches them.

The one-edge smoothing of an edge (the divisor its node lies on) is read off
the graph without building it: an edge on a cycle smooths to the irreducible
divisor, a bridge to the split of genus and marks between its two sides.
One spanning-tree pass finds every bridge and its sides, and the divisor
table of the signature (:func:`_divisor_table`, the one place divisors are
built and keyed) turns each description into the divisor's canonical key.
A generated graph carries its labels from its parent instead.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

GRAPH_SCHEMA = "dualgraph/1"

# Signatures excluded even though 3g-3+n >= 0 would allow them.
_NONEXISTENT = {(1, 0)}

_SHARED: dict[tuple[int, ...], tuple[int, ...]] = {}  # exact ints only, as (True,) == (1,)


def _shared(t: tuple[int, ...]) -> tuple[int, ...]:
    """The one object of ``t``'s value that graphs hold: edge pairs, genus vectors, labels."""
    return _SHARED.setdefault(t, t)


class InvalidSignatureError(ValueError):
    """Raised when a (g, n) pair does not denote an existing moduli problem."""


@dataclass(frozen=True, order=True)
class GnSignature:
    """A genus/mark-count pair with the standard existence condition."""

    g: int
    n: int

    def __post_init__(self) -> None:
        if type(self.g) is not int or type(self.n) is not int:
            raise InvalidSignatureError("genus and mark count must be integers")
        if self.g < 0 or self.n < 0:
            raise InvalidSignatureError(f"negative signature ({self.g},{self.n})")
        if 3 * self.g - 3 + self.n < 0 or (self.g, self.n) in _NONEXISTENT:
            raise InvalidSignatureError(
                f"no moduli space for (g,n)=({self.g},{self.n})"
            )

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n

    def __str__(self) -> str:
        return f"({self.g},{self.n})"


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class DualGraph:
    """A connected multigraph with vertex genera and labeled legs.

    ``genus[v]`` is the decoration of vertex ``v``; ``edges`` is a sequence
    of unordered pairs ``(i, j)`` with ``i <= j`` (loops as ``(i, i)``) whose
    positions serve as stable edge ids; ``legs[m-1]`` is the vertex carrying
    mark ``m``.  Edge order is preserved as given so that ids stay meaningful
    across smoothing; exports sort edges canonically.

    Equality is positional (same genera, same edge sequence, same legs);
    isomorphic graphs are those with equal :func:`canonical_key`.
    """

    genus: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]
    _sides = None  # edge labels carried from a parent; see :func:`_edge_sides`

    def __post_init__(self) -> None:
        genus, legs, edges = tuple(self.genus), tuple(self.legs), [(i, j) for i, j in self.edges]
        if not set(map(type, genus + legs + tuple(itertools.chain.from_iterable(edges)))) <= {int}:
            raise ValueError("genera, edge ends and leg vertices must be integers")
        V = len(genus)
        if V < 1:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in genus):
            raise ValueError("vertex genera must be nonnegative")
        for i, j in edges:
            if not (0 <= i < V and 0 <= j < V):
                raise ValueError(f"edge ({i},{j}) has an invalid endpoint")
        for v in legs:
            if not (0 <= v < V):
                raise ValueError(f"leg on invalid vertex {v}")
        parent = list(range(V))
        for i, j in edges:
            ri, rj = _root(parent, i), _root(parent, j)
            if ri != rj:
                parent[ri] = rj
        if len({_root(parent, v) for v in range(V)}) != 1:
            raise ValueError("graph is not connected")
        object.__setattr__(self, "genus", _shared(genus))
        edges = tuple([_shared((i, j) if i <= j else (j, i)) for i, j in edges])
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)

    @classmethod
    def _trusted(cls, genus: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 legs: tuple[int, ...], sides: tuple | None = None) -> DualGraph:
        """Build without validation; edges arrive normalised to ``i <= j`` and :func:`_shared`.

        Only for graphs made from a valid graph by a move that keeps it
        valid, such as a vertex split or an added loop.  Input read from
        outside goes through the validating constructor.  The genus vector
        is shared here.  ``sides`` are the new graph's :func:`_edge_sides`
        labels, carried from its parent.
        """
        G = object.__new__(cls)  # attributes kept inline: vars(G) would give each graph a dict
        object.__setattr__(G, "genus", _shared(genus))
        object.__setattr__(G, "edges", edges)
        object.__setattr__(G, "legs", legs)
        object.__setattr__(G, "_sides", sides)
        return G

    # -- basic shape ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.genus)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        """Number of marks (legs are labeled 1..n)."""
        return len(self.legs)

    @property
    def total_genus(self) -> int:
        """Arithmetic genus: sum of decorations plus first Betti number."""
        return sum(self.genus) + self.num_edges - self.num_vertices + 1

    @property
    def signature(self) -> GnSignature:
        return GnSignature(self.total_genus, self.n)

    def valence(self, v: int) -> int:
        """Special points at ``v``: legs plus edge ends (a loop counts twice)."""
        ends = sum((i == v) + (j == v) for i, j in self.edges)
        return ends + sum(1 for w in self.legs if w == v)

    def is_stable(self) -> bool:
        """Genus-0 vertices need valence >= 3, genus-1 vertices >= 1."""
        val = [0] * self.num_vertices  # as in enumeration._vertex_tables; kept inline for speed
        for i, j in self.edges:
            val[i] += 1
            val[j] += 1
        for v in self.legs:
            val[v] += 1
        return all(g >= 2 or val[v] >= (1 if g else 3) for v, g in enumerate(self.genus))

    # -- smoothing --------------------------------------------------------

    def smooth_set(self, edge_ids: Iterable[int]) -> DualGraph:
        """Smooth every edge in ``edge_ids`` simultaneously.

        Vertices joined by smoothed edges merge into one vertex of genus
        1 + sum(genus - 1) over them + the smoothed edges among them (the
        merged genera plus the cycle rank).  Merged vertices are numbered by
        their least old vertex, and surviving edges keep their relative order.
        """
        F = set(edge_ids)
        for e in F:
            if not (0 <= e < self.num_edges):
                raise ValueError(f"invalid edge id {e}")
        parent = list(range(self.num_vertices))
        for e in F:
            i, j = self.edges[e]
            ri, rj = _root(parent, i), _root(parent, j)
            if ri != rj:
                parent[ri] = rj
        ids: dict[int, int] = {}
        new_id = [ids.setdefault(_root(parent, v), len(ids)) for v in range(self.num_vertices)]
        new_genus = [1] * len(ids)
        for v, t in enumerate(new_id):
            new_genus[t] += self.genus[v] - 1
        for e in F:
            new_genus[new_id[self.edges[e][0]]] += 1
        new_edges = tuple(
            (new_id[i], new_id[j])
            for e, (i, j) in enumerate(self.edges)
            if e not in F
        )
        new_legs = tuple(new_id[v] for v in self.legs)
        return DualGraph(tuple(new_genus), new_edges, new_legs)

    def delta_support(self) -> frozenset[bytes]:
        """The set of boundary divisors containing this graph's stratum.

        An edge whose smoothing is not a stable divisor (possible only in an
        unstable graph) raises ``ValueError``.
        """
        if not self.edges:
            raise ValueError("delta multiset of an edgeless graph")
        keys = _divisor_table(self.total_genus, len(self.legs))[1]
        try:
            return frozenset([keys[side] for side in _edge_sides(self)])
        except KeyError:
            raise ValueError(f"an edge of {self.describe()} smooths to no stable divisor") from None

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA,
            "genus": list(self.genus),
            "edges": sorted([i, j] for i, j in self.edges),
            "legs": {str(m + 1): v for m, v in enumerate(self.legs)},
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> DualGraph:
        """Parse the ``dualgraph/1`` form; a missing field or a wrong type raises ``ValueError``."""
        if not isinstance(obj, dict) or obj.get("schema") != GRAPH_SCHEMA:
            raise ValueError(f"expected schema {GRAPH_SCHEMA!r}")
        genus, pairs, leg_map = obj.get("genus"), obj.get("edges"), obj.get("legs")
        if not (isinstance(genus, list) and isinstance(pairs, list) and isinstance(leg_map, dict)):
            raise ValueError("dualgraph needs a genus list, an edges list and a legs object")
        try:
            edges = [(i, j) for i, j in pairs]
        except (TypeError, ValueError):
            raise ValueError("each edge must be a pair of vertices") from None
        n = len(leg_map)
        if set(leg_map) != {str(m) for m in range(1, n + 1)}:
            raise ValueError("legs must be labeled exactly 1..n")
        return cls(tuple(genus), tuple(edges), tuple(leg_map[str(m)] for m in range(1, n + 1)))

    @classmethod
    def from_json(cls, text: str) -> DualGraph:
        """Parse ``dualgraph/1`` text; JSON nested too deeply to parse raises ``ValueError``."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return cls.from_json_obj(obj)

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``g=[1,0] E=[0-1,1-1] legs={1:1,2:1}``."""
        es = ",".join(f"{i}-{j}" for i, j in sorted(self.edges))
        ls = ",".join(f"{m + 1}:{v}" for m, v in enumerate(self.legs))
        gs = ",".join(map(str, self.genus))
        return f"g=[{gs}] E=[{es}] legs={{{ls}}}"


# -- canonical form ---------------------------------------------------------


def _relabeled(G: DualGraph, new_id: Sequence[int]) -> tuple:
    """Encoding of ``G`` after sending old vertex ``v`` to ``new_id[v]``."""
    genus = [0] * G.num_vertices
    for old, new in enumerate(new_id):
        genus[new] = G.genus[old]
    edges = [(new_id[i], new_id[j]) for i, j in G.edges]
    edges = [(i, j) if i <= j else (j, i) for i, j in edges]
    edges.sort()
    return genus, edges, [new_id[v] for v in G.legs]


def _encode(encoding: tuple) -> bytes:
    genus, edges, legs = encoding
    return (
        "g" + ",".join(map(str, genus))
        + ";e" + ",".join(["%d-%d" % e for e in edges])
        + ";l" + ",".join(map(str, legs))
    ).encode("ascii")


def _leaves(
    colour: list[int], nbrs: list[list[tuple[int, int]]], scale: int
) -> Iterator[list[int]]:
    """Discrete colourings at the leaves of the individualization tree, every one of them.

    ``colour`` holds dense ranks, ``nbrs[v]`` the (neighbour, multiplicity)
    pairs of ``v``, each multiplicity below ``scale``.  Rounds recolour ``v``
    by the rank of (its colour, sorted ``colour * scale + multiplicity`` of
    its neighbours, which sort as the pairs do) until the cell count stops
    growing; ranks of invariant values keep the cell order invariant.  Then
    each vertex of the first non-singleton cell in turn is put ahead of the
    rest of its cell and the search recurses.  A leaf maps ``v`` to
    ``colour[v]``.  Nothing is pruned by automorphisms: the tests read the
    automorphism group from the leaves with the least encoding.
    """
    cells, grown = len(set(colour)), True
    while grown and cells < len(colour):
        sig = [
            (colour[v], tuple(sorted([colour[w] * scale + m for w, m in nv])))
            for v, nv in enumerate(nbrs)
        ]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        cells, grown = len(rank), len(rank) > cells
    if cells == len(colour):
        yield colour
        return
    target = min(c for c in colour if colour.count(c) > 1)
    for v in [v for v, c in enumerate(colour) if c == target]:
        split = [c + (c > target or (c == target and u != v)) for u, c in enumerate(colour)]
        yield from _leaves(split, nbrs, scale)


def canonical_key(G: DualGraph) -> bytes:
    """Canonical byte key of the isomorphism class of ``G``.

    Vertices are coloured by the rank of (genus, valence, incident leg
    labels).  If these colours are all distinct, as when every vertex
    carries a leg, the one ordering they give is encoded at once, before any
    neighbour table is built (the search's only leaf; without this shortcut
    cold verdicts of (0,8) and (1,6) run about a tenth slower).  Otherwise
    the key is the minimum relabeled encoding over the leaves of a refine
    and individualize search (:func:`_leaves`; McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  Each step depends only on the coloured
    graph, so isomorphic graphs reach the same leaf encodings; each leaf
    relabels ``G``, so equal keys mean isomorphic graphs.
    """
    V = G.num_vertices
    valence = [0] * V
    for i, j in G.edges:
        valence[i] += 1
        valence[j] += 1
    legs_at: list[list[int]] = [[] for _ in range(V)]
    for m, v in enumerate(G.legs):
        legs_at[v].append(m + 1)
    invariant = [(G.genus[v], valence[v] + len(ls), tuple(ls)) for v, ls in enumerate(legs_at)]
    rank = {inv: r for r, inv in enumerate(sorted(set(invariant)))}
    colour = [rank[inv] for inv in invariant]
    if len(rank) == V:
        return _encode(_relabeled(G, colour))
    nbrs: list[dict[int, int]] = [{} for _ in range(V)]
    for i, j in G.edges:
        nbrs[i][j] = nbrs[i].get(j, 0) + 1
        if i != j:
            nbrs[j][i] = nbrs[j].get(i, 0) + 1
    pairs = [list(nv.items()) for nv in nbrs]
    return _encode(min(_relabeled(G, leaf) for leaf in _leaves(colour, pairs, G.num_edges + 1)))


# -- one-edge smoothings ----------------------------------------------------


def _bridge_label(W: int, M: int, g: int, full: int) -> tuple[int, int]:
    """The bridge label of :func:`_edge_sides` from one side's weight ``W`` and marks ``M``."""
    return min(((W + 1) // 2, M), (g - (W + 1) // 2, full ^ M))


def _edge_sides(G: DualGraph) -> tuple[tuple[int, int] | None, ...]:
    """Per edge, the divisor its one-edge smoothing lands on, as a description.

    ``None`` (the loop divisor) for an edge on a cycle; for a bridge, the
    lesser of the (genus, mark bitmask) pairs of its two sides.  A spanning
    tree is grown from vertex 0 and each edge off it gets its own bit; a tree
    edge is a bridge exactly when those bits XOR to zero over the subtree
    below it, i.e. no edge off the tree leaves that subtree.  A side of
    genus ``a`` has ``2a - 1`` equal to the sum of ``2 * genus + edge ends -
    2`` over its vertices.  A generated graph's carried labels come back as is.
    """
    if G._sides is not None:
        return G._sides
    genus, edges, legs = G.genus, G.edges, G.legs
    V = len(genus)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for e, (i, j) in enumerate(edges):
        if i != j:
            nbrs[i].append((j, e))
            nbrs[j].append((i, e))
    parent, up = [0] + [-1] * (V - 1), [-1] * V
    order = [0]
    for v in order:
        for w, e in nbrs[v]:
            if parent[w] < 0:
                parent[w], up[w] = v, e
                order.append(w)
    cut, weight = [0] * V, [2 * x - 2 for x in genus]
    for e, (i, j) in enumerate(edges):
        weight[i] += 1
        weight[j] += 1
        if i != j and up[i] != e and up[j] != e:
            cut[i] ^= 1 << e
            cut[j] ^= 1 << e
    marks = [0] * V
    for m, v in enumerate(legs):
        marks[v] |= 1 << m
    g, full = G.total_genus, (1 << len(legs)) - 1
    sides: list[tuple[int, int] | None] = [None] * len(edges)
    for v in reversed(order[1:]):
        if not cut[v]:
            sides[up[v]] = _bridge_label(weight[v], marks[v], g, full)
        p = parent[v]
        cut[p] ^= cut[v]
        weight[p] += weight[v]
        marks[p] |= marks[v]
    return tuple(sides)


def _key_ordered(found: Mapping[bytes, DualGraph]) -> Mapping[bytes, DualGraph]:
    """A read-only copy of ``found`` in key order: a divisor table or a level."""
    return MappingProxyType(dict(sorted(found.items())))


@lru_cache(maxsize=16)
def _divisor_table(
    g: int, n: int
) -> tuple[Mapping[bytes, DualGraph], dict[tuple[int, int] | None, bytes]]:
    """The boundary divisors of (g, n): graph by key in key order, and key by description.

    Every stable :func:`divisor_graph` is a divisor: the loop graph, then
    each split (a, A) by a, |A| and A; the first candidate of each class
    represents it.  A divisor's description is the :func:`_edge_sides` label
    of its one edge, so a split and its swap share one.  The sides of a
    bridge in a stable graph are stable, so every edge of a stable graph
    has its description here.  The 16 signatures used last keep their
    table; every store shares it, so the graph map is read-only.
    """
    graphs: dict[bytes, DualGraph] = {}
    keys: dict[tuple[int, int] | None, bytes] = {}
    splits = (
        (a, A)
        for a in range(g + 1)
        for size in range(n + 1)
        for A in combinations(range(1, n + 1), size)
    )
    for side in itertools.chain([None] if g >= 1 else [], splits):
        G = divisor_graph(g, n, side)
        if G.is_stable():
            description = _edge_sides(G)[0]
            if description not in keys:
                keys[description] = key = canonical_key(G)
                graphs[key] = G
    return _key_ordered(graphs), keys


def _divisor_count(g: int, n: int) -> int:
    """The number of boundary divisors of (g, n), without building :func:`_divisor_table`.

    The loop divisor (g >= 1), then the splits counted by the marks of one
    side and the genus ``a`` in 0..g of that side: ``(g + 1) * 2**n`` of
    them.  The side is unstable at ``a = 0`` with fewer than 2 marks, its
    complement at ``a = g`` with more than n - 2, which drops ``n + 1`` each;
    at g = 0 the two never hold together, as n >= 3.  Each split is counted
    from both of its sides, except the n = 0, a = g/2 split, its own swap.
    """
    ordered = (g + 1 << n) - 2 * (n + 1)
    return (g >= 1) + (ordered + (n == 0 and g % 2 == 0)) // 2


def key_to_hex(key: bytes) -> str:
    return key.hex()


def key_from_hex(text: str) -> bytes:
    return bytes.fromhex(text)


def is_degeneration(G: DualGraph, H: DualGraph) -> bool:
    """True when smoothing some edge subset of ``G`` yields ``H``.

    Smoothing preserves total genus and drops the edge count by exactly the
    number of smoothed edges, so only subsets of size |E(G)| - |E(H)| can
    work.
    """
    if G.n != H.n or G.total_genus != H.total_genus:
        return False
    drop = G.num_edges - H.num_edges
    if drop < 0:
        return False
    target = canonical_key(H)
    for F in combinations(range(G.num_edges), drop):
        if canonical_key(G.smooth_set(F)) == target:
            return True
    return False


# -- convenient constructors -------------------------------------------------


def one_vertex(genus: int, n: int, loops: int = 0) -> DualGraph:
    """Single vertex of the given genus carrying legs 1..n and ``loops`` loops."""
    return DualGraph((genus,), tuple((0, 0) for _ in range(loops)), (0,) * n)


def two_vertex_divisor(
    g1: int, legs1: Iterable[int], g2: int, legs2: Iterable[int]
) -> DualGraph:
    """The one-edge graph (g1, legs1) -- (g2, legs2); legs are mark labels."""
    return chain([(g1, legs1), (g2, legs2)])


def divisor_graph(g: int, n: int, side: tuple[int, Iterable[int]] | None) -> DualGraph:
    """The one-edge graph of (g, n) with the given description.

    ``None`` is the irreducible divisor: one vertex of genus g-1 with a loop
    and every leg.  ``(a, A)`` is the split with a genus-``a`` side carrying
    marks ``A`` and the rest on a genus ``g - a`` side.  Stability is not
    checked.
    """
    if side is None:
        return one_vertex(g - 1, n, loops=1)
    a, A = side
    A = set(A)
    return two_vertex_divisor(a, A, g - a, [m for m in range(1, n + 1) if m not in A])


def chain(pieces: Iterable[tuple[int, Iterable[int]]], loop_at_end: bool = False) -> DualGraph:
    """A path of vertices given as (genus, mark labels), optionally ending in a loop."""
    items = [(g, tuple(marks)) for g, marks in pieces]
    V = len(items)
    genus = tuple(g for g, _ in items)
    edges = [(v, v + 1) for v in range(V - 1)]
    if loop_at_end:
        edges.append((V - 1, V - 1))
    marks = {m: v for v, (_, ms) in enumerate(items) for m in ms}
    n = len(marks)
    if n < sum(len(ms) for _, ms in items):
        raise ValueError("mark label listed more than once")
    if set(marks) != set(range(1, n + 1)):
        raise ValueError("mark labels must be 1..n")
    legs = tuple(marks[m] for m in range(1, n + 1))
    return DualGraph(genus, tuple(edges), legs)
