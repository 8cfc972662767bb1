"""Genus-decorated multigraphs with labeled legs and their smoothing calculus.

A :class:`DualGraph` records the combinatorial type of a nodal curve: one
vertex per component (decorated with its geometric genus), one edge per node
(loops allowed), and one numbered leg per marked point.  Everything here is
an immutable value; the operations (smoothing, contraction to one-edge
graphs, degeneration tests) return new graphs.

Isomorphism fixes leg labels pointwise and may permute vertices and parallel
edges.  :func:`canonical_key` assigns each isomorphism class a unique byte
string, so keys double as dictionary keys and as a deterministic total order.
It colours vertices by genus, valence and legs, refines the colouring by
neighbour colours and individualizes vertices of cells that stay shared;
graphs whose first colours are all distinct skip that search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

GRAPH_SCHEMA = "dualgraph/1"

# Signatures excluded even though 3g-3+n >= 0 would allow them.
_NONEXISTENT = {(1, 0)}


class InvalidSignatureError(ValueError):
    """Raised when a (g, n) pair does not denote an existing moduli problem."""


@dataclass(frozen=True, order=True)
class GnSignature:
    """A genus/mark-count pair with the standard existence condition."""

    g: int
    n: int

    def __post_init__(self) -> None:
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

    Equality is positional (same genera, same edge sequence, same legs); use
    :func:`is_isomorphic` or :func:`canonical_key` for isomorphism.
    """

    genus: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __post_init__(self) -> None:
        genus = tuple(self.genus)
        edges = tuple((i, j) if i <= j else (j, i) for i, j in self.edges)
        legs = tuple(self.legs)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)
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
        val = [0] * self.num_vertices
        for i, j in self.edges:
            val[i] += 1
            val[j] += 1
        for v in self.legs:
            val[v] += 1
        return all(g >= 2 or val[v] >= (1 if g else 3) for v, g in enumerate(self.genus))

    def has_loop(self) -> bool:
        return any(i == j for i, j in self.edges)

    # -- smoothing --------------------------------------------------------

    def smooth_set(self, edge_ids: Iterable[int]) -> DualGraph:
        """Smooth every edge in ``edge_ids`` simultaneously.

        Vertices joined by smoothed edges merge into one vertex whose genus
        is the sum of the merged genera plus the cycle rank of the smoothed
        subgraph on them (each smoothed loop adds one).  The surviving edges
        keep their relative order.
        """
        F = set(edge_ids)
        for e in F:
            if not (0 <= e < self.num_edges):
                raise ValueError(f"invalid edge id {e}")
        V = self.num_vertices
        parent = list(range(V))
        for e in F:
            i, j = self.edges[e]
            ri, rj = _root(parent, i), _root(parent, j)
            if ri != rj:
                parent[ri] = rj
        members: dict[int, list[int]] = {}
        for v in range(V):
            members.setdefault(_root(parent, v), []).append(v)
        classes = sorted(members.values(), key=min)
        new_id = {v: t for t, cls in enumerate(classes) for v in cls}
        new_genus = []
        for cls in classes:
            inner = sum(1 for e in F if new_id[self.edges[e][0]] == new_id[cls[0]])
            cycle_rank = inner - len(cls) + 1
            new_genus.append(sum(self.genus[v] for v in cls) + cycle_rank)
        new_edges = tuple(
            (new_id[i], new_id[j])
            for e, (i, j) in enumerate(self.edges)
            if e not in F
        )
        new_legs = tuple(new_id[v] for v in self.legs)
        return DualGraph(tuple(new_genus), new_edges, new_legs)

    def smooth(self, edge_id: int) -> DualGraph:
        """Smooth a single edge (merge endpoints, or turn a loop into genus)."""
        return self.smooth_set((edge_id,))

    def delta(self, edge_id: int) -> DualGraph:
        """The one-edge graph left after smoothing every other edge."""
        if not (0 <= edge_id < self.num_edges):
            raise ValueError(f"invalid edge id {edge_id}")
        return self.smooth_set(e for e in range(self.num_edges) if e != edge_id)

    def delta_multiset(self) -> tuple[bytes, ...]:
        """Keys of the one-edge smoothings, one per edge, sorted (a multiset)."""
        if self.num_edges == 0:
            raise ValueError("delta multiset of an edgeless graph")
        return tuple(
            sorted(canonical_key(self.delta(e)) for e in range(self.num_edges))
        )

    def delta_support(self) -> frozenset[bytes]:
        """The set of boundary divisors containing this graph's stratum."""
        return frozenset(self.delta_multiset())

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA,
            "genus": list(self.genus),
            "edges": sorted([i, j] for i, j in self.edges),
            "legs": {str(m + 1): v for m, v in enumerate(self.legs)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> DualGraph:
        if not isinstance(obj, dict) or obj.get("schema") != GRAPH_SCHEMA:
            raise ValueError(f"expected schema {GRAPH_SCHEMA!r}")
        genus = tuple(obj["genus"])
        edges = tuple((int(i), int(j)) for i, j in obj["edges"])
        leg_map = obj["legs"]
        n = len(leg_map)
        if set(leg_map) != {str(m) for m in range(1, n + 1)}:
            raise ValueError("legs must be labeled exactly 1..n")
        legs = tuple(int(leg_map[str(m)]) for m in range(1, n + 1))
        return cls(genus, edges, legs)

    @classmethod
    def from_json(cls, text: str) -> DualGraph:
        return cls.from_json_obj(json.loads(text))

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``g=[1,0] E=[0-1,1-1] legs={1:1,2:1}``."""
        es = ",".join(f"{i}-{j}" for i, j in sorted(self.edges))
        ls = ",".join(f"{m + 1}:{v}" for m, v in enumerate(self.legs))
        gs = ",".join(map(str, self.genus))
        return f"g=[{gs}] E=[{es}] legs={{{ls}}}"


# -- canonical form ---------------------------------------------------------


def _relabeled(G: DualGraph, new_id: tuple[int, ...]) -> tuple:
    """Encoding of ``G`` after sending old vertex ``v`` to ``new_id[v]``."""
    V = G.num_vertices
    genus = [0] * V
    for old, new in enumerate(new_id):
        genus[new] = G.genus[old]
    edges = sorted(
        (new_id[i], new_id[j]) if new_id[i] <= new_id[j] else (new_id[j], new_id[i])
        for i, j in G.edges
    )
    legs = tuple(new_id[v] for v in G.legs)
    return (tuple(genus), tuple(edges), legs)


def _encode(encoding: tuple) -> bytes:
    genus, edges, legs = encoding
    return (
        "g" + ",".join(map(str, genus))
        + ";e" + ",".join(f"{i}-{j}" for i, j in edges)
        + ";l" + ",".join(map(str, legs))
    ).encode("ascii")


def _leaves(colour: list[int], nbrs: list[dict[int, int]]) -> Iterator[tuple[int, ...]]:
    """Discrete colourings at the leaves of the individualization tree.

    ``colour`` holds dense ranks.  Rounds recolour ``v`` by the rank of (its
    colour, sorted (neighbour colour, edge multiplicity) pairs) until the
    cell count stops growing; ranks of invariant values keep the cell order
    invariant.  Then each vertex of the first non-singleton cell in turn is
    put ahead of the rest of its cell and the search recurses.  A leaf maps
    ``v`` to ``colour[v]``.
    """
    cells, grown = len(set(colour)), True
    while grown and cells < len(colour):
        sig = [
            (colour[v], tuple(sorted((colour[w], m) for w, m in nv.items())))
            for v, nv in enumerate(nbrs)
        ]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        cells, grown = len(rank), len(rank) > cells
    if cells == len(colour):
        yield tuple(colour)
        return
    target = min(c for c in colour if colour.count(c) > 1)
    for v in [v for v, c in enumerate(colour) if c == target]:
        split = [c + (c > target or (c == target and u != v)) for u, c in enumerate(colour)]
        yield from _leaves(split, nbrs)


@lru_cache(maxsize=None)
def canonical_key(G: DualGraph) -> bytes:
    """Canonical byte key of the isomorphism class of ``G``.

    Vertices are coloured by the rank of (genus, valence, incident leg
    labels).  If these colours are all distinct, as when every vertex
    carries a leg, the one ordering they give is encoded.  Otherwise the key
    is the minimum relabeled encoding over the leaves of a refine and
    individualize search (:func:`_leaves`; McKay & Piperno, "Practical graph
    isomorphism, II", 2014).  Each step depends only on the coloured graph,
    so isomorphic graphs reach the same leaf encodings; each leaf relabels
    ``G``, so equal keys mean isomorphic graphs.
    """
    V = G.num_vertices
    valence = [0] * V
    nbrs: list[dict[int, int]] = [{} for _ in range(V)]
    for i, j in G.edges:
        valence[i] += 1
        valence[j] += 1
        nbrs[i][j] = nbrs[i].get(j, 0) + 1
        if i != j:
            nbrs[j][i] = nbrs[j].get(i, 0) + 1
    legs_at: list[list[int]] = [[] for _ in range(V)]
    for m, v in enumerate(G.legs):
        legs_at[v].append(m + 1)
    invariant = [(G.genus[v], valence[v] + len(ls), tuple(ls)) for v, ls in enumerate(legs_at)]
    rank = {inv: r for r, inv in enumerate(sorted(set(invariant)))}
    colour = [rank[inv] for inv in invariant]
    return _encode(min(_relabeled(G, leaf) for leaf in _leaves(colour, nbrs)))


def key_to_hex(key: bytes) -> str:
    return key.hex()


def key_from_hex(text: str) -> bytes:
    return bytes.fromhex(text)


def is_isomorphic(G: DualGraph, H: DualGraph) -> bool:
    """Isomorphism fixing legs pointwise, permuting vertices and edges."""
    if (
        G.num_vertices != H.num_vertices
        or G.num_edges != H.num_edges
        or G.n != H.n
        or sorted(G.genus) != sorted(H.genus)
    ):
        return False
    return canonical_key(G) == canonical_key(H)


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
    A, B = set(legs1), set(legs2)
    if A & B:
        raise ValueError("mark label on both sides")
    n = len(A) + len(B)
    if A | B != set(range(1, n + 1)):
        raise ValueError("mark labels must be 1..n")
    legs = tuple(0 if m in A else 1 for m in range(1, n + 1))
    return DualGraph((g1, g2), ((0, 1),), legs)


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
    if set(marks) != set(range(1, n + 1)):
        raise ValueError("mark labels must be 1..n")
    legs = tuple(marks[m] for m in range(1, n + 1))
    return DualGraph(genus, tuple(edges), legs)
