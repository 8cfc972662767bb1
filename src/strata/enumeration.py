"""Enumeration of stable dual graphs by signature and edge count.

Level 0 is the one-vertex graph ``one_vertex(g, n)``.  Graphs with k edges are
generated from the (k-1)-edge level by the two inverse smoothing moves:
splitting a vertex (distributing its genus, legs and edge ends over a new
edge) and trading one unit of genus for a loop.  A child is kept only if its
new edge has the least divisor label among its edges (ties kept), a weak form
of canonical augmentation (McKay 1998).  The label order is invariant under
isomorphism, every k-edge stable graph has a least-labelled edge, and
smoothing it gives a stable (k-1)-edge graph that one of the two moves undoes,
so a complete (k-1) level still yields a complete k level.  The label is
decided before the child is built.  A vertex is split once per move class (the
legs moved, the ends moved to each far end, the sorted per-loop counts of
moved loop ends, and the mirror when both halves have equal genus): splits of
one class give isomorphic children, and the first is the one kept, so levels
and representatives stay those of keying every least-label child.

Levels are deduplicated by canonical key and held by a :class:`StratumStore`
that the caller creates and passes to every lookup; it keeps them as long
as it lives and can mirror them to disk, one JSON file per (g, n, k).  A
level over the store's ``max_graphs``, generated, loaded or (the divisors)
counted, raises the one :class:`BudgetExceededError` of :func:`_over_budget`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

try:
    # hashlib loads OpenSSL (about 3.6 MB of RSS); the built-in module is lean.
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .graphs import (
    DualGraph,
    GnSignature,
    _divisor_count,
    _divisor_table,
    _edge_sides,
    _root,
    canonical_key,
    one_vertex,
)

GENERATOR_VERSION = "3"
STRATUMSET_SCHEMA = "stratumset/1"
DEFAULT_MAX_GRAPHS = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when a level would exceed the configured graph budget."""


@dataclass(frozen=True)
class StratumSet:
    """All stable dual graphs of one signature and edge count, up to isomorphism.

    ``graphs`` maps canonical key to one representative; iteration follows
    key order.
    """

    signature: GnSignature
    edge_count: int
    graphs: Mapping[bytes, DualGraph]

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[DualGraph]:
        return iter(self.graphs.values())

    def to_json_obj(self) -> dict:
        return {
            "schema": STRATUMSET_SCHEMA,
            "generator_version": GENERATOR_VERSION,
            "g": self.signature.g,
            "n": self.signature.n,
            "k": self.edge_count,
            "graphs": [G.to_json_obj() for G in self],
        }


def _make_set(sig: GnSignature, k: int, found: dict[bytes, DualGraph]) -> StratumSet:
    return StratumSet(sig, k, dict(sorted(found.items())))


def _vertex_tables(G: DualGraph) -> tuple[list[int], list[int], list[int]]:
    """Per vertex: valence, side weight ``2 * genus + edge ends - 2`` and mark bitmask."""
    ends = [0] * G.num_vertices
    for i, j in G.edges:
        ends[i] += 1
        ends[j] += 1
    valence, marks = list(ends), [0] * G.num_vertices
    for m, v in enumerate(G.legs):
        valence[v] += 1
        marks[v] |= 1 << m
    return valence, [2 * x + d - 2 for x, d in zip(G.genus, ends)], marks


def _split_moves(
    G: DualGraph, v: int, bound: tuple[int, int] | None, tables: tuple, g: int
) -> Iterator[tuple[int, int, tuple[int, int] | None]]:
    """Stable splits of ``v`` whose new edge is labelled ``None`` or at most ``bound``.

    Yields ``(a1, mask)`` and the label :func:`_edge_sides` gives the new
    edge: ``v`` keeps genus ``a1``, the new vertex the rest and the items in
    ``mask`` (legs at ``v`` by mark, then edge ends at ``v`` by edge).  Of a
    mask and its isomorphic mirror, the one without the last item is tried.
    Of the masks of one move class (with ``a1``, the legs moved, how many
    ends to each far end ``w != v`` move and the sorted per-loop counts of
    moved loop ends; when ``a1 == a2``, the lesser of that and the mirror's)
    only the first is yielded: parallel edges, a loop's two ends and the
    loops at ``v`` are interchangeable, so the rest give isomorphic children.
    The label comes from ``v``'s branches, one per component of ``G - v``
    and one per loop at ``v``: the new edge is on a cycle exactly when
    ``mask`` splits a branch, else its far side is the new vertex plus the
    branches moved whole.  ``tables`` is :func:`_vertex_tables` of ``G``
    and ``g`` its total genus.
    """
    valence, weight, marks = tables
    a, items = G.genus[v], valence[v]
    if a == 0 and items < 4 or bound is None and weight[v] - 2 * a < 0:
        return  # no stable split, or none that puts the new edge on a cycle (< 2 ends)
    legs_here = [m for m, w in enumerate(G.legs) if w == v]
    L = len(legs_here)
    root = list(range(len(valence)))
    for i, j in G.edges:
        if i != v and j != v:
            root[_root(root, i)] = _root(root, j)
    branches: dict[int, list[int]] = {}
    for u, w in enumerate(weight):
        if u != v:
            branch = branches.setdefault(_root(root, u), [0, 0, 0])
            branch[1] += w
            branch[2] |= marks[u]
    t, far, loops = L, {}, []  # mask bits of v's ends to each far end, of each loop at v
    for e, (i, j) in enumerate(G.edges):
        if i == j == v:
            branches[-1 - e] = [3 << t, 0, 0]
            loops.append(3 << t)
            t += 2
        elif v in (i, j):
            branches[_root(root, i + j - v)][0] |= 1 << t
            far[i + j - v] = far.get(i + j - v, 0) | 1 << t
            t += 1
    if bound is None and all(b & (b - 1) == 0 for b, _, _ in branches.values()):
        return
    leg_marks, full = [0] * (1 << L), (1 << G.n) - 1
    for low in range(1, 1 << L):
        leg_marks[low] = leg_marks[low & (low - 1)] | 1 << legs_here[(low & -low).bit_length() - 1]
    twins = loops or len(far) < items - L  # a loop or parallel edges: some moves are isomorphic

    def move_class(m: int) -> tuple:
        near = sorted((m & b).bit_count() for b in loops)
        return m & ((1 << L) - 1), *((m & b).bit_count() for b in far.values()), *near

    for a1 in range(a // 2 + 1):
        a2, seen = a - a1, set()
        for mask in range(1 << items >> (a1 == a2) or 1):
            moved = mask.bit_count()
            if a1 == 0 and items - moved < 2 or a2 == 0 and moved < 2:
                continue
            W, M = 2 * a2 + (mask >> L).bit_count() - 1, leg_marks[mask & ((1 << L) - 1)]
            for b, w, mk in branches.values():
                part = mask & b
                if part == b:
                    W, M = W + w, M | mk
                elif part:
                    label = None
                    break
            else:
                # The bridge label of graphs._edge_sides, kept inline for speed.
                label = min(((W + 1) // 2, M), (g - (W + 1) // 2, full ^ M))
                if bound is None or label > bound:
                    continue
            if twins:
                cls = move_class(mask)
                if a1 == a2:  # the mirror swaps the halves
                    cls = min(cls, move_class(~mask & ((1 << items) - 1)))
                if cls in seen:
                    continue
                seen.add(cls)
            yield a1, mask, label


def _split_child(G: DualGraph, v: int, a1: int, mask: int, sides: tuple) -> DualGraph:
    """The child of one :func:`_split_moves` move, carrying ``sides``; the new edge comes last."""
    new, bit = G.num_vertices, 1
    genus, legs = list(G.genus) + [G.genus[v] - a1], list(G.legs)
    genus[v] = a1
    for m, w in enumerate(G.legs):
        if w == v:
            legs[m], bit = (new if mask & bit else v), bit << 1
    edges = []
    for i, j in G.edges:
        if i == v:
            i, bit = (new if mask & bit else v), bit << 1
        if j == v:
            j, bit = (new if mask & bit else v), bit << 1
        edges.append((i, j))
    edges.append((v, new))
    return DualGraph._trusted(tuple(genus), edges, tuple(legs), sides)


def children(G: DualGraph) -> Iterator[DualGraph]:
    """The stable one-edge-deeper degenerations of ``G`` whose new edge has least label.

    Labels are those of :func:`_edge_sides`, ``None`` first.  A child's old
    edges keep ``G``'s labels, since smoothing commutes, so a split child is
    kept when its new label is ``None`` or at most ``G``'s least; the new
    edge of a loop child is a loop, labelled ``None``, so all are kept.
    Each child carries its labels, ``G``'s and then its new edge's.
    """
    sides, g = _edge_sides(G), G.total_genus
    # An edgeless G keeps every child: (g + 1, 0) is above every label.
    bound = None if None in sides else min(sides, default=(g + 1, 0))
    tables, labels = _vertex_tables(G), _divisor_table(g, G.n)[2]
    for v in range(G.num_vertices):
        for a1, mask, label in _split_moves(G, v, bound, tables, g):
            yield _split_child(G, v, a1, mask, sides + (labels[label],))
    valence = tables[0]
    for v, a in enumerate(G.genus):  # a loop child trades one genus at v for a loop
        if a > 1 or a == 1 and valence[v] > 0:
            genus = list(G.genus)
            genus[v] = a - 1
            yield DualGraph._trusted(tuple(genus), G.edges + ((v, v),), G.legs, sides + (None,))


def _over_budget(
    sig: GnSignature, k: int, max_graphs: int, where: str = ""
) -> BudgetExceededError:
    """The error for level ``k`` of ``sig`` over ``max_graphs``; ``where`` is " in <file>" or ""."""
    return BudgetExceededError(f"level {sig} k={k}{where} exceeds budget of {max_graphs} graphs")


def _check_divisor_budget(sig: GnSignature, max_graphs: int) -> None:
    """Raise level 1's budget error from the divisor count, before the divisor table is built."""
    if _divisor_count(sig.g, sig.n) > max_graphs:
        raise _over_budget(sig, 1, max_graphs)


def _generate_level(
    sig: GnSignature, k: int, prev: StratumSet, max_graphs: int
) -> StratumSet:
    if k == 1:
        _check_divisor_budget(sig, max_graphs)  # children() would build the table first
    found: dict[bytes, DualGraph] = {}
    for G in prev:
        for child in children(G):
            key = canonical_key(child)
            if key not in found:
                if len(found) >= max_graphs:
                    raise _over_budget(sig, k, max_graphs)
                found[key] = child
    return _make_set(sig, k, found)


class StratumStore:
    """Level cache: in-memory always, optionally mirrored to disk.

    Disk layout is ``<cache_dir>/g<g>n<n>/k<k>.json`` with schema
    ``stratumset/1``, a graph count and a SHA-256 of the sorted keys; files
    with a stale generator version, damaged contents or a count or digest
    that does not match are regenerated.  ``max_graphs`` bounds loaded
    levels as well as generated ones.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_graphs: int = DEFAULT_MAX_GRAPHS,
    ) -> None:
        if max_graphs < 1:
            raise ValueError("max_graphs must be positive")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_graphs = max_graphs
        self._levels: dict[tuple[int, int, int], StratumSet] = {}
        self._faces: dict[tuple[int, int, int], Mapping[frozenset[bytes], tuple]] = {}

    # -- public lookups ---------------------------------------------------

    def level(self, sig: GnSignature, k: int) -> StratumSet:
        """All k-edge stable graphs of ``sig``; requires 1 <= k <= dim."""
        if not 1 <= k <= sig.dim:
            raise ValueError(f"k={k} out of range 1..{sig.dim} for {sig}")
        return self._level(sig, k)

    def divisors(self, sig: GnSignature) -> Mapping[bytes, DualGraph]:
        """The read-only divisor table of ``sig``, graph by key in key order, within ``max_graphs``.

        Every store shares it; a representative need not be ``level(sig, 1)``'s.
        """
        _check_divisor_budget(sig, self.max_graphs)
        return _divisor_table(sig.g, sig.n)[0]

    def faces(self, sig: GnSignature, k: int) -> Mapping[frozenset[bytes], tuple[DualGraph, ...]]:
        """The k-faces of the boundary complex with the strata realizing them.

        Maps each set of k divisors with nonempty intersection to the k-edge
        graphs whose one-edge smoothings are exactly those divisors, in key
        order: the components of that intersection.
        """
        mem_key = (sig.g, sig.n, k)
        if mem_key not in self._faces:
            faces: dict[frozenset[bytes], tuple[DualGraph, ...]] = {}
            for G in self.level(sig, k):
                support = G.delta_support()
                if len(support) == k:
                    faces[support] = faces.get(support, ()) + (G,)
            self._faces[mem_key] = faces
        return self._faces[mem_key]

    # -- internals --------------------------------------------------------

    def _level(self, sig: GnSignature, k: int) -> StratumSet:
        mem_key = (sig.g, sig.n, k)
        cached = self._levels.get(mem_key)
        if cached is not None:
            return cached
        if k == 0:
            G = one_vertex(sig.g, sig.n)
            level = _make_set(sig, 0, {canonical_key(G): G})
        else:
            level = self._load(sig, k)
            if level is None:
                level = _generate_level(sig, k, self._level(sig, k - 1), self.max_graphs)
                self._save(level)
        self._levels[mem_key] = level
        return level

    def _path(self, sig: GnSignature, k: int) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"g{sig.g}n{sig.n}" / f"k{k}.json"

    def _load(self, sig: GnSignature, k: int) -> StratumSet | None:
        path = self._path(sig, k)
        if path is None:
            return None
        try:  # a missing, unreadable or non-regular file is regenerated, whatever the reason
            if not path.is_file():
                return None
            obj = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(obj, dict)
                or obj.get("schema") != STRATUMSET_SCHEMA
                or obj.get("generator_version") != GENERATOR_VERSION
                or obj.get("g") != sig.g
                or obj.get("n") != sig.n
                or obj.get("k") != k
            ):
                return None
            found: dict[bytes, DualGraph] = {}
            for item in obj["graphs"]:
                G = DualGraph.from_json_obj(item)
                if (
                    G.total_genus != sig.g
                    or G.n != sig.n
                    or G.num_edges != k
                    or not G.is_stable()
                ):
                    return None
                found[canonical_key(G)] = G
            level = _make_set(sig, k, found)
            if obj["count"] != len(level) or obj["sha256"] != _digest(level):
                return None
        except (ValueError, KeyError, TypeError, OSError, RecursionError):
            return None
        if len(level) > self.max_graphs:
            raise _over_budget(sig, k, self.max_graphs, f" in {path}")
        return level

    def _save(self, level: StratumSet) -> None:
        path = self._path(level.signature, level.edge_count)
        if path is None:
            return
        obj = level.to_json_obj()
        obj.update(count=len(level), sha256=_digest(level))
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        tmp = None
        try:  # a cache that cannot be written is skipped, whatever the reason
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _digest(level: StratumSet) -> str:
    """SHA-256 of a level's keys in order, joined by newlines (keys are ASCII)."""
    return sha256(b"\n".join(level.graphs)).hexdigest()
