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
and representatives stay those of keying every least-label child.  Which
splits are stable and first in their class depends only on the vertex's
shape, so :func:`_split_masks` tabulates them once per shape and a parent
only labels them; a class's splits share their label, so the representatives
and the 17,763 / 27,859 keyed children of (5,0) / (1,6) are unchanged.

Levels are deduplicated by canonical key and held by a :class:`StratumStore`
that the caller creates and passes to every lookup; it keeps them as long
as it lives, each a read-only table in key order, like the divisor table
and the face maps (keyed by sorted tuples of divisor keys).  It can mirror
levels to disk, one JSON file per (g, n, k), which :func:`_write_level`
writes one graph at a time, as ``enumerate --format json`` does, so no
whole-level tree is built.  Level 0, the one-vertex graph, is not stored:
it is the one parent of level 1.  A level over ``max_graphs``, generated,
loaded or (the divisors) counted, raises :class:`BudgetExceededError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, TextIO

try:
    # hashlib loads OpenSSL (about 3.6 MB of RSS); the built-in module is lean.
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .graphs import (
    DualGraph,
    GnSignature,
    _bridge_label,
    _divisor_count,
    _divisor_table,
    _edge_sides,
    _key_ordered,
    _root,
    _shared,
    canonical_key,
    one_vertex,
)

GENERATOR_VERSION = "3"
STRATUMSET_SCHEMA = "stratumset/1"
DEFAULT_MAX_GRAPHS = 10**6
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class BudgetExceededError(RuntimeError):
    """Raised when a level would exceed the configured graph budget."""


def _write_level(
    fh: TextIO, sig: GnSignature, k: int, level: Mapping[bytes, DualGraph], **fields
) -> None:
    """Write level ``k`` of ``sig`` as ``stratumset/1`` with ``fields``, one graph at a time.

    The bytes are ``_dumps`` of the whole object, which is never built.
    """
    head, tail = _dumps({
        "schema": STRATUMSET_SCHEMA,
        "generator_version": GENERATOR_VERSION,
        "g": sig.g,
        "n": sig.n,
        "k": k,
        "graphs": [],
        **fields,
    }).split('"graphs":[]')
    fh.write(head + '"graphs":[')
    for t, G in enumerate(level.values()):
        fh.write("," * (t > 0) + _dumps(G.to_json_obj()))
    fh.write("]" + tail)


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


@lru_cache(maxsize=1024)
def _split_masks(
    items: int, twins: tuple[int, ...], loops: tuple[int, ...], keep: bool, move: bool, mirror: bool
) -> tuple[int, ...]:
    """The masks, in increasing order, of one vertex shape's stable splits first in their move class.

    The shape is ``items`` (legs, then edge ends), the bit groups ``twins``
    of parallel ends and the bit pairs ``loops``.  ``keep``: the vertex keeps
    genus 0, so two items stay; ``move``: the new vertex gets genus 0, so two
    move; ``mirror``: equal genera, so only masks without the last item are
    tried and a class is the lesser of its and its mirror's.  A class (the
    other bits, the ends moved per twin group, the sorted per-loop counts)
    gives isomorphic children: parallel ends, a loop's ends and loops swap.
    """
    full = (1 << items) - 1
    other, first = full ^ sum(twins + loops), {}  # the groups are disjoint
    for mask in range(1 << items >> mirror or 1):
        moved = mask.bit_count()
        if keep and items - moved < 2 or move and moved < 2:
            continue
        cls = min(
            (m & other, *((m & b).bit_count() for b in twins),
             *sorted((m & b).bit_count() for b in loops))
            for m in ((mask, ~mask & full) if mirror else (mask,))
        )
        first.setdefault(cls, mask)
    return tuple(first.values())


def _split_moves(
    G: DualGraph, v: int, bound: tuple[int, int] | None, tables: tuple, g: int
) -> Iterator[tuple[int, int, tuple[int, int] | None]]:
    """Stable splits of ``v`` whose new edge is labelled ``None`` or at most ``bound``.

    Yields ``(a1, mask)`` and the label :func:`_edge_sides` gives the new
    edge: ``v`` keeps genus ``a1``, the new vertex the rest and the items in
    ``mask`` (legs at ``v`` by mark, then edge ends at ``v`` by edge).  The
    masks tried are :func:`_split_masks` of ``v``'s shape, one per move
    class; a class's masks share their label, so the first is yielded
    whenever any would be.  The label comes from ``v``'s branches, one per
    component of ``G - v`` and one per loop at ``v``: the new edge is on a
    cycle exactly when ``mask`` splits a branch, else its far side is the
    new vertex plus the branches moved whole; with no ``bound`` only cycle
    edges are yielded and no label is computed.  ``tables`` is
    :func:`_vertex_tables` of ``G`` and ``g`` its total genus.
    """
    valence, weight, marks = tables
    a, items = G.genus[v], valence[v]
    if items < 4 - 2 * a or bound is None and weight[v] - 2 * a < 0:
        return  # every table is empty, or no split puts the new edge on a cycle (< 2 ends)
    L = marks[v].bit_count()
    t, far, loops = L, {}, ()  # mask bits of v's ends to each far end, of each loop at v
    for i, j in G.edges:
        if i == j == v:
            loops += (3 << t,)
            t += 2
        elif v in (i, j):
            far[i + j - v] = far.get(i + j - v, 0) | 1 << t
            t += 1
    twins = tuple(b for b in far.values() if b & (b - 1))  # parallel edges
    moves = [
        (a1, _split_masks(items, twins, loops, a1 == 0, a1 == a, 2 * a1 == a))
        for a1 in range(a // 2 + 1)
    ]
    root = list(range(len(valence)))
    for i, j in G.edges:
        if i != v and j != v:
            root[_root(root, i)] = _root(root, j)
    parts: dict[int, list[int]] = {}  # per component of G - v: v's ends to it, weight, marks
    for u, w in enumerate(weight):
        if u != v:
            branch = parts.setdefault(_root(root, u), [0, 0, 0])
            branch[1] += w
            branch[2] |= marks[u]
    for w, b in far.items():
        parts[_root(root, w)][0] |= b
    branches = [*parts.values(), *([b, 0, 0] for b in loops)]
    leg_marks, full, low = [0], (1 << G.n) - 1, (1 << L) - 1
    for m in range(G.n):
        if marks[v] >> m & 1:
            leg_marks += [x | 1 << m for x in leg_marks]
    for a1, masks in moves:
        base = 2 * (a - a1) - 1
        for mask in masks:
            W, M = base + (mask >> L).bit_count(), leg_marks[mask & low]
            for b, w, mk in branches:
                part = mask & b
                if part == b:
                    W, M = W + w, M | mk
                elif part:
                    yield a1, mask, None
                    break
            else:  # a bridge
                if bound is not None and (label := _bridge_label(W, M, g, full)) <= bound:
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
    for e in G.edges:  # an edge not moved keeps G's pair object
        i, j = e
        if i == v:
            i, bit = (new if mask & bit else v), bit << 1
        if j == v:
            j, bit = (new if mask & bit else v), bit << 1
        edges.append(e if i != new != j else _shared((j, i) if i > j else (i, j)))
    edges.append(_shared((v, new)))
    return DualGraph._trusted(tuple(genus), tuple(edges), tuple(legs), sides)


def children(G: DualGraph) -> Iterator[DualGraph]:
    """The stable one-edge-deeper degenerations of ``G`` whose new edge has least label.

    Labels are those of :func:`_edge_sides`, ``None`` first.  A child's old
    edges keep ``G``'s labels, since smoothing commutes, so a split child is
    kept when its new label is ``None`` or at most ``G``'s least; the new
    edge of a loop child is a loop, labelled ``None``, so all are kept.
    Each child carries its labels, ``G``'s and then its new edge's, which
    is ``None`` or the :func:`_shared` tuple of its value.
    """
    sides, g = _edge_sides(G), G.total_genus
    # An edgeless G keeps every child: (g + 1, 0) is above every label.
    bound = None if None in sides else min(sides, default=(g + 1, 0))
    tables = _vertex_tables(G)
    for v in range(G.num_vertices):
        for a1, mask, label in _split_moves(G, v, bound, tables, g):
            yield _split_child(G, v, a1, mask, sides + (label and _shared(label),))
    valence = tables[0]
    for v, a in enumerate(G.genus):  # a loop child trades one genus at v for a loop
        if a > 1 or a == 1 and valence[v] > 0:
            genus = list(G.genus)
            genus[v] = a - 1
            edges = G.edges + (_shared((v, v)),)
            yield DualGraph._trusted(tuple(genus), edges, G.legs, sides + (None,))


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
    sig: GnSignature, k: int, parents: Iterable[DualGraph], max_graphs: int
) -> Mapping[bytes, DualGraph]:
    """Level ``k`` of ``sig`` from the children of ``parents``, the graphs of level ``k - 1``."""
    if k == 1:
        _check_divisor_budget(sig, max_graphs)  # _split_masks would first tabulate 2**n masks
    found: dict[bytes, DualGraph] = {}
    for G in parents:
        for child in children(G):
            key = canonical_key(child)
            if key not in found:
                if len(found) >= max_graphs:
                    raise _over_budget(sig, k, max_graphs)
                found[key] = child
    return _key_ordered(found)


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
        self._levels: dict[tuple[int, int, int], Mapping[bytes, DualGraph]] = {}
        self._faces: dict[tuple[int, int, int], Mapping[tuple[bytes, ...], tuple]] = {}

    # -- public lookups ---------------------------------------------------

    def level(self, sig: GnSignature, k: int) -> Mapping[bytes, DualGraph]:
        """The read-only k-edge stable graphs of ``sig`` by key, in key order; 1 <= k <= dim."""
        if not 1 <= k <= sig.dim:
            raise ValueError(f"k={k} out of range 1..{sig.dim} for {sig}")
        return self._level(sig, k)

    def divisors(self, sig: GnSignature) -> Mapping[bytes, DualGraph]:
        """The read-only divisor table of ``sig``, graph by key in key order, within ``max_graphs``.

        Every store shares it; a representative need not be ``level(sig, 1)``'s.
        """
        _check_divisor_budget(sig, self.max_graphs)
        return _divisor_table(sig.g, sig.n)[0]

    def faces(self, sig: GnSignature, k: int) -> Mapping[tuple[bytes, ...], tuple[DualGraph, ...]]:
        """The k-faces of the boundary complex with the strata realizing them.

        The read-only map takes each sorted k-tuple of divisor keys with
        nonempty intersection to the k-edge graphs whose one-edge smoothings
        are exactly those divisors, in key order: the components of that
        intersection.
        """
        mem_key = (sig.g, sig.n, k)
        if mem_key not in self._faces:
            faces: dict[tuple[bytes, ...], tuple[DualGraph, ...]] = {}
            for G in self.level(sig, k).values():
                support = tuple(sorted(G.delta_support()))
                if len(support) == k:
                    faces[support] = faces.get(support, ()) + (G,)
            self._faces[mem_key] = MappingProxyType(faces)
        return self._faces[mem_key]

    # -- internals --------------------------------------------------------

    def _level(self, sig: GnSignature, k: int) -> Mapping[bytes, DualGraph]:
        mem_key = (sig.g, sig.n, k)
        cached = self._levels.get(mem_key)
        if cached is not None:
            return cached
        level = self._load(sig, k)
        if level is None:
            parents = (one_vertex(sig.g, sig.n),) if k == 1 else self._level(sig, k - 1).values()
            level = _generate_level(sig, k, parents, self.max_graphs)
            self._save(sig, k, level)
        self._levels[mem_key] = level
        return level

    def _path(self, sig: GnSignature, k: int) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"g{sig.g}n{sig.n}" / f"k{k}.json"

    def _load(self, sig: GnSignature, k: int) -> Mapping[bytes, DualGraph] | None:
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
            level = _key_ordered(found)
            if obj["count"] != len(level) or obj["sha256"] != _digest(level):
                return None
        except (ValueError, KeyError, TypeError, OSError, RecursionError):
            return None
        if len(level) > self.max_graphs:
            raise _over_budget(sig, k, self.max_graphs, f" in {path}")
        return level

    def _save(self, sig: GnSignature, k: int, level: Mapping[bytes, DualGraph]) -> None:
        path = self._path(sig, k)
        if path is None:
            return
        tmp = None
        try:  # a cache that cannot be written is skipped, whatever the reason
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                _write_level(fh, sig, k, level, count=len(level), sha256=_digest(level))
            os.replace(tmp, path)
        except OSError:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _digest(level: Mapping[bytes, DualGraph]) -> str:
    """SHA-256 of a level's keys in order, joined by newlines (keys are ASCII)."""
    return sha256(b"\n".join(level)).hexdigest()
