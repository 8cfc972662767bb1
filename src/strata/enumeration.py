"""Enumeration of stable dual graphs by signature and edge count.

Graphs with k edges are generated from the (k-1)-edge level by the two
inverse smoothing moves: splitting a vertex (distributing its genus, legs
and edge ends over a new edge) and trading one unit of genus for a loop.
Every k-edge stable graph smooths to a stable (k-1)-edge graph along any
edge, and the move that undoes that smoothing is one of the two above, so
applying both moves to a complete (k-1) level yields a complete k level.

Levels are deduplicated by canonical key and can be cached on disk, one
JSON file per (g, n, k).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
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
    canonical_key,
    key_to_hex,
    one_vertex,
    two_vertex_divisor,
)

GENERATOR_VERSION = "2"
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
    generator_version: str = GENERATOR_VERSION

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[DualGraph]:
        return iter(self.graphs.values())

    def __contains__(self, key: bytes) -> bool:
        return key in self.graphs

    def keys(self) -> tuple[bytes, ...]:
        return tuple(self.graphs)

    def get(self, key: bytes) -> DualGraph | None:
        return self.graphs.get(key)

    def to_json_obj(self) -> dict:
        return {
            "schema": STRATUMSET_SCHEMA,
            "generator_version": self.generator_version,
            "g": self.signature.g,
            "n": self.signature.n,
            "k": self.edge_count,
            "graphs": [G.to_json_obj() for G in self],
        }


def _make_set(sig: GnSignature, k: int, found: dict[bytes, DualGraph]) -> StratumSet:
    return StratumSet(sig, k, dict(sorted(found.items())))


def smooth_point(sig: GnSignature) -> DualGraph:
    """The edgeless graph: one vertex of genus g carrying all legs."""
    G = one_vertex(sig.g, sig.n)
    assert G.is_stable()
    return G


def _split_children(G: DualGraph, v: int) -> Iterator[DualGraph]:
    """Children obtained by splitting vertex ``v`` across a new edge.

    Every item incident to v (a leg, a non-loop edge end, or either end of a
    loop) is assigned to one of the two halves; (genus, assignment) and its
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
            moved = bin(mask).count("1")
            if a1 == 0 and (items - moved) + 1 < 3:
                continue
            if a2 == 0 and moved + 1 < 3:
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
            child = DualGraph(tuple(genus), tuple(edges), tuple(legs))
            if child.is_stable():
                yield child


def _loop_children(G: DualGraph) -> Iterator[DualGraph]:
    """Children obtained by trading one unit of genus at a vertex for a loop."""
    for v, g in enumerate(G.genus):
        if g == 0:
            continue
        if g == 1 and G.valence(v) + 2 < 3:
            continue
        genus = list(G.genus)
        genus[v] = g - 1
        child = DualGraph(tuple(genus), G.edges + ((v, v),), G.legs)
        assert child.is_stable()
        yield child


def children(G: DualGraph) -> Iterator[DualGraph]:
    """All stable one-edge-deeper degenerations of ``G`` (with duplicates)."""
    for v in range(G.num_vertices):
        yield from _split_children(G, v)
    yield from _loop_children(G)


def _generate_level(
    sig: GnSignature, k: int, prev: StratumSet, max_graphs: int
) -> StratumSet:
    found: dict[bytes, DualGraph] = {}
    for G in prev:
        for child in children(G):
            key = canonical_key(child)
            if key not in found:
                if len(found) >= max_graphs:
                    raise BudgetExceededError(
                        f"level {sig} k={k} exceeds budget of {max_graphs} graphs"
                    )
                found[key] = child
    return _make_set(sig, k, found)


def divisors_direct(sig: GnSignature) -> StratumSet:
    """Boundary divisors by direct construction.

    The loop graph (genus g-1, one loop, all legs) when stable, plus every
    stable split (a, A) -- (g-a, complement); the swap symmetry is removed
    by keying.  Dimension-0 signatures have no divisors and yield the empty
    set.
    """
    found: dict[bytes, DualGraph] = {}
    if sig.dim >= 1:
        if sig.g >= 1:
            loop = one_vertex(sig.g - 1, sig.n, loops=1)
            if loop.is_stable():
                found[canonical_key(loop)] = loop
        marks = range(1, sig.n + 1)
        for a in range(sig.g + 1):
            for size in range(sig.n + 1):
                for A in combinations(marks, size):
                    B = tuple(m for m in marks if m not in A)
                    if a == 0 and len(A) + 1 < 3:
                        continue
                    if sig.g - a == 0 and len(B) + 1 < 3:
                        continue
                    G = two_vertex_divisor(a, A, sig.g - a, B)
                    found.setdefault(canonical_key(G), G)
    return _make_set(sig, 1, found)


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
        self._divisors: dict[tuple[int, int], StratumSet] = {}
        self._faces: dict[tuple[int, int, int], Mapping[frozenset[bytes], tuple]] = {}

    # -- public lookups ---------------------------------------------------

    def level(self, sig: GnSignature, k: int) -> StratumSet:
        """All k-edge stable graphs of ``sig``; requires 1 <= k <= dim."""
        if not 1 <= k <= sig.dim:
            raise ValueError(f"k={k} out of range 1..{sig.dim} for {sig}")
        return self._level(sig, k)

    def divisors(self, sig: GnSignature) -> StratumSet:
        key = (sig.g, sig.n)
        if key not in self._divisors:
            self._divisors[key] = divisors_direct(sig)
        return self._divisors[key]

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
            G = smooth_point(sig)
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
        if path is None or not path.is_file():
            return None
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
            if (
                obj.get("schema") != STRATUMSET_SCHEMA
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
        except (ValueError, KeyError, TypeError, OSError):
            return None
        if len(level) > self.max_graphs:
            raise BudgetExceededError(
                f"level {sig} k={k} in {path} exceeds budget of {self.max_graphs} graphs"
            )
        return level

    def _save(self, level: StratumSet) -> None:
        path = self._path(level.signature, level.edge_count)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        obj = level.to_json_obj()
        obj.update(count=len(level), sha256=_digest(level))
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _digest(level: StratumSet) -> str:
    """SHA-256 of a level's keys in order, joined by newlines (keys are ASCII)."""
    return sha256(b"\n".join(level.graphs)).hexdigest()


_DEFAULT_STORE: StratumStore | None = None


def default_store() -> StratumStore:
    """Shared in-memory store used when callers do not supply one."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = StratumStore()
    return _DEFAULT_STORE


def strata(sig: GnSignature, k: int, store: StratumStore | None = None) -> StratumSet:
    """All k-edge stable dual graphs of ``sig`` up to isomorphism."""
    return (store or default_store()).level(sig, k)


def divisors(sig: GnSignature, store: StratumStore | None = None) -> StratumSet:
    """The boundary divisors of ``sig`` (empty for dimension-0 signatures)."""
    return (store or default_store()).divisors(sig)


def count_strata(sig: GnSignature, k: int, store: StratumStore | None = None) -> int:
    return len(strata(sig, k, store))
