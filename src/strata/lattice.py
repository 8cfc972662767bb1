"""Divisor intersections, the tree-type sublattice, and the genus-1 reduction.

A set of k distinct boundary divisors meets in a (possibly empty) union of
codimension-k strata; because the boundary has normal crossings, those
strata are exactly the k-edge stable graphs whose one-edge smoothings are
pairwise distinct and realize the given divisor set.  That geometric fact
is taken as an assumption, so an intersection is a lookup in the store's
face map (:meth:`StratumStore.faces`).  The test suite cross-checks it
against a superset-style search over all edge counts and against a plain
scan of level k.

The genus-1 reduction trades the unique genus-1 vertex of a tree-type graph
for a genus-0 vertex carrying two fresh marks, giving a bijection onto the
genus-0 strata that keep those two marks together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .enumeration import StratumStore, default_store
from .graphs import DualGraph, GnSignature, canonical_key, key_from_hex, key_to_hex

IXREPORT_SCHEMA = "ixreport/1"


@dataclass(frozen=True)
class DivisorSet:
    """Distinct boundary divisors of one signature, addressed by canonical key."""

    signature: GnSignature
    keys: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("empty divisor set")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("divisor keys must be distinct")
        object.__setattr__(self, "keys", tuple(sorted(self.keys)))

    def __len__(self) -> int:
        return len(self.keys)

    def graphs(self, store: StratumStore | None = None) -> tuple[DualGraph, ...]:
        table = (store or default_store()).divisors(self.signature)
        return tuple(table.graphs[k] for k in self.keys)


def divisor_set(
    sig: GnSignature,
    items,
    store: StratumStore | None = None,
) -> DivisorSet:
    """Build a :class:`DivisorSet` from graphs, keys, or hex key strings.

    Every item must resolve to a boundary divisor of ``sig``; graphs of a
    different signature are rejected.
    """
    store = store or default_store()
    table = store.divisors(sig)
    keys = []
    for item in items:
        if isinstance(item, DualGraph):
            if item.signature != sig:
                raise ValueError(
                    f"graph of signature {item.signature} mixed into {sig}"
                )
            key = canonical_key(item)
        elif isinstance(item, bytes):
            key = item
        elif isinstance(item, str):
            key = key_from_hex(item)
        else:
            raise TypeError(f"cannot interpret {item!r} as a divisor")
        if key not in table:
            raise ValueError(f"{key_to_hex(key)} is not a divisor of {sig}")
        keys.append(key)
    return DivisorSet(sig, tuple(keys))


@dataclass(frozen=True)
class IntersectionReport:
    """The strata forming the intersection of a divisor set."""

    divisors: DivisorSet
    components: tuple[DualGraph, ...]

    @property
    def nonempty(self) -> bool:
        return bool(self.components)

    def to_json_obj(self) -> dict:
        return {
            "schema": IXREPORT_SCHEMA,
            "g": self.divisors.signature.g,
            "n": self.divisors.signature.n,
            "divisors": [key_to_hex(k) for k in self.divisors.keys],
            "nonempty": self.nonempty,
            "components": [G.to_json_obj() for G in self.components],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def intersection_components(
    S: DivisorSet, store: StratumStore | None = None
) -> IntersectionReport:
    """Irreducible components of the intersection of the divisors in ``S``.

    These are the |S|-edge stable graphs whose one-edge smoothings are
    exactly the members of ``S``, each appearing once.
    """
    store = store or default_store()
    sig = S.signature
    k = len(S)
    if k > sig.dim:
        raise ValueError(f"{k} divisors exceed the dimension {sig.dim} of {sig}")
    return IntersectionReport(S, store.faces(sig, k).get(frozenset(S.keys), ()))


def intersect_nonempty(S: DivisorSet, store: StratumStore | None = None) -> bool:
    return intersection_components(S, store).nonempty


# -- tree type and the genus-1 reduction -------------------------------------


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
    legs = G.legs + (v, v)
    return DualGraph(tuple(genus), G.edges, legs)


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
