"""Divisor sets and their intersections.

A set of k distinct boundary divisors meets in a (possibly empty) union of
codimension-k strata; because the boundary has normal crossings, those
strata are exactly the k-edge stable graphs whose one-edge smoothings are
pairwise distinct and realize the given divisor set.  That geometric fact
is taken as an assumption, so an intersection is a lookup of the set's
sorted keys in the face map (:meth:`StratumStore.faces`) of the store the
caller passes.  The test suite cross-checks it against a superset-style
search over all edge counts and against a plain scan of level k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import StratumStore
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


def divisor_set(sig: GnSignature, items, store: StratumStore) -> DivisorSet:
    """Build a :class:`DivisorSet` from graphs, keys, or hex key strings.

    Every item must resolve to a boundary divisor of ``sig``; graphs of a
    different signature are rejected.
    """
    table = store.divisors(sig)
    keys = []
    for item in items:
        if isinstance(item, DualGraph):
            if item.signature != sig:
                raise ValueError(
                    f"graph of signature {item.signature} mixed into {sig}"
                )
            if item.num_edges >= 2:  # no divisor; keying a symmetric one is slow
                raise ValueError(f"{item.describe()} is not a divisor of {sig}")
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


def intersection_components(S: DivisorSet, store: StratumStore) -> IntersectionReport:
    """Irreducible components of the intersection of the divisors in ``S``.

    These are the |S|-edge stable graphs whose one-edge smoothings are
    exactly the members of ``S``, each appearing once.
    """
    sig = S.signature
    k = len(S)
    if k > sig.dim:
        raise ValueError(f"{k} divisors exceed the dimension {sig.dim} of {sig}")
    return IntersectionReport(S, store.faces(sig, k).get(S.keys, ()))
