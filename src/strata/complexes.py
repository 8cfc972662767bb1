"""Boundary complexes, the flag property, and the classification harness.

The boundary complex of a signature has one vertex per boundary divisor and
a face for every set of divisors with nonempty intersection; a j-face is
witnessed by a j-edge stable graph whose one-edge smoothings are j distinct
divisors; the store's face map (:meth:`StratumStore.faces`) lists them.
Faces of smaller size follow by smoothing, so the complex is downward
closed by construction (and verified to be).

Flag checking walks cliques of the 1-skeleton level by level: as long as
every clique of the current size is a face, its extensions are enumerated;
the first non-face clique encountered is a minimal witness (smallest size,
then lexicographic in canonical-key order).  :func:`is_flag` tests cliques
against a built complex; :func:`flag_verdict` (and :func:`check_theorem`)
against the store's face map, one level at a time, so a small witness
never forces a deep enumeration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .enumeration import BudgetExceededError, StratumStore, default_store
from .graphs import DualGraph, GnSignature, chain, key_to_hex
from .lattice import DivisorSet, divisor_set, intersect_nonempty, intersection_components

BCOMPLEX_SCHEMA = "bcomplex/1"


@dataclass(frozen=True)
class BoundaryComplex:
    """Simplicial complex on divisor keys with explicit face sets per size.

    ``faces[j]`` holds the j-element faces as frozensets of vertex indices;
    vertex order is canonical-key order.  ``max_dim`` is the largest face
    size the builder examined (the full dimension unless truncated).
    """

    signature: GnSignature
    vertices: tuple[bytes, ...]
    divisor_graphs: tuple[DualGraph, ...]
    faces: Mapping[int, frozenset[frozenset[int]]]
    max_dim: int

    def f_vector(self) -> tuple[int, ...]:
        sizes = sorted(j for j, fs in self.faces.items() if fs)
        top = sizes[-1] if sizes else 0
        return tuple(len(self.faces.get(j, frozenset())) for j in range(1, top + 1))

    def is_face(self, indices) -> bool:
        face = frozenset(indices)
        return face in self.faces.get(len(face), frozenset())

    def adjacency(self) -> list[set[int]]:
        return _adjacency(len(self.vertices), self.faces.get(2, ()))

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Maximal faces, as sorted index tuples in lexicographic order."""
        out = []
        sizes = sorted(self.faces, reverse=True)
        for j in sizes:
            bigger = self.faces.get(j + 1, frozenset())
            for face in self.faces[j]:
                if not any(face < other for other in bigger):
                    out.append(tuple(sorted(face)))
        return tuple(sorted(out))

    def to_json_obj(self) -> dict:
        return {
            "schema": BCOMPLEX_SCHEMA,
            "g": self.signature.g,
            "n": self.signature.n,
            "vertices": [key_to_hex(k) for k in self.vertices],
            "facets": [list(f) for f in self.facets()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        """The 1-skeleton in DOT form, divisor graphs in tooltips."""
        sig = self.signature
        lines = [f'graph "boundary_complex_g{sig.g}n{sig.n}" {{']
        for i, G in enumerate(self.divisor_graphs):
            lines.append(f'  v{i} [label="v{i}", tooltip="{G.describe()}"];')
        for face in sorted(tuple(sorted(f)) for f in self.faces.get(2, frozenset())):
            lines.append(f"  v{face[0]} -- v{face[1]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def boundary_complex(
    sig: GnSignature,
    max_dim: int | None = None,
    store: StratumStore | None = None,
) -> BoundaryComplex:
    """Build the boundary complex of ``sig`` up to faces of size ``max_dim``.

    The default depth is the full dimension.  Dimension-0 signatures yield
    the empty complex.
    """
    store = store or default_store()
    if max_dim is not None and not 0 <= max_dim <= sig.dim:
        raise ValueError(f"max_dim={max_dim} out of range 0..{sig.dim} for {sig}")
    table = store.divisors(sig)
    vertices = table.keys()
    index = {key: i for i, key in enumerate(vertices)}
    depth = min(sig.dim if max_dim is None else max_dim, len(vertices))
    faces: dict[int, frozenset[frozenset[int]]] = {}
    if vertices:
        faces[1] = frozenset(frozenset((i,)) for i in range(len(vertices)))
    for j in range(2, depth + 1):
        faces[j] = frozenset(
            frozenset(index[k] for k in support) for support in store.faces(sig, j)
        )
    _verify_downward_closed(faces)
    return BoundaryComplex(
        sig, vertices, tuple(table.graphs.values()), faces, depth
    )


def _adjacency(num_vertices: int, edges: Iterable[frozenset[int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(num_vertices)]
    for face in edges:
        u, v = sorted(face)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _verify_downward_closed(faces: Mapping[int, frozenset[frozenset[int]]]) -> None:
    for j in sorted(faces):
        if j < 2:
            continue
        below = faces.get(j - 1, frozenset())
        for face in faces[j]:
            for drop in face:
                if face - {drop} not in below:
                    raise RuntimeError(
                        f"downward closure violated at {sorted(face)} minus {drop}"
                    )


# -- flag property ------------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """A divisor clique with its face verdict and realizing strata."""

    clique: tuple[bytes, ...]
    is_face: bool
    components: tuple[DualGraph, ...]
    pairwise_ok: bool

    def to_json_obj(self) -> dict:
        return {
            "clique": [key_to_hex(k) for k in self.clique],
            "is_face": self.is_face,
            "components": [G.to_json_obj() for G in self.components],
            "pairwise_ok": self.pairwise_ok,
        }


@dataclass(frozen=True)
class FlagVerdict:
    is_flag: bool
    witness: WitnessReport | None


def _clique_walk(
    adjacency: list[set[int]],
    is_face: Callable[[frozenset[int]], bool],
    cap: int,
) -> tuple[int, ...] | None:
    """Level-by-level clique search for a minimal non-face clique, or None.

    Cliques of size j+1 are extensions of size-j cliques by a vertex above
    their maximum, so each clique is generated once; a level is extended
    only after every clique in it proved to be a face, which makes the
    first failure minimal by size, and the lexicographically least failure
    is returned.  Cliques larger than ``cap`` cannot be faces.
    """
    cliques = sorted(
        (u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if v > u
    )
    while cliques:
        next_level: list[tuple[int, ...]] = []
        nonfaces: list[tuple[int, ...]] = []
        for c in cliques:
            shared = set.intersection(*(adjacency[u] for u in c))
            for w in sorted(shared):
                if w <= c[-1]:
                    continue
                nc = c + (w,)
                if len(nc) <= cap and is_face(frozenset(nc)):
                    next_level.append(nc)
                else:
                    nonfaces.append(nc)
        if nonfaces:
            return min(nonfaces)
        cliques = next_level
    return None


def _flag_walk(
    sig: GnSignature,
    vertices: tuple[bytes, ...],
    edges: Iterable[frozenset[int]],
    is_face: Callable[[frozenset[int]], bool],
) -> FlagVerdict:
    """Run :func:`_clique_walk` on the 1-skeleton spanned by ``edges``.

    Faces are sets of indices into ``vertices``; a failing clique becomes
    the witness, reported by its divisor keys.
    """
    witness = _clique_walk(_adjacency(len(vertices), edges), is_face, sig.dim)
    if witness is None:
        return FlagVerdict(True, None)
    keys = tuple(vertices[i] for i in witness)
    return FlagVerdict(
        False,
        WitnessReport(clique=keys, is_face=False, components=(), pairwise_ok=True),
    )


def is_flag(C: BoundaryComplex) -> FlagVerdict:
    """Decide whether every clique of the 1-skeleton spans a face.

    Raises ``ValueError`` when ``C`` was built too shallow for the verdict
    to be determined (only possible for truncated complexes).
    """

    def face_test(face: frozenset[int]) -> bool:
        if len(face) > C.max_dim:
            raise ValueError(
                f"complex truncated at max_dim={C.max_dim}; "
                f"flag check reached a clique of size {len(face)}"
            )
        return C.is_face(face)

    return _flag_walk(C.signature, C.vertices, C.faces.get(2, ()), face_test)


def flag_verdict(sig: GnSignature, store: StratumStore | None = None) -> FlagVerdict:
    """Flag verdict with lazily built face levels.

    Equivalent to ``is_flag(boundary_complex(sig))`` but only enumerates
    strata up to the level where the walk settles, which keeps spaces with
    small witnesses cheap.
    """
    store = store or default_store()
    vertices = store.divisors(sig).keys()
    index = {key: i for i, key in enumerate(vertices)}
    pairs = store.faces(sig, 2) if sig.dim >= 2 else {}
    return _flag_walk(
        sig,
        vertices,
        (frozenset(index[k] for k in pair) for pair in pairs),
        lambda face: frozenset(vertices[i] for i in face) in store.faces(sig, len(face)),
    )


def witness_for(
    sig: GnSignature, keys, store: StratumStore | None = None
) -> WitnessReport:
    """Face verdict, components, and pairwise status for any divisor set."""
    store = store or default_store()
    S = divisor_set(sig, keys, store)
    report = intersection_components(S, store)
    pairwise = all(
        intersect_nonempty(DivisorSet(sig, (a, b)), store)
        for i, a in enumerate(S.keys)
        for b in S.keys[i + 1 :]
    ) if len(S) > 1 else True
    return WitnessReport(
        clique=S.keys,
        is_face=report.nonempty,
        components=report.components,
        pairwise_ok=pairwise,
    )


# -- classification harness ---------------------------------------------------


def predicted_flag(sig: GnSignature) -> bool:
    """The classification: flag iff g <= 1, n <= 1, or (g,n) = (2,2)."""
    return sig.g <= 1 or sig.n <= 1 or (sig.g, sig.n) == (2, 2)


@dataclass(frozen=True)
class TheoremVerdict:
    signature: GnSignature
    predicted: bool
    computed: bool | None
    witness: WitnessReport | None
    skipped: bool = False

    @property
    def agree(self) -> bool | None:
        if self.skipped:
            return None
        return self.predicted == self.computed


def check_theorem(sig: GnSignature, store: StratumStore | None = None) -> TheoremVerdict:
    """Compare the predicted flag verdict with the computed one.

    A budget overflow during enumeration yields a skipped verdict, never a
    silent pass.
    """
    predicted = predicted_flag(sig)
    try:
        verdict = flag_verdict(sig, store)
    except BudgetExceededError:
        return TheoremVerdict(sig, predicted, None, None, skipped=True)
    return TheoremVerdict(sig, predicted, verdict.is_flag, verdict.witness)


# -- counterexample families ---------------------------------------------------


def pinwheel_divisor(n: int, i: int) -> DualGraph:
    """Genus-2 divisor: genus-1 vertex with every mark but ``i`` -- genus-1 with ``i``."""
    rest = tuple(m for m in range(1, n + 1) if m != i)
    return chain([(1, rest), (1, (i,))])


def pinwheel_family(n: int, store: StratumStore | None = None) -> DivisorSet:
    """The n genus-2 divisors whose pairwise meets are nonempty but whose
    total intersection is empty."""
    if n < 3:
        raise ValueError("pinwheel family needs n >= 3")
    sig = GnSignature(2, n)
    return divisor_set(sig, [pinwheel_divisor(n, i) for i in range(1, n + 1)], store)


def pinwheel_pair_component(n: int, i: int, j: int) -> DualGraph:
    """The displayed chain 1(i) -- 0(rest) -- 1(j) realizing a pairwise meet."""
    rest = tuple(m for m in range(1, n + 1) if m not in (i, j))
    return chain([(1, (i,)), (0, rest), (1, (j,))])


def high_genus_divisors(g: int, n: int) -> dict[int, DualGraph]:
    """The three divisor graphs of the g >= 3, n >= 2 counterexample, keyed 1-based."""
    if g < 3 or n < 2:
        raise ValueError("high-genus triple needs g >= 3 and n >= 2")
    rest = tuple(range(2, n + 1))
    return {
        1: chain([(g - 1, ()), (1, tuple(range(1, n + 1)))]),
        2: chain([(g - 1, (1,)), (1, rest)]),
        3: chain([(g - 1, rest), (1, (1,))]),
    }


def high_genus_triple(
    g: int, n: int, store: StratumStore | None = None
) -> DivisorSet:
    """The three divisors of the g >= 3, n >= 2 counterexample."""
    D = high_genus_divisors(g, n)
    return divisor_set(GnSignature(g, n), list(D.values()), store)


def high_genus_pair_components(g: int, n: int) -> dict[tuple[int, int], DualGraph]:
    """The displayed graphs of the three pairwise intersections, keyed 1-based."""
    rest = tuple(range(2, n + 1))
    return {
        (1, 2): chain([(g - 1, ()), (0, (1,)), (1, rest)]),
        (1, 3): chain([(g - 1, ()), (0, rest), (1, (1,))]),
        (2, 3): chain([(1, rest), (g - 2, ()), (1, (1,))]),
    }


def universal_degeneration(sig: GnSignature) -> DualGraph:
    """The chain of genus-1 vertices ending in a genus-0 loop vertex.

    Defined for n = 0 (g >= 2) and n = 1 (g >= 1); it degenerates every
    boundary divisor of the signature, so all divisor collections meet.
    """
    if sig.n == 0 and sig.g >= 2:
        marks: tuple[int, ...] = ()
    elif sig.n == 1 and sig.g >= 1:
        marks = (1,)
    else:
        raise ValueError(f"universal degeneration undefined for {sig}")
    pieces = [(1, ()) for _ in range(sig.g - 1)] + [(0, marks)]
    return chain(pieces, loop_at_end=True)
