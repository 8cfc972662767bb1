"""Boundary complexes, the flag property, and the paper's classification.

The boundary complex of a signature has one vertex per boundary divisor and
a face for every set of divisors with nonempty intersection; a j-face is
witnessed by a j-edge stable graph whose one-edge smoothings are j distinct
divisors.  Its j-faces are the store's face map (:meth:`StratumStore.faces`)
itself, keyed by sorted tuples of divisor keys; smaller faces follow by
smoothing, so the complex is downward closed (and verified to be).

Flag checking walks cliques of the 1-skeleton level by level: as long as
every clique of the current size is a face, its extensions are enumerated;
the first non-face clique encountered is a minimal witness (smallest size,
then lexicographic in canonical-key order).  The verdict is that witness,
a sorted tuple of divisor keys, or ``None`` for a flag complex: its
divisors meet pairwise, being a clique, but not all together, being no
face.  :func:`flag_verdict` reads the store's whole face level of each
clique size it reaches, and no deeper, so a small witness never forces a
deep enumeration.
The paper's theorem is the comparison of that verdict with
:func:`predicted_flag`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping

from .enumeration import StratumStore
from .graphs import DualGraph, GnSignature, chain, divisor_graph, key_to_hex

BCOMPLEX_SCHEMA = "bcomplex/1"


@dataclass(frozen=True)
class BoundaryComplex:
    """Simplicial complex on divisor keys with explicit face sets per size.

    ``faces[j]`` holds the j-element faces as sorted tuples of divisor keys;
    for j >= 2 it is the store's face map itself, which gives each face's
    components.  Vertex indices into ``vertices`` appear only in the exports.
    """

    signature: GnSignature
    vertices: tuple[bytes, ...]
    divisor_graphs: tuple[DualGraph, ...]
    faces: Mapping[int, Collection[tuple[bytes, ...]]]

    def f_vector(self) -> tuple[int, ...]:
        top = max((j for j, fs in self.faces.items() if fs), default=0)
        return tuple(len(self.faces.get(j, ())) for j in range(1, top + 1))

    def _indexed(self, faces: Iterable[tuple[bytes, ...]]) -> list[tuple[int, ...]]:
        """Each face as the sorted tuple of its vertex indices."""
        index = {key: i for i, key in enumerate(self.vertices)}
        return [tuple(sorted(index[key] for key in face)) for face in faces]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.vertices]
        for u, v in self._indexed(self.faces.get(2, ())):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Maximal faces, as sorted index tuples in lexicographic order."""
        out = []
        for j, level in self.faces.items():
            out += set(level).difference(_subfaces(self.faces.get(j + 1, ())))
        return tuple(sorted(self._indexed(out)))

    def to_json_obj(self) -> dict:
        return {
            "schema": BCOMPLEX_SCHEMA,
            "g": self.signature.g,
            "n": self.signature.n,
            "vertices": [key_to_hex(k) for k in self.vertices],
            "facets": [list(f) for f in self.facets()],
        }

    def to_dot(self) -> str:
        """The 1-skeleton in DOT form, divisor graphs in tooltips."""
        sig = self.signature
        lines = [f'graph "boundary_complex_g{sig.g}n{sig.n}" {{']
        for i, G in enumerate(self.divisor_graphs):
            lines.append(f'  v{i} [label="v{i}", tooltip="{G.describe()}"];')
        for u, v in sorted(self._indexed(self.faces.get(2, ()))):
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def boundary_complex(
    sig: GnSignature, store: StratumStore, max_dim: int | None = None
) -> BoundaryComplex:
    """Build the boundary complex of ``sig`` up to faces of size ``max_dim``.

    The default depth is the full dimension.  Dimension-0 signatures yield
    the empty complex.
    """
    if max_dim is not None and not 0 <= max_dim <= sig.dim:
        raise ValueError(f"max_dim={max_dim} out of range 0..{sig.dim} for {sig}")
    table = store.divisors(sig)
    vertices = tuple(table)
    depth = min(sig.dim if max_dim is None else max_dim, len(vertices))
    faces: dict[int, Collection[tuple[bytes, ...]]] = {}
    if vertices:
        faces[1] = frozenset((key,) for key in vertices)
    for j in range(2, depth + 1):
        faces[j] = store.faces(sig, j)
    _verify_downward_closed(faces)
    return BoundaryComplex(sig, vertices, tuple(table.values()), faces)


def _subfaces(faces: Iterable[tuple[bytes, ...]]) -> Iterator[tuple[bytes, ...]]:
    """Each face with one position dropped, lazily and with repeats."""
    for face in faces:
        for i in range(len(face)):
            yield face[:i] + face[i + 1 :]


def _verify_downward_closed(faces: Mapping[int, Collection[tuple[bytes, ...]]]) -> None:
    for j in sorted(faces.keys() - {1}):
        below = faces.get(j - 1, ())
        for sub in _subfaces(faces[j]):
            if sub not in below:
                raise RuntimeError(f"downward closure violated: {sub} is no face")


# -- flag property ------------------------------------------------------------


def flag_verdict(sig: GnSignature, store: StratumStore) -> tuple[bytes, ...] | None:
    """The least non-face clique of ``sig``'s complex as sorted divisor keys; ``None`` if flag.

    Cliques of size j extend those of size j-1 by a common neighbour above
    their last key, so each is made once and a level comes out in
    lexicographic order; the first clique missing from the store's j-faces
    is the witness, and cliques above the dimension are never faces.  Face
    level j is read only once j-cliques exist, so a small witness never
    forces a deep enumeration.
    """
    cliques = sorted(store.faces(sig, 2)) if sig.dim >= 2 else []
    adjacency: dict[bytes, set[bytes]] = {}
    for u, v in cliques:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    for j in range(3, sig.dim + 2):
        cliques = [
            c + (w,)
            for c in cliques
            for w in sorted(set.intersection(*(adjacency[u] for u in c)))
            if w > c[-1]
        ]
        if not cliques:
            return None
        level = store.faces(sig, j) if j <= sig.dim else ()
        for c in cliques:
            if c not in level:
                return c
    return None


# -- classification -----------------------------------------------------------


def predicted_flag(sig: GnSignature) -> bool:
    """The classification: flag iff g <= 1, n <= 1, or (g,n) = (2,2)."""
    return sig.g <= 1 or sig.n <= 1 or (sig.g, sig.n) == (2, 2)


# -- counterexample families ---------------------------------------------------


@dataclass(frozen=True)
class Family:
    """Divisors labelled 1..m that meet pairwise but not all together.

    ``pairs[i, j]`` (i < j) is the displayed graph of the one component in
    which divisors ``i`` and ``j`` meet.
    """

    signature: GnSignature
    divisors: Mapping[int, DualGraph]
    pairs: Mapping[tuple[int, int], DualGraph]


def pinwheel(n: int) -> Family:
    """The n genus-2 pinwheel divisors, n >= 3.

    Divisor i is a genus-1 vertex with every mark but i -- genus-1 with i;
    divisors i and j meet in the chain 1(i) -- 0(rest) -- 1(j).
    """
    if n < 3:
        raise ValueError("pinwheel family needs n >= 3")
    marks = range(1, n + 1)
    return Family(
        GnSignature(2, n),
        {i: divisor_graph(2, n, (1, [m for m in marks if m != i])) for i in marks},
        {
            (i, j): chain([(1, (i,)), (0, [m for m in marks if m not in (i, j)]), (1, (j,))])
            for i, j in combinations(marks, 2)
        },
    )


def high_genus(g: int, n: int) -> Family:
    """The three divisors of the g >= 3, n >= 2 counterexample.

    Divisor t is a genus-(g-1) vertex with marks (), (1,) or (2..n) for
    t = 1, 2, 3 -- genus 1 with the other marks.
    """
    if g < 3 or n < 2:
        raise ValueError("high-genus triple needs g >= 3 and n >= 2")
    rest = tuple(range(2, n + 1))
    sides = {1: (), 2: (1,), 3: rest}
    return Family(
        GnSignature(g, n),
        {t: divisor_graph(g, n, (g - 1, A)) for t, A in sides.items()},
        {
            (1, 2): chain([(g - 1, ()), (0, (1,)), (1, rest)]),
            (1, 3): chain([(g - 1, ()), (0, rest), (1, (1,))]),
            (2, 3): chain([(1, rest), (g - 2, ()), (1, (1,))]),
        },
    )


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
