"""Per-layer spans for perfbench's traced repetitions.

The tracer wraps, from outside the program, the public functions each layer
of ``strata`` calls in the layer below (graphs <- enumeration <- lattice <-
complexes <- cli). A module-level function is replaced at every import
site, e.g. ``strata.enumeration.canonical_key`` as well as
``strata.graphs.canonical_key``, so no call escapes its wrapper; a method is
replaced on its class. Each call is a span; a span's self time is its
duration minus the durations of the wrapped spans it called. Totals are kept
in memory and read once with :meth:`Tracer.metrics`.

``DualGraph.valence`` is counted, not timed: it is called several times per
graph and a timed wrapper would cost more than the call. Its time stays in
the self time of whichever span called it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LEVELS = range(1, 11)  # the .k<k> breakdowns; canonical_key also reports k0

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.key_self_s: dict[int, float] = defaultdict(float)
        self.yielded: dict[int, int] = defaultdict(int)
        self.unique: dict[int, set[bytes]] = defaultdict(set)
        self.scanned = 0
        self.nonempty = 0
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span name]
        self._last_child = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[0] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
            if after is not None:
                after(args, result, elapsed - frame[0], parent[1])
            return result

        return wrapper

    def _children_span(self, fn):
        """Time each step of the ``children`` generator as its own span."""
        name = "enumeration.children"
        stack, self_s = self._stack, self.self_s

        def wrapper(G):
            self.calls[name] += 1
            inner = fn(G)
            while True:
                parent = stack[-1]
                frame = [0.0, name]
                stack.append(frame)
                start = perf_counter()
                try:
                    child = next(inner, _DONE)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    parent[0] += elapsed
                    self_s[name] += elapsed - frame[0]
                if child is _DONE:
                    return
                self.yielded[child.num_edges] += 1
                self._last_child = child
                yield child

        return wrapper

    def _after_key(self, args, key, own_s, parent):
        G = args[0]
        self.key_self_s[G.num_edges] += own_s
        # The generator keys each child as soon as it is yielded, so the
        # distinct keys of yielded children are the graphs of each new level.
        if G is self._last_child:
            self.unique[G.num_edges].add(key)
            self._last_child = None

    def _after_support(self, args, result, own_s, parent):
        if parent == "lattice.intersection_components":
            self.scanned += 1

    def _after_query(self, args, report, own_s, parent):
        self.nonempty += bool(report.components)

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "strata" and not mod_name.startswith("strata."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        import strata.cli as cli
        import strata.complexes as complexes
        import strata.enumeration as enumeration
        import strata.graphs as graphs
        import strata.lattice as lattice

        self._patch_everywhere(
            graphs,
            "canonical_key",
            lambda f: self._span("graphs.canonical_key", f, self._after_key),
        )
        DG = graphs.DualGraph
        self._patch_method(DG, "__init__", lambda f: self._span("graphs.DualGraph.init", f))
        self._patch_method(DG, "valence", lambda f: self._count("graphs.valence", f))
        self._patch_method(
            DG,
            "delta_support",
            lambda f: self._span("graphs.delta_support", f, self._after_support),
        )
        self._patch_everywhere(enumeration, "children", self._children_span)
        self._patch_method(
            enumeration.StratumStore, "level", lambda f: self._span("enumeration.level", f)
        )
        self._patch_everywhere(
            lattice,
            "intersection_components",
            lambda f: self._span("lattice.intersection_components", f, self._after_query),
        )
        self._patch_everywhere(
            complexes, "flag_verdict", lambda f: self._span("complexes.flag_verdict", f)
        )
        self._patch_everywhere(cli, "main", lambda f: self._span("cli.main", f))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.self_s
        yielded = sum(self.yielded.values())
        unique = sum(len(keys) for keys in self.unique.values())
        queries = c["lattice.intersection_components"]
        m = {
            "graphs.canonical_key.calls": c["graphs.canonical_key"],
            "graphs.canonical_key.self_s": s["graphs.canonical_key"],
            "graphs.canonical_key.self_s.k0": self.key_self_s[0],
        }
        m.update({f"graphs.canonical_key.self_s.k{k}": self.key_self_s[k] for k in LEVELS})
        m.update(
            {
                "graphs.DualGraph.init.calls": c["graphs.DualGraph.init"],
                "graphs.DualGraph.init.self_s": s["graphs.DualGraph.init"],
                "graphs.valence.calls": c["graphs.valence"],
                "graphs.delta_support.calls": c["graphs.delta_support"],
                "graphs.delta_support.self_s": s["graphs.delta_support"],
                "enumeration.children.parents": c["enumeration.children"],
                "enumeration.children.yielded": yielded,
                "enumeration.children.self_s": s["enumeration.children"],
                "enumeration.unique_graphs": unique,
                "enumeration.dup_ratio": yielded / unique if unique else 0.0,
                "enumeration.level.self_s": s["enumeration.level"],
                "lattice.intersection_components.calls": queries,
                "lattice.intersection_components.self_s": s["lattice.intersection_components"],
                "lattice.graphs_scanned_per_query": self.scanned / queries if queries else 0.0,
                "lattice.nonempty_ratio": self.nonempty / queries if queries else 0.0,
                "complexes.flag_verdict.s": self.total_s["complexes.flag_verdict"],
                "complexes.flag_verdict.self_s": s["complexes.flag_verdict"],
                "cli.main.self_s": s["cli.main"],
            }
        )
        for k in LEVELS:
            n_unique = len(self.unique[k])
            m[f"enumeration.children.yielded.k{k}"] = self.yielded[k]
            m[f"enumeration.dup_ratio.k{k}"] = self.yielded[k] / n_unique if n_unique else 0.0
        return m
