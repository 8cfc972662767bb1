from __future__ import annotations

import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import strata

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_and_star_import():
    for name in strata.__all__:
        assert hasattr(strata, name), name
    namespace: dict = {}
    exec("from strata import *", namespace)
    assert set(strata.__all__) <= set(namespace)


def test_no_public_store_parameter_has_a_default():
    """Every public function or method that reads the store is handed one."""
    functions = []
    for name in strata.__all__:
        obj = getattr(strata, name)
        if inspect.isclass(obj):
            functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
        elif inspect.isfunction(obj):
            functions.append(obj)
    with_store = [f for f in functions if "store" in inspect.signature(f).parameters]
    assert {f.__qualname__ for f in with_store} == {
        "boundary_complex",
        "divisor_set",
        "flag_verdict",
        "intersection_components",
    }
    for f in with_store:
        param = inspect.signature(f).parameters["store"]
        assert param.default is inspect.Parameter.empty, f.__qualname__


MODULES = {"strata"} | {path.stem for path in (ROOT / "src" / "strata").glob("*.py")}


def _references(tree: ast.AST) -> set[str]:
    """Names read in ``tree``: a bare ``Name``, or an ``Attribute`` of a strata module.

    An import or a docstring is no reference, and neither is an attribute
    of some other object (``itertools.chain`` is not :func:`strata.chain`).
    """
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        or isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in ``strata.__all__`` is reached from code that runs without the tests.

    The roots are the module-level statements of the package's modules and
    everything in ``perfbench/`` and ``tools/``; a top-level definition is
    reached when a reached definition (never itself) references it.  So a
    test-only name does not keep another test-only name public.
    """
    defs: dict[str, set[str]] = {}
    reached: set[str] = set()
    for path in sorted((ROOT / "src" / "strata").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                name = getattr(node, "name", None)
                if name is None:
                    reached |= _references(node)
                else:
                    defs.setdefault(name, set()).update(_references(node) - {name})
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]):
        reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    frontier = set(reached)
    while frontier:
        frontier = set().union(*(defs.get(name, ()) for name in frontier)) - reached
        reached |= frontier
    assert sorted(set(strata.__all__) - reached) == []


def test_every_public_member_is_read_outside_the_tests():
    """Each public method and property of a class in ``strata.__all__`` is read by name.

    A read is an attribute of that name on any object, in the package's
    modules, ``perfbench/`` or ``tools/``.  ``DualGraph.valence`` is the one
    exception: ``perfbench/tracer.py`` patches it by string, and it leaves
    together with that patch.
    """
    read = {
        node.attr
        for path in [
            *(ROOT / "src" / "strata").glob("*.py"),
            *ROOT.glob("perfbench/*.py"),
            *ROOT.glob("tools/*.py"),
        ]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    unread = {
        f"{name}.{member}"
        for name in strata.__all__
        if inspect.isclass(cls := getattr(strata, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod)))
        and member not in read
    }
    assert sorted(unread - {"DualGraph.valence"}) == []


def test_readme_examples_print_what_their_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(block, namespace)
    printed = out.getvalue().splitlines()
    assert printed == ["9", "40", "False", "3", "(4, 5, 2)", "1 True", "True", "False"]
    comments = [
        line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(comments) == len(printed)
    for value, comment in zip(printed, comments):
        assert comment.startswith(value), (value, comment)
