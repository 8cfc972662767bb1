from __future__ import annotations

import inspect

import strata


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
    assert len(with_store) >= 7
    for f in with_store:
        param = inspect.signature(f).parameters["store"]
        assert param.default is inspect.Parameter.empty, f.__qualname__
