"""The package surface: what `typika` exports and what it keeps."""

import importlib
import pkgutil
import types

import typika


def submodules():
    # `__main__` runs the command line when imported
    return [importlib.import_module(f"typika.{info.name}")
            for info in pkgutil.iter_modules(typika.__path__)
            if info.name != "__main__"]


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(typika.__all__)) == len(typika.__all__)
    for name in typika.__all__:
        assert not isinstance(getattr(typika, name), types.ModuleType), name
    assert "RankedTBox" in typika.__all__


def test_no_submodule_keeps_a_functools_cache():
    # derived per-KB state belongs to per-KB objects, never to a module
    mods = submodules()
    assert {m.__name__ for m in mods} >= {"typika.ranking", "typika.tableau"}
    for mod in mods:
        for name, value in vars(mod).items():
            assert not hasattr(value, "cache_info"), f"{mod.__name__}.{name}"
