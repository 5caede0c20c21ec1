"""The package surface: what `typika` exports and what it keeps."""

import importlib
import inspect
import pkgutil
import types

import typika
from typika import models


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


def test_model_functions_take_the_callers_domain():
    # no entry point builds a domain of its own
    for fn in (models.single_pref_model, models.minimal_canonical_models,
               models.single_pref_entails, models.enriched_entails):
        domain = inspect.signature(fn).parameters["domain"]
        assert domain.default is inspect.Parameter.empty, fn.__name__


def test_minimal_models_keep_the_traced_parameter_names():
    # the benchmark's tracer binds these by name
    params = inspect.signature(models.minimal_canonical_models).parameters
    assert {"kb", "rank_bound", "domain"} <= set(params)


def test_one_model_type_is_exported():
    assert "Model" in typika.__all__
    gone = {"Rank", "RankAssignment", "EnrichedModel", "SinglePrefModel"}
    assert not gone & set(typika.__all__)
