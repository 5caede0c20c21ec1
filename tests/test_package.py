"""The package surface: what `typika` exports and what it keeps."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import typika
from typika import cli, models

ROOT = Path(__file__).resolve().parents[1]


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


def container_sizes():
    """The length of every dict, list and set bound in the package's modules
    or in their classes."""
    return {key: len(value) for key, value in bindings().items()
            if isinstance(value, (dict, list, set)) and not key[-1].startswith("__")}


def test_no_submodule_keeps_a_functools_cache(tmp_path, capsys):
    # derived per-KB state belongs to per-KB objects, never to a module:
    # no module keeps a functools cache, and a compare run grows no dict,
    # list or set of a module or class (a node table of the parser's, say)
    mods = submodules()
    assert {m.__name__ for m in mods} >= {"typika.ranking", "typika.tableau"}
    for mod in mods:
        for name, value in vars(mod).items():
            assert not hasattr(value, "cache_info"), f"{mod.__name__}.{name}"
    queries = tmp_path / "queries.txt"
    queries.write_text((ROOT / "kbs" / "set3_queries.txt").read_text(encoding="utf-8")
                       + "T((Penguin and Blond)) => not Fly\nT(not Blond) => Fly\n")
    before = container_sizes()
    assert ("typika.parser", "RESERVED") in before
    assert cli.main(["compare", "--json", str(ROOT / "kbs" / "set3.kb"), str(queries)]) == 0
    assert '"error"' not in capsys.readouterr().out
    assert container_sizes() == before


def test_model_functions_take_the_callers_domain():
    # no entry point builds a domain of its own
    for fn in (models.single_pref_model, models.minimal_canonical_models):
        domain = inspect.signature(fn).parameters["domain"]
        assert domain.default is inspect.Parameter.empty, fn.__name__


def test_minimal_models_keep_the_traced_parameter_names():
    # the benchmark's tracer binds these by name
    params = inspect.signature(models.minimal_canonical_models).parameters
    assert {"kb", "rank_bound", "domain"} <= set(params)


def test_one_model_type_is_exported():
    assert "Model" in typika.__all__
    gone = {"Rank", "RankAssignment", "EnrichedModel", "SinglePrefModel", "Verdict",
            "single_pref_entails", "enriched_entails", "min_global"}
    assert not gone & set(typika.__all__)


def bindings():
    """Every name bound in the package's modules and in their classes."""
    out = {}
    for mod in [typika] + submodules():
        for name, value in vars(mod).items():
            out[mod.__name__, name] = value
            if isinstance(value, type) and value.__module__.startswith("typika."):
                out.update(((mod.__name__, name, attr), member)
                           for attr, member in vars(value).items())
    return out


def test_benchmark_tracer_finds_every_traced_name(tmp_path, capsys):
    # the benchmark's tracer wraps package functions by name: a rename, or
    # a call path that skips one, must fail here and not only in a traced
    # benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    queries = tmp_path / "queries.txt"
    queries.write_text((ROOT / "kbs" / "set3_queries.txt").read_text(encoding="utf-8")
                       + "T((Penguin and Blond)) => not Fly\n")
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bindings() != before
        cli.main(["compare", "--json", str(ROOT / "kbs" / "set3.kb"), str(queries)])
    finally:
        tracer.uninstall()
    assert '"error"' not in capsys.readouterr().out
    assert tracer.never_called() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_no_module_imports_a_name_it_does_not_use():
    # every name a module imports is read in it, or exported by its `__all__`
    for path in sorted((ROOT / "src" / "typika").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - read - exported == set(), path.name
