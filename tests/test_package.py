"""The package surface: what `typika` exports and what it keeps."""

import ast
import copy
import importlib
import importlib.util
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# ------------------------------------------------------------ value types


# each value type's fields, in constructor order
FIELDS = {
    "Strict": ("lhs", "rhs"), "Defeasible": ("lhs", "rhs"),
    "ConceptAssertion": ("concept", "individual", "typical"),
    "RoleAssertion": ("role", "subject", "target"),
    "KnowledgeBase": ("strict", "defeasible", "abox"), "StrictTBox": ("axioms",),
    "Witness": ("size", "atom_ext", "role_ext", "root"), "SatResult": ("satisfiable", "witness"),
    "Model": ("domain", "rank_masks", "aspect_masks"),
}


def values():
    """One value of each of the package's value types but `Model`, with its
    repr."""
    from typika import (Atom, ConceptAssertion, Defeasible, RoleAssertion, Strict, StrictTBox,
                        is_satisfiable, parse_kb)
    from typika.syntax import And, Exists

    a, b = Atom("A"), Atom("B")
    kb = parse_kb("A => B\nT(A) => not B\nT(B)(y)\nr(x, y)\n")
    sat = is_satisfiable(And(a, Exists("r", b)), want_witness=True)
    witness = ("Witness(size=2, atom_ext=(('A', frozenset({0})), ('B', frozenset({1}))),"
               " role_ext=(('r', frozenset({(0, 1)})),), root=0)")
    return [
        (Strict(a, b), "A => B"),
        (Defeasible(a, b), "T(A) => B"),
        (ConceptAssertion(a, "x"), "ConceptAssertion(concept=A, individual='x', typical=False)"),
        (RoleAssertion("r", "x", "y"), "RoleAssertion(role='r', subject='x', target='y')"),
        (kb, "KnowledgeBase(strict=(A => B,), defeasible=(T(A) => not B,), abox=("
             "ConceptAssertion(concept=B, individual='y', typical=True),"
             " RoleAssertion(role='r', subject='x', target='y')))"),
        (StrictTBox.from_axioms(kb.strict), "StrictTBox(axioms=((A, B),))"),
        (sat.witness, witness),
        (sat, f"SatResult(satisfiable=True, witness={witness})"),
    ]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value).__name__])


def set3_model():
    from conftest import SET3_TEXT
    from typika import RankedTBox, parse_kb

    kb = parse_kb(SET3_TEXT)
    return models.minimal_canonical_models(kb, models.build_canonical_domain(RankedTBox(kb)))[0]


def test_value_types_compare_hash_and_print_by_their_fields():
    from typika import Atom, ConceptAssertion, Defeasible, RoleAssertion, Strict
    from typika.kb import cached

    a, b = Atom("A"), Atom("B")
    assert Strict(a, b) != Defeasible(a, b) and Defeasible(a, b) != Strict(a, b)
    # values of two classes compare by identity, as each leaves it to the other
    fact, edge = ConceptAssertion(a, "x"), RoleAssertion("r", "x", "x")
    assert fact.__eq__(edge) is NotImplemented and fact != edge
    assert Strict(a, b) == Strict(Atom("A"), Atom("B")) != Strict(b, a)
    assert {type(v).__name__ for v, _ in values()} | {"Model"} == set(FIELDS)
    for value, text in values():
        twin = type(value)(*fields(value))
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert repr(value) == text
    # a model compares by identity
    model = set3_model()
    twin = models.Model(*fields(model))
    assert model == model and twin != model and hash(twin) != hash(model)
    # a cached field read on its class is its descriptor
    assert isinstance(models.Model.global_ranks, cached)


def test_value_types_are_frozen():
    for value in [v for v, _ in values()] + [set3_model()]:
        for name in FIELDS[type(value).__name__]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_value_types_pickle_and_copy_by_their_fields():
    for value, _ in values():
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin is not value and type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    model = set3_model()
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert twin is not model and twin.domain is not model.domain
        assert twin.domain.codes == model.domain.codes
        assert fields(twin)[1:] == fields(model)[1:] and twin.global_ranks == model.global_ranks


def _loaded_after(code):
    """What `code`, run in a fresh `python -S`, prints after the sorted
    names of `dataclasses`, `inspect`, `argparse` and `gettext` it left
    loaded."""
    code += ("; print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    return out.stdout


def test_importing_the_cli_imports_no_dataclasses_inspect_argparse_or_gettext():
    # the value types are plain classes, and argparse is built only for the
    # argvs the cli's own reader leaves
    assert _loaded_after("import sys; import typika.cli") == "[]\n"


def test_a_canonical_call_loads_no_argparse():
    # `--js` is read by argparse alone, and answers as `--json` does
    kb, queries = str(ROOT / "kbs" / "set3.kb"), str(ROOT / "kbs" / "set3_queries.txt")
    canonical, abbreviated = (
        _loaded_after("import sys; from typika.cli import main; "
                      f"main(['compare', {flag!r}, {kb!r}, {queries!r}])")
        for flag in ("--json", "--js"))
    assert canonical.endswith("}\n[]\n")
    assert abbreviated == canonical[:-3] + "['argparse', 'gettext']\n"
