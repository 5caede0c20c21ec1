"""Per-layer tracing of typika from outside the package.

`Tracer.install` replaces public functions of the package with wrappers at
every module binding that refers to them, and `uninstall` puts the originals
back. Each wrapper records a span (name, start, end, parent) in flat arrays
kept in memory, plus counts. Self time is a span's duration minus the
durations of its direct children. Work the tracer does for its own counts
runs in a `trace.hooks` span, so it is charged to no layer; what runs before
a call is a single read or store. Counting the
names in `COUNTED` adds a Python call to each of millions of calls, which
would land in the self time of their callers, so a tracer counts them only
when asked to, and a traced run takes its times from a tracer that does not.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# (module, attribute, span name). Attributes with a dot are class methods.
SPANNED = (
    ("typika.cli", "main", "cli.main"),
    ("typika.parser", "parse_kb", "parser.parse_kb"),
    ("typika.parser", "parse_axiom", "parser.parse_axiom"),
    ("typika.ranking", "in_rational_closure", "ranking.in_rational_closure"),
    ("typika.ranking", "RankedTBox.__init__", "ranking.stratify"),
    ("typika.ranking", "RankedTBox.rank", "ranking.rank"),
    ("typika.ranking", "satisfiable_wrt_kb", "ranking.satisfiable_wrt_kb"),
    ("typika.tableau", "entails_strict", "tableau.entails_strict"),
    ("typika.tableau", "is_satisfiable", "tableau.is_satisfiable"),
    ("typika.models", "build_canonical_domain", "models.build_canonical_domain"),
    ("typika.models", "single_pref_model", "models.single_pref_model"),
    ("typika.models", "minimal_canonical_models", "models.minimal_canonical_models"),
)
# Counted only: called too often for a span each.
COUNTED = (("typika.syntax", "concept_key", "syntax.concept_key"),)


class TraceError(RuntimeError):
    """A wrapped name is missing, or was never called."""


class Tracer:
    def __init__(self, count_keys: bool = False) -> None:
        self.count_keys = count_keys
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._last_domain = None

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def _spanning(self, name: str, fn: Callable,
                  before: Optional[Callable] = None,
                  after: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        hooks = self._name_id("trace.hooks")
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            token = before(args, kwargs) if before else None
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i)
                if after:
                    h = self._open(hooks)
                    after(token, args, kwargs, None, exc)
                    self._close(h)
                raise
            self._close(i)
            if after:
                h = self._open(hooks)
                after(token, args, kwargs, out, None)
                self._close(h)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for counts ---------------------------------------------------------

    def _after_sat(self, token, args, kwargs, out, exc) -> None:
        if exc is None and not out.satisfiable:
            self.counts["tableau.unsat"] += 1

    def _before_rank(self, args, kwargs) -> int:
        return self.counts["tableau.is_satisfiable"]

    def _after_rank(self, token, args, kwargs, out, exc) -> None:
        if self.counts["tableau.is_satisfiable"] == token:
            self.counts["ranking.rank_memo_hits"] += 1

    def _after_domain(self, token, args, kwargs, out, exc) -> None:
        if exc is None:
            self._last_domain = out
            self.counts["models.domain_types"] += out.size
            self.counts["models.closure_size"] += len(out.closure)

    def _before_enriched(self, args, kwargs) -> None:
        self._last_domain = None

    def _after_enriched(self, token, args, kwargs, out, exc) -> None:
        bound_args = self._enriched_sig.bind(*args, **kwargs)
        bound_args.apply_defaults()
        arguments = bound_args.arguments
        if isinstance(exc, self._rank_bound_error):
            self.counts["models.rank_bound_errors"] += 1
        elif exc is None:
            self.counts["models.frontier_models"] += len(out)
        domain = arguments["domain"] or self._last_domain
        if domain is None:
            return
        kb = arguments["kb"]
        bound = arguments["rank_bound"]
        if bound is None:
            bound = self._default_rank_bound(kb)
        # evaluating antecedents calls concept_key; keep those out of the count
        keys = self.counts["syntax.concept_key"]
        k = sum(1 for lhs in {ax.lhs for ax in kb.defeasible} if domain.eval(lhs))
        self.counts["syntax.concept_key"] = keys
        self.counts["models.kappa_guesses"] += (bound + 1) ** k

    # -- install ------------------------------------------------------------------

    def _patch_everywhere(self, module, attr: str, wrap: Callable) -> None:
        """Rebinds `module.attr` (or a class method) in every typika module
        that holds the same object."""
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                raise TraceError(f"{module.__name__}.{attr} is missing")
            self._set(owner, method, wrap(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            raise TraceError(f"{module.__name__}.{attr} is missing")
        wrapped = wrap(original)
        for name, mod in sorted(sys.modules.items()):
            if name == "typika" or name.startswith("typika."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        models = importlib.import_module("typika.models")
        self._default_rank_bound = models.default_rank_bound
        self._rank_bound_error = models.RankBoundExceededError
        self._enriched_sig = inspect.signature(models.minimal_canonical_models)
        hooks = {
            "tableau.is_satisfiable": (None, self._after_sat),
            "ranking.rank": (self._before_rank, self._after_rank),
            "models.build_canonical_domain": (None, self._after_domain),
            "models.minimal_canonical_models": (self._before_enriched,
                                                self._after_enriched),
        }
        try:
            for mod_name, attr, name in SPANNED:
                before, after = hooks.get(name, (None, None))
                self._patch_everywhere(
                    importlib.import_module(mod_name), attr,
                    lambda fn, n=name, b=before, a=after: self._spanning(n, fn, b, a))
            for mod_name, attr, name in COUNTED if self.count_keys else ():
                self._patch_everywhere(importlib.import_module(mod_name), attr,
                                       lambda fn, n=name: self._counting(n, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def never_called(self) -> list[str]:
        wrapped = SPANNED + COUNTED if self.count_keys else SPANNED
        return [name for _, _, name in wrapped if not self.counts[name]]

    def span_counts(self) -> dict[str, int]:
        """Every count except those of `COUNTED` names."""
        counted = {name for _, _, name in COUNTED}
        return {k: v for k, v in self.counts.items() if k not in counted}

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            inclusive[name] = inclusive.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i]
        return inclusive, own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        inclusive, own = self.times()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def self_s(*names: str) -> float:
            return sum(own.get(n, 0.0) for n in names)

        sat = c["tableau.is_satisfiable"]
        return {
            "tableau.calls": (sat, "count"),
            "tableau.self_s": (self_s("tableau.entails_strict",
                                      "tableau.is_satisfiable"), "s"),
            "tableau.unsat_share": (ratio(c["tableau.unsat"], sat), "share"),
            "ranking.rank_calls": (c["ranking.rank"], "count"),
            "ranking.rank_memo_hit_ratio": (ratio(c["ranking.rank_memo_hits"],
                                                  c["ranking.rank"]), "share"),
            "ranking.sat_wrt_kb_calls": (c["ranking.satisfiable_wrt_kb"], "count"),
            "ranking.sat_wrt_kb_self_s": (self_s("ranking.satisfiable_wrt_kb"), "s"),
            "ranking.stratifications": (c["ranking.stratify"], "count"),
            "ranking.stratify_s": (inclusive.get("ranking.stratify", 0.0), "s"),
            "ranking.rc_s": (inclusive.get("ranking.in_rational_closure", 0.0), "s"),
            "models.domain_builds": (c["models.build_canonical_domain"], "count"),
            "models.domain_build_s": (inclusive.get("models.build_canonical_domain",
                                                    0.0), "s"),
            "models.domain_types": (c["models.domain_types"], "count"),
            "models.closure_size": (c["models.closure_size"], "count"),
            "models.single_pref_s": (self_s("models.single_pref_model"), "s"),
            "models.enriched_s": (self_s("models.minimal_canonical_models"), "s"),
            "models.kappa_guesses": (c["models.kappa_guesses"], "count"),
            "models.frontier_yield": (ratio(c["models.frontier_models"],
                                            c["models.kappa_guesses"]), "share"),
            "models.rank_bound_errors": (c["models.rank_bound_errors"], "count"),
            "parser.calls": (c["parser.parse_kb"] + c["parser.parse_axiom"], "count"),
            "parser.self_s": (self_s("parser.parse_kb", "parser.parse_axiom"), "s"),
            "cli.self_s": (self_s("cli.main"), "s"),
        }
