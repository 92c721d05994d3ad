"""RB106 trace-hygiene: span emission must itself be deterministic.

The observability layer's contract (docs/OBSERVABILITY.md) is that a
trace is a *pure function of the seed*: span ids derive from
``(txn_id, site, seq)`` counters, timestamps from ``sim.now``, and
orderings from sorted views.  Code that emits spans but draws entropy —
an RNG call feeding a span id, a wall-clock read passed as a timestamp,
a ``set`` whose iteration order names or orders spans — silently breaks
byte-identical trace replay in ways RB102 cannot see (RB102 only knows
the global ``random`` module, ``time.*`` attribute reads, and *direct*
set iteration).

The rule therefore scopes itself to *trace code* and applies a stricter
catalog there.  Trace code is:

* any function whose name mentions ``span`` or ``trace``
  (``_trace_flight``, ``begin_span``, ``render_span_tree``, ...);
* the argument expressions of tracer-API calls — ``*.begin_span(...)`` /
  ``*.end_span(...)`` anywhere, and ``begin``/``finish``/``record``
  called on a receiver whose dotted path mentions ``tracer``;
* what reaches an execution stream: each loop over a site's or the
  network's ``*.subscribers`` list, and the arguments of calls to a method
  of the module that holds one (the site's ``_emit``).

Inside that scope it flags:

* RNG draws through *any* receiver that looks like an RNG (``rng.random()``,
  ``self.rng.choice(...)``) — span ids and orderings must come from
  deterministic counters;
* wall-clock reads in every form, including ``from time import
  perf_counter`` and with **no** monitor//benchmarks/ exemption — span
  timestamps must be ``sim.now``;
* ``id(...)`` anywhere in scope — memory addresses must never leak into
  span identity;
* unordered-set ordering: iterating a set expression *or a local name
  assigned from one*, and passing a set expression straight into a
  tracer-API call.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.core import ERROR, Finding, Rule, register_rule
from repro.analysis.engine import ModuleInfo, Project

__all__ = ["TraceHygieneRule"]

#: Function names that mark a definition as trace code.
_SCOPE_NAME = re.compile(r"span|trace", re.IGNORECASE)

#: Tracer-API method names that put their arguments in scope.
_SPAN_METHODS = frozenset({"begin_span", "end_span"})
_TRACER_METHODS = frozenset({"begin", "finish", "record"})

#: RNG method names (superset of the global-``random`` surface — the
#: receiver here is an RNG *object*, which RB102 does not track).
_RNG_METHODS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "expovariate", "gauss", "normalvariate",
    "getrandbits", "randbytes", "triangular",
})

#: Clock-reading callable names, in bare (from-imported) or attribute form.
_CLOCK_NAMES = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "now", "utcnow", "today",
})
_CLOCK_MODULES = frozenset({"time", "datetime", "date"})


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted path of an expression (``self.obs.tracer`` ...)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _is_tracer_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _SPAN_METHODS:
        return True
    if func.attr in _TRACER_METHODS:
        return "tracer" in _dotted(func.value).lower()
    return False


@register_rule
class TraceHygieneRule(Rule):
    """RB106: entropy inside span/trace emission code."""

    id = "RB106"
    name = "trace-hygiene"
    severity = ERROR
    description = (
        "span/trace code draws an RNG, reads the wall clock (no exemptions "
        "— span timestamps must be `sim.now`), uses `id()`, or lets "
        "unordered-set iteration derive span ids or ordering"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        # Each function's loops over a ``*.subscribers`` list: its emission.
        streams = {
            func: [
                loop for loop in ast.walk(func)
                if isinstance(loop, ast.For) and _dotted(loop.iter).endswith(".subscribers")
            ]
            for func in ast.walk(module.tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        emitters = {func.name for func, loops in streams.items() if loops}
        # Scopes nest (a helper defined inside ``render_trace``, a tracer
        # call inside a trace function), so each node is checked once.
        checked: set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _SCOPE_NAME.search(node.name):
                    yield from self._check_scope(module, node, node, checked)
                else:
                    for loop in streams[node]:
                        yield from self._check_scope(module, node, loop, checked)
            elif isinstance(node, ast.Call) and (
                _is_tracer_call(node)
                or isinstance(node.func, ast.Attribute) and node.func.attr in emitters
            ):
                # Arguments of a tracer-API or stream-emitting call are
                # trace code even when the enclosing function's name says
                # nothing about it.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _is_set_expr(arg):
                        yield self.finding(
                            module, arg,
                            "unordered set passed into a tracer or stream call: its "
                            "rendering/iteration order depends on "
                            "PYTHONHASHSEED; pass `sorted(...)`",
                        )
                    yield from self._check_entropy(module, arg, checked)

    # -- scoped function bodies ----------------------------------------------
    def _check_scope(
        self, module: ModuleInfo, func: ast.AST, root: ast.AST, checked: set[ast.AST]
    ) -> Iterator[Finding]:
        set_names = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_set_expr(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(root):
            if node in checked:
                continue
            checked.add(node)
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, ast.For):
                yield from self._check_iter(module, node.iter, set_names)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    yield from self._check_iter(module, comp.iter, set_names)

    def _check_iter(
        self, module: ModuleInfo, iterable: ast.expr, set_names: set[str]
    ) -> Iterator[Finding]:
        if isinstance(iterable, ast.Name) and iterable.id in set_names:
            yield self.finding(
                module, iterable,
                f"trace code iterates `{iterable.id}`, a local set: iteration "
                f"order depends on PYTHONHASHSEED; wrap it in `sorted(...)`",
            )

    # -- entropy sources ------------------------------------------------------
    def _check_entropy(
        self, module: ModuleInfo, node: ast.expr, checked: set[ast.AST]
    ) -> Iterator[Finding]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and sub not in checked:
                checked.add(sub)
                yield from self._check_call(module, sub)

    def _check_call(self, module: ModuleInfo, call: ast.Call) -> Iterator[Finding]:
        message = self._entropy_message(call)
        if message is not None:
            yield self.finding(module, call, message)

    @staticmethod
    def _entropy_message(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                return ("`id(...)` in trace code: memory addresses differ "
                        "between runs; derive span identity from "
                        "`(txn_id, site, seq)` counters")
            if func.id in _CLOCK_NAMES and func.id not in ("time",):
                # Bare clock calls reach here via ``from time import ...``;
                # a bare ``time(...)`` alone is too ambiguous to flag.
                return (f"wall-clock read `{func.id}()` in trace code: span "
                        f"timestamps must come from `sim.now`")
            return None
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value).lower()
            tail = receiver.rsplit(".", 1)[-1]
            if func.attr in _RNG_METHODS and (
                "rng" in tail or "random" in tail
            ):
                return (f"trace code draws `{_dotted(func)}(...)`: span ids "
                        f"and ordering must come from deterministic counters, "
                        f"never an RNG")
            if func.attr in _CLOCK_NAMES and tail in _CLOCK_MODULES:
                return (f"wall-clock read `{_dotted(func)}()` in trace code: "
                        f"span timestamps must come from `sim.now`")
        return None
