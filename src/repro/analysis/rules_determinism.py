"""RB102 nondeterminism-hazard: sources of replay divergence.

The simulator's contract is that a seed fully determines the history.
Anything that smuggles entropy in from outside the seeded
:class:`~repro.sim.randoms.RandomStreams` breaks replays *silently* — the
run still "works", it just stops being reproducible.  Flagged hazards:

* calls through the **global** ``random`` module (``random.random()``,
  ``random.choice(...)``, ``from random import choice``): shared global
  state, perturbed by any other consumer;
* ``random.Random()`` with no seed argument: seeded from the OS;
* **wall-clock** reads (``time.time``, ``perf_counter``,
  ``datetime.now``, ...) anywhere except ``monitor/`` and ``benchmarks/``,
  which legitimately report host performance;
* iterating an expression typed as a ``set``/``frozenset`` — in ``for``,
  a comprehension, ``iter``, ``list``, ``tuple`` or ``next``: its order
  depends on the element values (their hashes), not on insertion, so
  shifting every id by a constant reorders an int set, and str elements
  follow ``PYTHONHASHSEED`` too.  An expression is typed as a set when it
  is a set literal, comprehension or ``set(...)``/``frozenset(...)`` call,
  a name or ``self`` attribute annotated ``set[...]``/``frozenset[...]``,
  a name every binding of which in its scope is such an expression, or a
  call of a method whose return annotation is ``set[...]`` (resolved
  through the project's class table).  Iterate ``sorted(...)`` or keep an
  insertion-ordered dict;
* ``itertools.count(...)`` bound at module or class scope: a counter that
  outlives the session carries ids from one session to the next in a
  process — let the session own it;
* ``id()`` used in a sort key: memory addresses vary run to run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ERROR, Finding, Rule, register_rule
from repro.analysis.engine import ModuleInfo, Project

__all__ = ["NondeterminismRule"]

#: Functions of the ``random`` module that draw from the global RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "expovariate", "gauss", "normalvariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
    "seed", "randbytes",
})

#: ``time`` module wall-clock readers.
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
})

#: ``datetime``/``date`` constructors that read the clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Path components whose files may read the wall clock (self-reported
#: simulator performance is host-dependent by definition).
_WALLCLOCK_EXEMPT_PARTS = frozenset({"monitor", "benchmarks"})

#: ``sorted``/``min``/``max``/``list.sort`` — callables that take ``key=``.
_SORTERS = frozenset({"sorted", "min", "max", "sort"})

#: Builtins that iterate their first argument in its own order.
_ITERATING_CALLS = frozenset({"iter", "list", "tuple", "next"})

#: Annotation heads that type a value as a set.
_SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _dotted_head(node: ast.expr) -> str | None:
    """``random.choice`` -> ``random``; ``a.b.c`` -> ``a`` (Names only)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    """True for ``set``, ``set[int]``, ``typing.FrozenSet[str]``, ``"set[int]"``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_TYPES
    return isinstance(annotation, ast.Name) and annotation.id in _SET_TYPES


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope``'s own body, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_counter(value: ast.expr | None, imports: "_ImportMap") -> bool:
    """True for ``itertools.count(...)`` or a from-imported ``count(...)``."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr == "count" and imports.module_aliases.get(
            _dotted_head(func) or ""
        ) == "itertools"
    return isinstance(func, ast.Name) and imports.from_imports.get(func.id) == (
        "itertools", "count"
    )


class _SetTyping:
    """Which expressions of one module are typed as sets (see the docstring)."""

    def __init__(self, module: ModuleInfo, project: Project):
        self.project = project
        #: class name -> ``self`` attributes annotated as sets in its body.
        self.set_attributes: dict[str, set[str]] = {}
        #: scope node -> names every binding of which there is a set.
        self.set_names: dict[ast.AST, set[str]] = {}
        #: node -> the innermost class enclosing it.
        self.class_of: dict[ast.AST, str] = {}
        for node in ast.walk(module.tree):  # outer classes first
            if isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    self.class_of[inner] = node.name
                self.set_attributes[node.name] = {
                    self._attribute_name(inner.target)
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.AnnAssign) and _is_set_annotation(inner.annotation)
                } - {None}

    @staticmethod
    def _attribute_name(target: ast.expr) -> str | None:
        """``x`` for a class-level ``x`` or a ``self.x`` target."""
        if isinstance(target, ast.Name):
            return target.id
        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        return None

    def names_in(self, scope: ast.AST) -> set[str]:
        """Names of ``scope`` (a function or the module) typed as sets."""
        names = self.set_names.get(scope)
        if names is not None:
            return names
        # Filled in place once the bindings are read: a binding to another
        # name of the same scope is not followed (it reads as not a set).
        self.set_names[scope] = names = set()
        binds: dict[str, list[bool]] = {}
        if isinstance(scope, _SCOPES):
            args = scope.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                binds.setdefault(arg.arg, []).append(_is_set_annotation(arg.annotation))
        for node in _scope_nodes(scope):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                binds.setdefault(node.target.id, []).append(
                    _is_set_annotation(node.annotation)
                )
            elif isinstance(node, ast.Assign):
                typed = self.is_set(node.value, scope)
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            binds.setdefault(name.id, []).append(
                                typed and target is name
                            )
            elif isinstance(node, (ast.For, ast.comprehension, ast.withitem)):
                target = node.optional_vars if isinstance(node, ast.withitem) else node.target
                for name in ast.walk(target) if target is not None else ():
                    if isinstance(name, ast.Name):
                        binds.setdefault(name.id, []).append(False)
            elif isinstance(node, ast.NamedExpr):
                binds.setdefault(node.target.id, []).append(self.is_set(node.value, scope))
        names.update(name for name, kinds in binds.items() if all(kinds))
        return names

    def is_set(self, expr: ast.expr, scope: ast.AST) -> bool:
        """True if ``expr``, evaluated in ``scope``, is typed as a set."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.names_in(scope)
        if isinstance(expr, ast.Attribute):
            cls = self.class_of.get(expr)
            return (
                isinstance(expr.value, ast.Name) and expr.value.id == "self"
                and cls is not None and expr.attr in self.set_attributes.get(cls, ())
            )
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        if isinstance(func, ast.Attribute):
            receiver = func.value
            on_self = isinstance(receiver, ast.Name) and receiver.id == "self"
            cls = self.class_of.get(expr) if on_self else None
            annotations = self.project.method_returns(cls, func.attr)
            return bool(annotations) and all(map(_is_set_annotation, annotations))
        return False


class _ImportMap:
    """What the module-level names in this file refer to."""

    def __init__(self, tree: ast.Module):
        self.module_aliases: dict[str, str] = {}   # local name -> module
        self.from_imports: dict[str, tuple[str, str]] = {}  # local -> (module, orig)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        (node.module, alias.name)


@register_rule
class NondeterminismRule(Rule):
    """RB102: entropy sources outside the seeded random streams."""

    id = "RB102"
    name = "nondeterminism-hazard"
    severity = ERROR
    description = (
        "global `random.*` usage, unseeded `random.Random()`, wall-clock "
        "reads outside monitor//benchmarks/, iteration over a set-typed "
        "expression, module- or class-scope `itertools.count`, or `id()` in "
        "sort keys — all of which de-correlate seeded replays"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        imports = _ImportMap(module.tree)
        wallclock_exempt = bool(set(module.path_parts) & _WALLCLOCK_EXEMPT_PARTS)
        typing = _SetTyping(module, project)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports, wallclock_exempt)
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.Module, *_SCOPES)):
                yield from self._check_scope(module, scope, typing)
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.Module, ast.ClassDef)):
                yield from self._check_counters(module, scope, imports)

    # -- calls ---------------------------------------------------------------
    def _check_call(
        self, module: ModuleInfo, call: ast.Call, imports: _ImportMap,
        wallclock_exempt: bool,
    ) -> Iterator[Finding]:
        func = call.func

        # random.<fn>(...) through the module object.
        if isinstance(func, ast.Attribute):
            head = _dotted_head(func)
            head_module = imports.module_aliases.get(head or "")
            if head_module == "random":
                if func.attr in _GLOBAL_RANDOM_FUNCS:
                    yield self.finding(
                        module, call,
                        f"`random.{func.attr}(...)` draws from the shared global "
                        f"RNG; use a stream from `RandomStreams` instead",
                    )
                elif func.attr == "Random" and not call.args and not call.keywords:
                    yield self.finding(
                        module, call,
                        "`random.Random()` without a seed is OS-seeded and "
                        "unreproducible; pass an explicit seed",
                    )
            elif head_module == "time" and func.attr in _TIME_FUNCS:
                if not wallclock_exempt:
                    yield self.finding(
                        module, call,
                        f"wall-clock read `time.{func.attr}()` outside monitor//"
                        f"benchmarks/; use `sim.now` for simulated time",
                    )
            elif func.attr in _DATETIME_FUNCS and self._is_datetime_head(
                func, imports
            ):
                if not wallclock_exempt:
                    yield self.finding(
                        module, call,
                        f"wall-clock read `datetime.{func.attr}()` outside "
                        f"monitor//benchmarks/; use `sim.now` for simulated time",
                    )
        elif isinstance(func, ast.Name):
            origin = imports.from_imports.get(func.id)
            if origin is not None and origin[0] == "random":
                original = origin[1]
                if original in _GLOBAL_RANDOM_FUNCS:
                    yield self.finding(
                        module, call,
                        f"`{func.id}(...)` (from `random import {original}`) draws "
                        f"from the shared global RNG; use a `RandomStreams` stream",
                    )
                elif original == "Random" and not call.args and not call.keywords:
                    yield self.finding(
                        module, call,
                        "`Random()` without a seed is OS-seeded and "
                        "unreproducible; pass an explicit seed",
                    )

        # id() in sort keys.
        func_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if func_name in _SORTERS:
            for keyword in call.keywords:
                if keyword.arg == "key" and self._key_uses_id(keyword.value):
                    yield self.finding(
                        module, keyword.value,
                        f"`{func_name}(..., key=...)` uses `id()`: memory addresses "
                        f"differ between runs, so tie-breaks are unreproducible",
                    )

    @staticmethod
    def _is_datetime_head(func: ast.Attribute, imports: _ImportMap) -> bool:
        """True for ``datetime.now`` / ``datetime.datetime.now`` shapes."""
        value = func.value
        if isinstance(value, ast.Name):
            if value.id in ("datetime", "date"):
                origin = imports.from_imports.get(value.id)
                if origin is not None:
                    return origin[0] == "datetime"
                return imports.module_aliases.get(value.id) == "datetime"
            return False
        if isinstance(value, ast.Attribute) and value.attr in ("datetime", "date"):
            head = _dotted_head(value)
            return imports.module_aliases.get(head or "") == "datetime"
        return False

    @staticmethod
    def _key_uses_id(key: ast.expr) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            for node in ast.walk(key.body):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "id"):
                    return True
        return False

    # -- set iteration -------------------------------------------------------
    def _check_scope(
        self, module: ModuleInfo, scope: ast.AST, typing: _SetTyping
    ) -> Iterator[Finding]:
        """Set-typed iterables iterated in ``scope``'s own body."""
        for node in _scope_nodes(scope):
            if isinstance(node, ast.For):
                iterated = [(node.iter, "a for loop")]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iterated = [(comp.iter, "a comprehension") for comp in node.generators]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in _ITERATING_CALLS and node.args):
                iterated = [(node.args[0], f"`{node.func.id}(...)`")]
            else:
                continue
            for iterable, where in iterated:
                if typing.is_set(iterable, scope):
                    yield self.finding(
                        module, iterable,
                        f"iterating a set in {where}: its order depends on the "
                        f"element values, not on insertion; iterate `sorted(...)` "
                        f"or keep an insertion-ordered dict",
                    )

    def _check_counters(
        self, module: ModuleInfo, scope: ast.AST, imports: _ImportMap
    ) -> Iterator[Finding]:
        """``itertools.count(...)`` bound in a module's or a class's body."""
        for stmt in scope.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _is_counter(
                stmt.value, imports
            ):
                where = "module" if isinstance(scope, ast.Module) else "class"
                yield self.finding(
                    module, stmt.value,
                    f"`itertools.count(...)` at {where} scope: the counter outlives "
                    f"the session and carries ids from one session to the next; "
                    f"let the session own it",
                )
