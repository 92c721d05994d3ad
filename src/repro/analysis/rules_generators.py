"""Generator-protocol rules: RB101 unyielded-event, RB103 generator-contract.

The kernel drives *generators*: a protocol handler suspends by yielding an
:class:`~repro.sim.kernel.Event` and delegates to sub-generators with
``yield from``.  Two silent failure modes follow:

* calling an event/RPC-returning API and discarding the result inside a
  generator — the event exists but nobody waits on it, so the handler
  races ahead (``ctx.broadcast(...)`` without ``yield from`` "sends"
  nothing as far as the caller can tell);
* declaring ``-> Generator`` on a plain function (or writing a generator
  protocol handler without the annotation) — ``sim.process(fn())`` then
  dies at runtime, or type-checkers reason from a lie;
* a generator CCP ``read``/``prewrite``, which are plain calls: the site
  would take the generator object for the answer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ERROR, Finding, Rule, register_rule
from repro.analysis.engine import ModuleInfo, Project

__all__ = ["UnyieldedEventRule", "GeneratorContractRule", "EVENT_RETURNING_APIS"]

#: Method names whose result is an Event / generator that is inert unless
#: yielded (or explicitly bound for later yielding).  Deliberately excludes
#: the fire-and-forget surface — ``Simulator.defer`` (the kernel's only
#: timer API; its handle is kept only to cancel), ``Endpoint.send``,
#: ``Endpoint.reply`` — which is *designed* to be called as a bare
#: statement.  Incoming messages reach a handler installed with
#: ``Endpoint.serve``, so no receive event exists to be dropped.
EVENT_RETURNING_APIS = frozenset({
    # TxnContext / coordinator surface
    "broadcast", "collect_votes",
    "access_read", "access_prewrite", "access_read_many", "access_prewrite_many",
    # RCP / ACP handler generators
    "do_read", "do_write",
    # kernel event constructors
    "timeout", "event", "all_of",
    # endpoint RPC surface
    "request",
})

#: Return-annotation names treated as "this is a generator".
GENERATORISH_ANNOTATIONS = frozenset({"Generator", "Iterator", "Iterable"})

#: Handler methods whose generator-ness is part of the protocol contract.
HANDLER_METHODS = frozenset({"do_read", "do_write", "run"})

#: The CCP calls, which must be plain: the site takes what they return as
#: the answer (or a ``Wait`` to follow).
CCP_PLAIN_CALLS = frozenset({"read", "prewrite"})

#: The interfaces whose subclasses the handler check applies to.
PROTOCOL_INTERFACES = frozenset({
    "ConcurrencyController", "ReplicationController", "CommitProtocol",
})


def _own_statements(func: ast.FunctionDef) -> Iterator[ast.stmt]:
    """Statements in ``func``'s own scope (nested def/class bodies excluded)."""
    stack: list[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif hasattr(child, "body") and not isinstance(child, ast.expr):
                # Compound clause nodes (ExceptHandler, match cases, with
                # items) carry statement lists one level down.
                stack.extend(s for s in getattr(child, "body") if isinstance(s, ast.stmt))


def is_generator(func: ast.FunctionDef) -> bool:
    """True if ``func`` contains a yield in its own scope.

    Yields inside nested ``def``/``lambda`` belong to the nested scope and
    do not make the outer function a generator, so nested scopes are pruned.
    """
    found = False

    class _Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is func:
                self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Lambda(self, node: ast.Lambda) -> None:
            pass

        def visit_Yield(self, node: ast.Yield) -> None:
            nonlocal found
            found = True

        visit_YieldFrom = visit_Yield  # type: ignore[assignment]

    _Visitor().visit(func)
    return found


def _is_abstract_stub(func: ast.FunctionDef) -> bool:
    """Body is only a docstring plus ``raise``/``pass``/``...`` — an interface stub."""
    body = list(func.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(
        isinstance(stmt, (ast.Raise, ast.Pass))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in body
    )


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """The head name of a return annotation (``Generator[int, None, None]`` -> ``Generator``)."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] or None
    return None


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register_rule
class UnyieldedEventRule(Rule):
    """RB101: event/RPC-returning call discarded inside a generator."""

    id = "RB101"
    name = "unyielded-event"
    severity = ERROR
    description = (
        "a call to an event/RPC-returning API (broadcast, collect_votes, "
        "request, timeout, do_read, ...) inside a generator function whose "
        "result is neither yielded, `yield from`ed, nor bound — a silent "
        "no-op in the kernel"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or not is_generator(node):
                continue
            for stmt in _own_statements(node):
                # Only bare expression statements: a bound, yielded,
                # returned, or argument-position result is (at least
                # plausibly) consumed later.
                if not isinstance(stmt, ast.Expr):
                    continue
                value = stmt.value
                if not isinstance(value, ast.Call):
                    continue
                api = _call_name(value)
                if api in EVENT_RETURNING_APIS:
                    yield self.finding(
                        module, stmt,
                        f"result of event-returning call `{api}(...)` is discarded "
                        f"inside generator `{node.name}`; drive it with `yield` / "
                        f"`yield from` (or bind it) or the call is a silent no-op",
                    )


@register_rule
class GeneratorContractRule(Rule):
    """RB103: `-> Generator` annotations must match generator-ness."""

    id = "RB103"
    name = "generator-contract"
    severity = ERROR
    description = (
        "a function annotated `-> Generator` contains no yield (or a "
        "protocol handler method that *is* a generator lacks the "
        "annotation, or a CCP `read`/`prewrite` is a generator at all); "
        "abstract interface stubs are exempt"
    )

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                record = project.resolve(node.name)
                in_protocol = record is not None and (
                    node.name in PROTOCOL_INTERFACES
                    or project.descends_from(record, PROTOCOL_INTERFACES)
                )
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        yield from self._check_function(
                            module, stmt, in_protocol_class=in_protocol
                        )
            elif isinstance(node, ast.FunctionDef) and self._is_module_level(node, module):
                yield from self._check_function(module, node, in_protocol_class=False)

    @staticmethod
    def _is_module_level(node: ast.FunctionDef, module: ModuleInfo) -> bool:
        return node in module.tree.body

    def _check_function(
        self, module: ModuleInfo, func: ast.FunctionDef, *, in_protocol_class: bool
    ) -> Iterator[Finding]:
        annotated = _annotation_name(func.returns) in GENERATORISH_ANNOTATIONS
        generator = is_generator(func)
        if generator and in_protocol_class and func.name in CCP_PLAIN_CALLS:
            yield self.finding(
                module, func,
                f"CCP `{func.name}` is a generator, so the site would take the "
                f"generator object for its answer; make it a plain call that "
                f"returns the answer, raises ConcurrencyAbort, or returns a Wait",
            )
        elif annotated and not generator and not _is_abstract_stub(func):
            yield self.finding(
                module, func,
                f"`{func.name}` is annotated `-> {_annotation_name(func.returns)}` "
                f"but contains no yield; it will not suspend when driven by the kernel",
            )
        elif (
            not annotated
            and generator
            and in_protocol_class
            and func.name in HANDLER_METHODS
        ):
            yield self.finding(
                module, func,
                f"protocol handler `{func.name}` is a generator but lacks a "
                f"`-> Generator` return annotation; annotate it so the contract "
                f"is visible to readers and type checkers",
            )
