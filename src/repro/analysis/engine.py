"""The lint engine: file collection, parsing, project context, rule driving.

``run_lint`` is the single entry point used by both the CLI and the test
suite.  It walks the requested paths, parses every ``*.py`` file once,
builds the project-wide class/registration tables that the cross-module
rules need, runs each selected rule over each module, and filters the
findings through the ``# rb: ignore`` tables.

Everything is deterministic: files are visited in sorted order and
findings are reported sorted by ``(path, line, col, rule)`` — the analyzer
holds itself to the invariant it enforces.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.core import ERROR, Finding, Rule, all_rules
from repro.analysis.ignores import IgnoreTable, parse_ignores

__all__ = [
    "ClassRecord",
    "LintReport",
    "ModuleInfo",
    "Project",
    "collect_files",
    "run_lint",
]

#: Rule id reserved for files that fail to parse.
SYNTAX_RULE_ID = "RB100"

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules", ".eggs"}


@dataclass
class ModuleInfo:
    """One parsed source file plus the per-file lookup tables rules use."""

    path: str                    # absolute path on disk
    relpath: str                 # path as reported in findings
    source: str
    tree: ast.Module
    ignores: IgnoreTable

    @property
    def path_parts(self) -> tuple[str, ...]:
        return tuple(self.relpath.replace(os.sep, "/").split("/"))


@dataclass
class ClassRecord:
    """Statically-visible facts about one class definition."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: tuple[str, ...]           # base names as written (dotted tail only)
    methods: frozenset[str]          # names of functions defined in the body
    has_slots: bool                  # body assigns __slots__
    returns: dict[str, ast.expr | None] = field(default_factory=dict)  # method -> annotation


def _base_name(expr: ast.expr) -> str | None:
    """The usable name of a base-class expression (``a.b.C`` -> ``C``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class Project:
    """Cross-module context shared by every rule in one run.

    Builds a best-effort class table (name -> records) so rules can walk
    statically-visible inheritance chains, plus the set of class names
    referenced from ``register_ccp``/``register_rcp``/``register_acp``
    calls anywhere in the analyzed set.
    """

    REGISTER_FUNCS = ("register_ccp", "register_rcp", "register_acp")

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.classes: dict[str, list[ClassRecord]] = {}
        self.registered_names: set[str] = set()
        self.base_names: set[str] = set()
        for module in self.modules:
            self._index_module(module)

    def _index_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    name for name in (_base_name(b) for b in node.bases) if name
                )
                returns = {
                    stmt.name: stmt.returns
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                methods = frozenset(returns)
                has_slots = any(
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                    for stmt in node.body
                )
                record = ClassRecord(
                    node.name, module, node, bases, methods, has_slots, returns
                )
                self.classes.setdefault(node.name, []).append(record)
                self.base_names.update(bases)
            elif isinstance(node, ast.Call):
                func = node.func
                func_name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if func_name in self.REGISTER_FUNCS:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Name):
                                self.registered_names.add(sub.id)
                            elif isinstance(sub, ast.Attribute):
                                self.registered_names.add(sub.attr)

    def resolve(self, class_name: str) -> ClassRecord | None:
        """The record for ``class_name`` (first definition wins)."""
        records = self.classes.get(class_name)
        return records[0] if records else None

    def ancestry(self, record: ClassRecord, limit: int = 32) -> Iterator[ClassRecord]:
        """Walk statically-resolvable ancestors, nearest first, cycle-safe."""
        seen = {record.name}
        frontier = list(record.bases)
        while frontier and limit > 0:
            limit -= 1
            base = frontier.pop(0)
            if base in seen:
                continue
            seen.add(base)
            parent = self.resolve(base)
            if parent is None:
                continue
            yield parent
            frontier.extend(parent.bases)

    def method_returns(self, class_name: str | None, method: str) -> list[ast.expr | None]:
        """Return annotations ``method`` may have.

        With a class, the nearest definition on it or a resolvable
        ancestor (empty if none is visible); with ``None`` (the receiver's
        class is unknown), every definition of that name in the project.
        """
        if class_name is None:
            return [
                record.returns[method]
                for records in self.classes.values()
                for record in records
                if method in record.returns
            ]
        record = self.resolve(class_name)
        if record is None:
            return []
        for candidate in (record, *self.ancestry(record)):
            if method in candidate.returns:
                return [candidate.returns[method]]
        return []

    def descends_from(self, record: ClassRecord, root_names: Iterable[str]) -> bool:
        """True if ``record`` names any of ``root_names`` in its static MRO."""
        roots = set(root_names)
        if set(record.bases) & roots:
            return True
        return any(set(parent.bases) & roots for parent in self.ancestry(record))


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand ``paths`` (files or directories) into sorted ``*.py`` files."""
    found: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            found.add(os.path.abspath(path))
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS
                                     and not d.startswith("."))
                for filename in filenames:
                    if filename.endswith(".py"):
                        found.add(os.path.abspath(os.path.join(dirpath, filename)))
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return sorted(found)


def _relpath(path: str) -> str:
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


def run_lint(
    paths: Sequence[str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint ``paths`` and return the (deterministically ordered) report."""
    # RB100 is emitted by the engine itself, not a registered rule; honour
    # the filters for it here and strip it before the registry lookup.
    select_set = {s.upper() for s in select} if select else None
    ignore_set = {s.upper() for s in ignore} if ignore else set()
    syntax_wanted = (
        SYNTAX_RULE_ID not in ignore_set
        and (select_set is None or SYNTAX_RULE_ID in select_set)
    )
    if select_set is not None:
        select_set.discard(SYNTAX_RULE_ID)
    ignore_set.discard(SYNTAX_RULE_ID)

    rules: list[Rule] = all_rules(select=select_set, ignore=ignore_set)
    report = LintReport()
    modules: list[ModuleInfo] = []

    for path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.files_checked += 1
        relpath = _relpath(path)
        ignores = parse_ignores(source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as err:
            finding = Finding(
                path=relpath,
                line=err.lineno or 1,
                col=(err.offset or 0) + 1 if err.offset is not None else 1,
                rule_id=SYNTAX_RULE_ID,
                message=f"syntax error: {err.msg}",
                severity=ERROR,
            )
            if not syntax_wanted or ignores.suppresses(finding.line, SYNTAX_RULE_ID):
                report.suppressed += 1
            else:
                report.findings.append(finding)
            continue
        modules.append(ModuleInfo(path, relpath, source, tree, ignores))

    project = Project(modules)
    for module in modules:
        for rule in rules:
            for finding in rule.check_module(module, project):
                if module.ignores.suppresses(finding.line, finding.rule_id):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    report.findings.sort()
    return report
