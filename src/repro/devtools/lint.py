"""Project-aware AST lint engine: the conventions of this codebase, machine-checked.

After the serve/shard/obs PRs the system's correctness rests on conventions
that no general-purpose linter knows: fields guarded by locks, wire ops
registered on all three sides of the protocol, ``repro_*`` metric naming.
This engine parses every file under lint into one :class:`Project` of ASTs
and runs :class:`Rule` plugins over them — rules see *all* modules at once,
so cross-module invariants (a wire op declared in ``protocol.py`` must have a
dispatch branch in every daemon and a client call site) are single findings,
not review folklore.

Conventions are declared in source with ``# repro:`` directives::

    self._counters = {}       # repro: guarded-by(_lock)
    def _teardown(self):      # repro: holds(_lock)
    reader = self._source     # repro: unlocked -- double-checked fast path
    fh = open(path)           # repro: ignore[unclosed-resource] -- handed off

``guarded-by(NAME)`` marks an attribute that may only be touched inside
``with self.NAME``; ``holds(NAME)`` marks a method whose *caller* holds the
lock; ``unlocked`` waives the lock rule for one deliberate line; and
``ignore[rule-id, ...]`` (or a bare ``ignore``) suppresses any rule.  Text
after ``--`` is a human reason and is never parsed.

Findings carry ``path:line:col``, a rule id and a message; a checked-in
baseline file grandfathers pre-existing findings (fingerprints deliberately
exclude line numbers so unrelated edits do not churn the gate), making the
CI gate zero-*new*-findings from day one.  ``repro lint [PATHS]`` is the CLI.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Context",
    "Rule",
    "LintEngine",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "BASELINE_NAME",
]

#: Default name of the checked-in grandfather file, looked up in the lint root.
BASELINE_NAME = "lint-baseline.json"

_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*(?P<body>.*)$")
_CALL_RE = re.compile(r"(?P<name>[a-zA-Z_][\w-]*)\s*(?:\((?P<args>[^)]*)\)|\[(?P<items>[^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at ``path:line:col``.

    ``fingerprint`` intentionally omits the line number: a baseline entry
    must survive unrelated edits above the finding, so identity is the file,
    the rule and the message (which itself names the offending symbol).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def fingerprint(self) -> str:
        return f"{self.path}::{self.rule}::{self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class ModuleInfo:
    """One parsed source file: AST, directives, and lazy parent links."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        #: line -> list of (directive-name, argument-string-or-None)
        self.directives: Dict[int, List[Tuple[str, Optional[str]]]] = {}
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._parse_directives()

    def _parse_directives(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # half-edited file
            comments = [
                (i + 1, line[line.index("#"):])
                for i, line in enumerate(self.source.splitlines())
                if "#" in line
            ]
        for line, comment in comments:
            m = _DIRECTIVE_RE.search(comment)
            if m is None:
                continue
            body = m.group("body").split("--", 1)[0]  # trailing text = reason
            for call in _CALL_RE.finditer(body):
                name = call.group("name")
                if not name:
                    continue
                arg = call.group("args")
                if arg is None:
                    arg = call.group("items")
                self.directives.setdefault(line, []).append(
                    (name, arg.strip() if arg is not None else None)
                )

    def directive(self, line: int, name: str) -> Optional[Tuple[str, Optional[str]]]:
        """The ``(name, arg)`` directive on ``line``, or ``None``."""
        for item in self.directives.get(line, ()):
            if item[0] == name:
                return item
        return None

    def ignored(self, line: int, rule_id: str) -> bool:
        """Whether ``# repro: ignore[...]`` (or bare ``ignore``) covers ``line``."""
        for name, arg in self.directives.get(line, ()):
            if name != "ignore":
                continue
            if arg is None:
                return True
            rules = {part.strip() for part in arg.split(",")}
            if rule_id in rules:
                return True
        return False

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent links for the whole tree (built on first use)."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents


class Project:
    """Every module under lint, addressable by path suffix."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: List[ModuleInfo] = list(modules)

    def find(self, suffix: str) -> Optional[ModuleInfo]:
        """The module whose relpath ends with ``suffix`` (posix), if any."""
        for module in self.modules:
            if module.relpath.endswith(suffix):
                return module
        return None

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


class Context:
    """What a rule sees while visiting: the project, the module, a reporter."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.module: Optional[ModuleInfo] = None
        self.findings: List[Finding] = []
        self._rule_id = ""

    def report(
        self,
        node: Any,
        message: str,
        module: Optional[ModuleInfo] = None,
        rule: Optional[str] = None,
    ) -> None:
        """Record a finding at ``node`` (an AST node, or a plain line number).

        Suppressed when the line carries ``# repro: ignore`` for the rule.
        """
        module = module or self.module
        assert module is not None, "report() outside a module needs module="
        rule_id = rule or self._rule_id
        line = int(getattr(node, "lineno", node if isinstance(node, int) else 1))
        col = int(getattr(node, "col_offset", 0))
        if module.ignored(line, rule_id):
            return
        self.findings.append(Finding(module.relpath, line, col, rule_id, message))


class Rule:
    """Base class of lint rules — the plugin API.

    Subclasses set ``id`` and ``help``, declare the node types they want via
    ``node_types`` and implement :meth:`visit`; rules that check invariants
    *across* modules override :meth:`finish_project`, which runs once after
    every module has been walked.  Findings go through ``ctx.report`` so
    ``# repro: ignore`` suppression applies uniformly.
    """

    id: str = ""
    help: str = ""
    #: AST node classes dispatched to :meth:`visit`; empty = no per-node calls.
    node_types: Tuple[type, ...] = ()

    def start_module(self, ctx: Context) -> None:
        """Called before walking each module."""

    def visit(self, node: ast.AST, ctx: Context) -> None:
        """Called for every node of a type listed in ``node_types``."""

    def finish_module(self, ctx: Context) -> None:
        """Called after walking each module."""

    def finish_project(self, ctx: Context) -> None:
        """Called once after all modules; cross-module checks live here."""


class LintEngine:
    """Parse paths into a :class:`Project` and run every rule over it."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            from repro.devtools.rules import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)

    # -- collection ------------------------------------------------------------
    @staticmethod
    def collect_files(paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        seen = set()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                candidates = sorted(
                    p for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                    and not any(part.startswith(".") for part in p.parts)
                )
            elif path.suffix == ".py":
                candidates = [path]
            else:
                candidates = []
            for p in candidates:
                key = p.resolve()
                if key not in seen:
                    seen.add(key)
                    files.append(p)
        return files

    @staticmethod
    def _relpath(path: Path, root: Optional[Path]) -> str:
        resolved = path.resolve()
        for base in ([root.resolve()] if root is not None else []) + [Path.cwd()]:
            try:
                return resolved.relative_to(base).as_posix()
            except ValueError:
                continue
        return path.as_posix()

    def load_project(
        self, paths: Sequence[Path], root: Optional[Path] = None
    ) -> Tuple[Project, List[Finding]]:
        """Parse every file; unparsable files become ``parse-error`` findings."""
        modules: List[ModuleInfo] = []
        errors: List[Finding] = []
        for path in self.collect_files(paths):
            relpath = self._relpath(path, root)
            try:
                source = path.read_text("utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                line = int(getattr(exc, "lineno", 1) or 1)
                errors.append(
                    Finding(relpath, line, 0, "parse-error", f"cannot parse: {exc}")
                )
                continue
            modules.append(ModuleInfo(path, relpath, source, tree))
        return Project(modules), errors

    # -- running ---------------------------------------------------------------
    def run(self, project: Project) -> List[Finding]:
        ctx = Context(project)
        interested: List[Tuple[Rule, Tuple[type, ...]]] = [
            (rule, rule.node_types) for rule in self.rules
        ]
        for module in project:
            ctx.module = module
            for rule, _ in interested:
                ctx._rule_id = rule.id
                rule.start_module(ctx)
            for node in ast.walk(module.tree):
                for rule, types in interested:
                    if types and isinstance(node, types):
                        ctx._rule_id = rule.id
                        rule.visit(node, ctx)
            for rule, _ in interested:
                ctx._rule_id = rule.id
                rule.finish_module(ctx)
        ctx.module = None
        for rule in self.rules:
            ctx._rule_id = rule.id
            rule.finish_project(ctx)
        return sorted(
            ctx.findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        )

    def lint(
        self, paths: Sequence[Path], root: Optional[Path] = None
    ) -> List[Finding]:
        project, errors = self.load_project(paths, root=root)
        return sorted(
            errors + self.run(project),
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message),
        )


def lint_paths(
    paths: Sequence[Path], rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint files/directories with the default (or given) rule set."""
    return LintEngine(rules).lint([Path(p) for p in paths], root=root)


# -- baseline ------------------------------------------------------------------
def load_baseline(path: Path) -> Dict[str, int]:
    """Fingerprint -> grandfathered count; missing file = empty baseline."""
    path = Path(path)
    if not path.exists():
        return {}
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt lint baseline ({exc})") from exc
    if not isinstance(raw, dict) or raw.get("format") != "repro-lint-baseline":
        raise ValueError(f"{path}: not a repro lint baseline file")
    findings = raw.get("findings", {})
    return {str(k): int(v) for k, v in findings.items()}


def write_baseline(findings: Iterable[Finding], path: Path) -> Dict[str, int]:
    """Persist the given findings as the new grandfather set."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
    payload = {
        "format": "repro-lint-baseline",
        "version": 1,
        "findings": {key: counts[key] for key in sorted(counts)},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    return counts


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, number-grandfathered) against a baseline.

    Per fingerprint, up to the baselined count is forgiven (oldest first by
    line); everything beyond it — and every unknown fingerprint — is new.
    """
    budget = dict(baseline)
    new: List[Finding] = []
    grandfathered = 0
    for finding in findings:
        left = budget.get(finding.fingerprint, 0)
        if left > 0:
            budget[finding.fingerprint] = left - 1
            grandfathered += 1
        else:
            new.append(finding)
    return new, grandfathered
