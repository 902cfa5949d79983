"""Rule engine of the domain-aware static analyzer.

The engine is deliberately small: rules are classes registered in a
global registry, a :class:`ModuleContext` bundles everything a rule may
inspect about one file (source, AST, suppression table), and
:func:`lint_paths` walks the requested files/directories, runs every
enabled rule, filters suppressed diagnostics, and returns a
:class:`LintReport` with text and JSON renderings.

Two rule shapes exist:

* :class:`Rule` — per-module; sees one :class:`ModuleContext` at a time;
* :class:`ProjectRule` — whole-run; sees every parsed module at once
  (used by cross-file contracts such as scheduler registration).

Suppressions follow the conventional inline-comment shape::

    import random  # repro-lint: disable=RPR001  -- <why>

A line-comment of the form ``# repro-lint: disable-file=RPR001`` on any
line suppresses the code for the whole file.  ``disable=all`` works in
both positions.  Malformed codes in a suppression are reported as
``RPR902``, and suppressions that no longer match any live finding are
reported as *stale* (``RPR903``) and fail the run like a finding — so
suppressions cannot rot silently in either direction.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import json
import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "SuppressionEntry",
    "all_rules",
    "dotted_name",
    "is_test_path",
    "lint_paths",
    "lint_source",
    "load_modules",
    "register_rule",
]

#: Code attached to files that fail to parse.
SYNTAX_ERROR_CODE = "RPR901"
#: Code attached to suppression comments naming unknown rule codes.
UNKNOWN_SUPPRESSION_CODE = "RPR902"
#: Code attached to suppression comments that no longer suppress a live
#: finding.  Listed apart from the findings
#: (``LintReport.stale_suppressions``) but fails the run just the same.
STALE_SUPPRESSION_CODE = "RPR903"

_CODE_RE = re.compile(r"^RPR\d{3}$")
_SUPPRESS_RE = re.compile(
    r"#.*?\brepro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)\s*(?:--|$)"
)


class LintError(Exception):
    """Internal analyzer failure (bad path, broken rule) — exit code 2."""


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule code anchored to a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclasses.dataclass(frozen=True)
class SuppressionEntry:
    """One suppressed code slot of one ``# repro-lint:`` directive."""

    line: int
    #: ``"disable"`` (line-scoped) or ``"disable-file"`` (whole file).
    kind: str
    #: The suppressed rule code, or the literal ``"all"``.
    code: str


@dataclasses.dataclass(frozen=True)
class Suppressions:
    """Per-file suppression table parsed from ``# repro-lint:`` comments."""

    by_line: dict[int, frozenset[str]]
    whole_file: frozenset[str]
    #: Every directive slot in source order, for stale detection.  The
    #: default keeps hand-built tables in tests working (they simply
    #: opt out of staleness tracking).
    entries: tuple[SuppressionEntry, ...] = ()

    def is_suppressed(self, line: int, code: str) -> bool:
        if "all" in self.whole_file or code in self.whole_file:
            return True
        codes = self.by_line.get(line, frozenset())
        return "all" in codes or code in codes

    def match(self, line: int, code: str) -> SuppressionEntry | None:
        """The entry suppressing ``(line, code)``, mirroring precedence.

        Whole-file directives win over line directives (as in
        :meth:`is_suppressed`); the matched entry is what stale
        detection marks as *used*.  Falls back to a synthetic entry when
        the table was built by hand without ``entries``.
        """
        for entry in self.entries:
            if entry.kind == "disable-file" and entry.code in ("all", code):
                return entry
        for entry in self.entries:
            if (
                entry.kind == "disable"
                and entry.line == line
                and entry.code in ("all", code)
            ):
                return entry
        if not self.entries and self.is_suppressed(line, code):
            return SuppressionEntry(line=line, kind="disable", code=code)
        return None

    def count(self) -> int:
        """Total suppressed codes — the quantity the selfhost test caps."""
        return sum(len(codes) for codes in self.by_line.values()) + len(
            self.whole_file
        )


def _iter_comments(source: str) -> Iterator[tuple[int, str]]:
    """``(line, text)`` for every real comment token in the source.

    Tokenizing (rather than scanning raw lines) keeps directive-shaped
    text inside string literals — docstring examples, test fixtures —
    from registering as live suppressions (and then as stale ones).
    Falls back to a line scan when the file does not tokenize; the
    engine reports the syntax error separately.
    """
    import io
    import tokenize

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, ValueError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "#" in text:
                yield lineno, text
        return
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def parse_suppressions(
    source: str,
    comments: Sequence[tuple[int, str]] | None = None,
) -> tuple[Suppressions, list[tuple[int, str]]]:
    """Scan source comments for suppression directives.

    Returns the table plus ``(line, code)`` pairs for unknown codes so
    the caller can surface them as :data:`UNKNOWN_SUPPRESSION_CODE`.
    ``comments`` short-circuits the tokenize pass when the caller
    already holds the comment stream (the engine tokenizes each file
    exactly once and shares the result across rule families).
    """
    by_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    entries: list[SuppressionEntry] = []
    unknown: list[tuple[int, str]] = []
    if comments is None:
        comments = tuple(_iter_comments(source))
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = set()
        for raw in match.group("codes").split(","):
            code = raw.strip()
            if not code:
                continue
            if code != "all" and not _CODE_RE.match(code):
                unknown.append((lineno, code))
                continue
            codes.add(code)
        kind = match.group("kind")
        entries.extend(
            SuppressionEntry(line=lineno, kind=kind, code=code)
            for code in sorted(codes)
        )
        if kind == "disable-file":
            whole_file |= codes
        else:
            by_line[lineno] = frozenset(codes) | by_line.get(lineno, frozenset())
    return (
        Suppressions(
            by_line=by_line,
            whole_file=frozenset(whole_file),
            entries=tuple(entries),
        ),
        unknown,
    )


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclasses.dataclass
class ModuleContext:
    """Everything a rule may inspect about one linted file."""

    path: Path
    #: Path as reported in diagnostics (relative to the lint root when
    #: possible, keeping output stable across checkouts).
    display_path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    #: ``(line, text)`` comment tokens, tokenized once by the engine and
    #: shared by every rule family that inspects comments (suppression
    #: parsing, the float-doctrine pragma).  ``None`` only for contexts
    #: built by hand in tests — consumers fall back to tokenizing.
    comments: tuple[tuple[int, str], ...] | None = None
    _walked: "tuple[ast.AST, ...] | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def walk(self) -> "tuple[ast.AST, ...]":
        """Every AST node of the module, in ``ast.walk`` order.

        Computed once and shared by all rule families — a dozen-odd
        rules previously re-traversed the full tree each; iterating
        the cached tuple skips the repeated deque/iter_child_nodes
        machinery.
        """
        if self._walked is None:
            self._walked = tuple(ast.walk(self.tree))
        return self._walked

    def name_aliases(self, originals: Iterable[str]) -> dict[str, str]:
        """Each of ``originals`` and every name bound to one of them.

        A plain assignment anywhere in the module (``_open = open``,
        ``_commit = os.replace``, a chain ``a = set; b = a``) makes the
        name spell the dotted original it was assigned; the map sends
        each such name, and each original itself, to that original.
        """
        resolved = {name: name for name in originals}
        pairs: list[tuple[str, ast.expr]] = []
        for node in self.walk():
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    pairs.append((target.id, node.value))
        grew = True
        while grew:
            grew = False
            for name, value in pairs:
                origin = resolved.get(dotted_name(value) or "")
                if origin is not None and name not in resolved:
                    resolved[name] = origin
                    grew = True
        return resolved

    @property
    def is_test_code(self) -> bool:
        """Whether the file lives under a ``tests`` directory."""
        return is_test_path(self.display_path)

    def diagnostic(
        self, node: ast.AST, code: str, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Rule(abc.ABC):
    """A per-module check emitting diagnostics for one rule code."""

    #: Unique ``RPRxxx`` code.
    code: str = ""
    #: Short kebab-case rule name shown by ``repro lint --list-rules``.
    name: str = ""
    #: One-line description of what the rule enforces.
    description: str = ""
    #: Whether the rule applies under ``tests/`` (the relaxed profile).
    #: Determinism rules opt out: test fixtures legitimately use ad-hoc
    #: randomness and wall-clock reads that production code must not.
    run_on_tests: bool = True

    @abc.abstractmethod
    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for one parsed module."""


class ProjectRule(Rule):
    """A whole-run check that sees every parsed module at once."""

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        return iter(())

    def decides(self, modules: Sequence[ModuleContext]) -> bool:
        """Whether this run holds everything the rule needs for a verdict.

        A rule that cannot decide stays silent, so its suppressions are
        not judged stale in that run.
        """
        return True

    @abc.abstractmethod
    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        """Yield diagnostics computed across all modules."""


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add a rule instance to the global registry (unique code + name)."""
    if not _CODE_RE.match(rule.code):
        raise LintError(f"rule code must match RPRxxx, got {rule.code!r}")
    if rule.code in _RULES:
        raise LintError(f"duplicate rule code {rule.code}")
    if any(existing.name == rule.name for existing in _RULES.values()):
        raise LintError(f"duplicate rule name {rule.name!r}")
    _RULES[rule.code] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    """Registered rules, sorted by code (built-ins loaded on demand)."""
    _ensure_builtin_rules()
    return tuple(_RULES[code] for code in sorted(_RULES))


_BUILTINS_LOADED = False


def _ensure_builtin_rules() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # Importing the rule modules registers their rules as a side effect.
    from repro.lint import (  # noqa: F401
        rules_commit,
        rules_contracts,
        rules_determinism,
        rules_numpy,
    )


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    diagnostics: list[Diagnostic] = dataclasses.field(default_factory=list)
    files_checked: int = 0
    #: Total inline/whole-file suppression slots across the linted files;
    #: the selfhost test caps this number for the default tree.
    suppression_count: int = 0
    #: :data:`STALE_SUPPRESSION_CODE` notes for suppression slots that
    #: matched no finding in this run.  Kept out of ``diagnostics`` (they
    #: name directives to delete, not code to fix), but they clear
    #: ``ok`` all the same.
    stale_suppressions: list[Diagnostic] = dataclasses.field(
        default_factory=list
    )
    #: Wall-clock duration of the run; set by :func:`lint_paths` and
    #: surfaced as a timing line in the text report.  Excluded from
    #: :meth:`to_json` when unset so snippet-level reports stay
    #: byte-stable.
    elapsed_seconds: float | None = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.stale_suppressions

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def format_text(self) -> str:
        lines = [d.format_text() for d in self.diagnostics]
        if self.diagnostics:
            _ensure_builtin_rules()
            lines.append("")
            lines.append("findings by rule:")
            for code, n in self.counts_by_code().items():
                rule = _RULES.get(code)
                label = f"  {code}"
                if rule is not None:
                    label += f" ({rule.name})"
                elif code == SYNTAX_ERROR_CODE:
                    label += " (syntax-error)"
                elif code == UNKNOWN_SUPPRESSION_CODE:
                    label += " (unknown-suppression)"
                lines.append(f"{label}: {n}")
            lines.append(
                f"{len(self.diagnostics)} finding(s) in "
                f"{self.files_checked} file(s)"
            )
        else:
            lines.append(f"no findings in {self.files_checked} file(s)")
        if self.stale_suppressions:
            lines.append("")
            lines.append(
                f"{len(self.stale_suppressions)} stale suppression(s) "
                "(match no finding; delete the directives):"
            )
            lines.extend(
                f"  {diag.format_text()}" for diag in self.stale_suppressions
            )
        if self.elapsed_seconds is not None:
            lines.append(
                f"checked {self.files_checked} file(s) in "
                f"{self.elapsed_seconds:.2f}s"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "files_checked": self.files_checked,
            "findings": [d.to_json() for d in self.diagnostics],
            "counts": self.counts_by_code(),
            "suppressions": self.suppression_count,
            "stale_suppressions": [
                d.to_json() for d in self.stale_suppressions
            ],
            "ok": self.ok,
        }
        if self.elapsed_seconds is not None:
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        return json.dumps(payload, indent=2, sort_keys=True)


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
        # Non-python files passed explicitly are skipped silently so
        # ``repro lint $(git diff --name-only)`` just works.


def is_test_path(display_path: str) -> bool:
    """Whether a display path lies under a ``tests`` directory."""
    return "tests" in Path(display_path).parts


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_module(
    path: Path, root: Path, source: str
) -> tuple[ModuleContext | None, list[Diagnostic]]:
    display = _display_path(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, [
            Diagnostic(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code=SYNTAX_ERROR_CODE,
                message=f"syntax error: {exc.msg}",
            )
        ]
    comments = tuple(_iter_comments(source))
    suppressions, unknown = parse_suppressions(source, comments=comments)
    ctx = ModuleContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        suppressions=suppressions,
        comments=comments,
    )
    extras = [
        Diagnostic(
            path=display,
            line=line,
            col=1,
            code=UNKNOWN_SUPPRESSION_CODE,
            message=f"suppression names unknown rule code {code!r}",
        )
        for line, code in unknown
    ]
    return ctx, extras


def lint_source(
    source: str,
    filename: str = "<snippet>",
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint one in-memory snippet (the test-fixture entry point)."""
    ctx, extras = _parse_module(Path(filename), Path("."), source)
    report = LintReport(files_checked=1)
    report.diagnostics.extend(extras)
    if ctx is None:
        return report
    report.suppression_count = ctx.suppressions.count()
    selected = all_rules() if rules is None else tuple(rules)
    diagnostics, stale = _run_rules([ctx], selected)
    report.diagnostics.extend(diagnostics)
    report.diagnostics.sort(key=Diagnostic.sort_key)
    report.stale_suppressions = stale
    return report


def _stale_notes(
    modules: Sequence[ModuleContext],
    used: dict[str, set[SuppressionEntry]],
    undecided: set[str],
) -> list[Diagnostic]:
    stale: list[Diagnostic] = []
    for ctx in modules:
        for entry in ctx.suppressions.entries:
            if entry in used[ctx.display_path] or entry.code in undecided:
                continue
            stale.append(
                Diagnostic(
                    path=ctx.display_path,
                    line=entry.line,
                    col=1,
                    code=STALE_SUPPRESSION_CODE,
                    message=(
                        f"stale suppression: {entry.kind}={entry.code} "
                        "matches no finding from this run"
                    ),
                )
            )
    stale.sort(key=Diagnostic.sort_key)
    return stale


def _run_rules(
    modules: Sequence[ModuleContext], rules: Sequence[Rule]
) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Run rules, filter suppressed findings, and detect stale slots.

    Returns ``(diagnostics, stale_suppressions)``: the surviving
    findings, plus one :data:`STALE_SUPPRESSION_CODE` note per
    suppression slot that matched no finding anywhere in the run.  A
    slot naming a project rule that could not decide in this run (see
    :meth:`ProjectRule.decides`) is never stale.
    """
    # A set: one finding per (position, code, message) is enough, even
    # if a rule reaches the same node twice.
    out: set[Diagnostic] = set()
    used: dict[str, set[SuppressionEntry]] = {
        ctx.display_path: set() for ctx in modules
    }
    per_module = [r for r in rules if not isinstance(r, ProjectRule)]
    project = [r for r in rules if isinstance(r, ProjectRule)]
    for ctx in modules:
        for rule in per_module:
            if ctx.is_test_code and not rule.run_on_tests:
                continue
            for diag in rule.check_module(ctx):
                entry = ctx.suppressions.match(diag.line, diag.code)
                if entry is None:
                    out.add(diag)
                else:
                    used[ctx.display_path].add(entry)
    by_display = {ctx.display_path: ctx for ctx in modules}
    for rule in project:
        for diag in rule.check_project(modules):
            owner = by_display.get(diag.path)
            entry = (
                None
                if owner is None
                else owner.suppressions.match(diag.line, diag.code)
            )
            if owner is None or entry is None:
                out.add(diag)
            else:
                used[owner.display_path].add(entry)
    undecided = {rule.code for rule in project if not rule.decides(modules)}
    stale = _stale_notes(modules, used, undecided)
    return sorted(out, key=Diagnostic.sort_key), stale


def load_modules(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
) -> tuple[list[ModuleContext], list[Diagnostic]]:
    """Read and parse every python file under ``paths``.

    Returns the parsed module contexts plus the parse-stage diagnostics
    (:data:`SYNTAX_ERROR_CODE` for unparseable files,
    :data:`UNKNOWN_SUPPRESSION_CODE` for bad directives).
    """
    base = Path(root) if root is not None else Path.cwd()
    modules: list[ModuleContext] = []
    extras: list[Diagnostic] = []
    for path in _iter_python_files(Path(p) for p in paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        ctx, diags = _parse_module(path, base, source)
        extras.extend(diags)
        if ctx is not None:
            modules.append(ctx)
    return modules, extras


def lint_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint files/directories and return the aggregated report.

    ``root`` anchors the relative display paths (defaults to the current
    working directory).  Directories are walked recursively for ``*.py``.
    """
    import time

    started = time.perf_counter()
    report = LintReport()
    modules, extras = load_modules(paths, root=root)
    report.files_checked = len(modules) + sum(
        1 for diag in extras if diag.code == SYNTAX_ERROR_CODE
    )
    report.diagnostics.extend(extras)
    report.suppression_count = sum(
        ctx.suppressions.count() for ctx in modules
    )
    selected = all_rules() if rules is None else tuple(rules)
    diagnostics, stale = _run_rules(modules, selected)
    report.diagnostics.extend(diagnostics)
    report.diagnostics.sort(key=Diagnostic.sort_key)
    report.stale_suppressions = stale
    report.elapsed_seconds = time.perf_counter() - started
    return report
