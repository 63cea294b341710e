"""reprolint — the repo-specific static linter.

Generic linters keep the Python honest; nothing keeps the *cost model*
honest.  The invariants this repo lives by — every physical block touch
goes through a charged :class:`~repro.models.external_memory.AEMachine`
primitive, kernel-path loops use the batch charge API, service-layer state
is written under its lock — are all statically checkable, so this module
checks them.  It is a small AST lint framework (rule registry, per-line
suppression, text/JSON reporters) plus the repo's rules, which live in
:mod:`~repro.analysis.lint_rules`.

Usage::

    PYTHONPATH=src python -m repro lint src benchmarks
    PYTHONPATH=src python -m repro lint --format json src

Suppression
-----------
Append ``# reprolint: disable=<rule>[,<rule>...]`` to a line to waive named
rules on that line, or ``# reprolint: disable`` to waive all of them.  A
suppression comment is a claim that the flagged code is *deliberate* —
pair it with a prose comment saying why.  It is the only way to waive a
finding, and it names the rule that reports the finding.

Virtual paths
-------------
Most rules are scoped to parts of the tree (the lock rules to the service
layer, the charge rules to the kernel paths).  Scoping keys off the file's
repo-relative path; a file may override it with a first-lines pragma::

    # reprolint: path=src/repro/service/example.py

which exists so the planted-violation corpus under ``tests/lint_corpus/``
can opt into any rule's scope while living outside it.

Exit codes: 0 — clean, 1 — findings, 2 — usage or parse error.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator

#: matches a suppression comment anywhere in a line
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable(?:=([\w\-, ]+))?")
#: matches the virtual-path pragma (first 5 lines of a file)
_PATH_PRAGMA_RE = re.compile(r"^#\s*reprolint:\s*path=(\S+)\s*$")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # virtual (repo-relative) path — what scoping and reports use
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class ModuleSource:
    """One parsed file: AST plus the side tables every rule needs."""

    def __init__(self, path: str, text: str, virtual_path: str | None = None):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.virtual_path = virtual_path or _find_path_pragma(self.lines) or path
        # parent map: every rule wants "is this node inside a loop / a
        # with-lock / a function named X" — one upfront pass answers all
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        self.suppressions = _collect_suppressions(self.lines)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        while node in self.parents:
            node = self.parents[node]
            yield node

    def suppressed(self, rule: str, line: int) -> bool:
        return waived(self.suppressions, rule, line)


def _find_path_pragma(lines: list[str]) -> str | None:
    for raw in lines[:5]:
        m = _PATH_PRAGMA_RE.match(raw.strip())
        if m:
            return m.group(1)
    return None


def waived(table: dict[int, set[str]] | None, rule: str, line: int) -> bool:
    """Does the per-line suppression ``table`` waive ``rule`` at ``line``?"""
    rules = table.get(line) if table else None
    return rules is not None and ("*" in rules or rule in rules)


def _collect_suppressions(lines: list[str]) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    for i, raw in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(raw)
        if not m:
            continue
        names = m.group(1)
        if names is None:
            table[i] = {"*"}
        else:
            table[i] = {n.strip() for n in names.split(",") if n.strip()}
    return table


class LintContext:
    """Cross-file state shared by one lint run (cached reads, repo root,
    and every module the run lints, by virtual path)."""

    def __init__(self, root: str = "."):
        self.root = os.path.abspath(root)
        self._file_cache: dict[str, str | None] = {}
        self.modules: dict[str, ModuleSource] = {}

    def read_file(self, relpath: str) -> str | None:
        """Text of a repo file by root-relative path, or None (cached)."""
        if relpath not in self._file_cache:
            full = os.path.join(self.root, relpath)
            try:
                with open(full, encoding="utf-8") as fh:
                    self._file_cache[relpath] = fh.read()
            except OSError:
                self._file_cache[relpath] = None
        return self._file_cache[relpath]


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    doc: str
    check: Callable[[ModuleSource, LintContext], Iterable[Finding]]


#: the global rule registry — populated by the @rule decorator
RULES: dict[str, Rule] = {}


def rule(name: str, doc: str):
    """Register a rule function ``(module, ctx) -> iterable of Finding``."""

    def decorate(fn):
        if name in RULES:
            raise ValueError(f"duplicate rule name {name!r}")
        RULES[name] = Rule(name, doc, fn)
        return fn

    return decorate


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    full = os.path.join(dirpath, fn)
                    if full not in seen:
                        seen.add(full)
                        yield full


def lint_paths(
    paths: Iterable[str],
    root: str = ".",
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` with all (or named) rules,
    in one pass over one :class:`LintContext`.

    Every file is parsed once, before any rule runs, so the whole-project
    rules see all linted modules at once.  Two files claiming one virtual
    path raise :class:`ValueError` (a usage error)."""
    # importing the rules module populates RULES as a side effect
    from . import lint_rules  # noqa: F401

    if rules is None:
        selected = list(RULES.values())
    else:
        unknown = set(rules) - set(RULES)
        if unknown:
            raise KeyError(f"unknown rule(s): {sorted(unknown)}")
        selected = [RULES[name] for name in rules]
    ctx = LintContext(root)
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rel = os.path.relpath(path, ctx.root).replace(os.sep, "/")
        module = ModuleSource(rel, text)
        claimed = ctx.modules.setdefault(module.virtual_path, module)
        if claimed.path != module.path:
            raise ValueError(
                f"{claimed.path} and {module.path} both claim virtual path "
                f"{module.virtual_path}"
            )
    findings: list[Finding] = []
    for module in ctx.modules.values():
        found = [
            f for r in selected for f in r.check(module, ctx)
            if not module.suppressed(f.rule, f.line)
        ]
        found.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        findings.extend(found)
    return findings


# --------------------------------------------------------------------------- #
# reporting / CLI
# --------------------------------------------------------------------------- #
def render_text(findings: list[Finding], out) -> None:
    for f in findings:
        print(f.render(), file=out)
    n = len(findings)
    print(f"reprolint: {n} finding{'s' if n != 1 else ''}", file=out)


def render_json(findings: list[Finding], out) -> None:
    json.dump([f.to_dict() for f in findings], out, indent=2)
    out.write("\n")


def _explain_rule(name: str, out) -> int:
    """Print one rule's contract: its registry doc plus the check
    function's own docstring (the longer statement of what it proves)."""
    from . import lint_rules  # noqa: F401  (populate RULES)

    r = RULES.get(name)
    if r is None:
        print(
            f"reprolint: error: unknown rule {name!r} "
            f"(known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return 2
    print(f"{r.name}:", file=out)
    print(f"  {r.doc}", file=out)
    doc = getattr(r.check, "__doc__", None)
    if doc:
        print("", file=out)
        for line in doc.strip().splitlines():
            print(f"  {line.strip()}", file=out)
    return 0


def _dump_graphs(root: str, outdir: str, out) -> int:
    """Write callgraph.json and lock_order.json (the CI artifacts)."""
    from .flow import analyze_lockset, build_project_index
    from .lint_rules import _flow_sources, _flow_suppressions

    ctx = LintContext(root)
    index = build_project_index(_flow_sources(ctx))
    result = analyze_lockset(index, _flow_suppressions(ctx))
    try:
        os.makedirs(outdir, exist_ok=True)
        cg_path = os.path.join(outdir, "callgraph.json")
        lo_path = os.path.join(outdir, "lock_order.json")
        with open(cg_path, "w", encoding="utf-8") as fh:
            json.dump(index.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(lo_path, "w", encoding="utf-8") as fh:
            json.dump(result.order_graph_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"reprolint: wrote {cg_path} ({len(index.functions)} functions, "
        f"{sum(len(v) for v in index.edges.values())} edges) and {lo_path} "
        f"({len(result.order_edges)} lock-order edges, "
        f"{len(result.cycles)} cycles)",
        file=out,
    )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Cost-accounting and lock-discipline linter for this repo.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                        help="files or directories to lint (default: src benchmarks)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                        help="run only the named rule (repeatable)")
    parser.add_argument("--root", default=".",
                        help="repo root that scoped rule paths are relative to")
    parser.add_argument("--explain", metavar="RULE",
                        help="print the named rule's contract and exit")
    parser.add_argument("--dump-graphs", metavar="DIR",
                        help="serialize the project call graph and static "
                             "lock-order graph under DIR and exit")
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout

    if args.explain:
        return _explain_rule(args.explain, out)
    if args.dump_graphs:
        return _dump_graphs(args.root, args.dump_graphs, out)

    try:
        findings = lint_paths(args.paths, root=args.root, rules=args.rules)
    except (OSError, SyntaxError, KeyError, ValueError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        render_json(findings, out)
    else:
        render_text(findings, out)
    return 1 if findings else 0
