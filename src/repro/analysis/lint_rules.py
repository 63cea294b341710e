"""The repo-specific lint rules.

Each rule enforces one invariant the cost model or the service layer
depends on; see the rule docstrings (surfaced by ``RULES``) for what and
why.  Rules receive a parsed :class:`~repro.analysis.reprolint.ModuleSource`
and the run's :class:`~repro.analysis.reprolint.LintContext` and yield
:class:`~repro.analysis.reprolint.Finding`\\ s; suppression happens in
the framework.

Scoping: every rule keys off the module's *virtual path* (repo-relative,
overridable with the ``# reprolint: path=...`` pragma — which is how the
planted-violation corpus under ``tests/lint_corpus/`` opts in).
"""

from __future__ import annotations

import ast
import os

from .flow import (
    analyze_charges,
    analyze_lockset,
    analyze_pairing,
    build_project_index,
)
from .flow.lockset import LOCK_CTORS
from .reprolint import Finding, LintContext, ModuleSource, rule

#: modules allowed to touch physical storage directly: the model itself,
#: and the sanitizer layer whose whole job is auditing that storage
_UNCHARGED_IO_WHITELIST = ("src/repro/models/", "src/repro/analysis/")

#: attributes that ARE the physical storage of the AEM simulation
_PHYSICAL_ATTRS = ("_blocks", "_memory")

#: the kernel modules: their charge placement is law (flow-charge), each
#: of their block-granularity charges must be reachable from a contracted
#: kernel entry point (orphan-charge), and no sealed block may escape in
#: them (flow-resource)
_KERNEL_SCOPE = ("src/repro/core/",)

#: the lock-owning layers
_LOCK_SCOPE_PREFIXES = (
    "src/repro/service/",
    "src/repro/cluster/",
    "src/repro/testing/",
)
_LOCK_SCOPE_FILES = ("src/repro/planner/plan_cache.py",)

#: the project the whole-project analyses index, and flow-resource's scope
_PROJECT_SCOPE = ("src/repro/",)


def _in_scope(module: ModuleSource, prefixes=(), files=()) -> bool:
    vp = module.virtual_path
    return vp.startswith(tuple(prefixes)) or vp in files


# --------------------------------------------------------------------------- #
# uncharged-io
# --------------------------------------------------------------------------- #
@rule(
    "uncharged-io",
    "direct ._blocks/._memory access outside the model bypasses CostCounter "
    "charging — go through AEMachine primitives (or block_len for metadata)",
)
def check_uncharged_io(module: ModuleSource, ctx: LintContext):
    if _in_scope(module, prefixes=_UNCHARGED_IO_WHITELIST):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in _PHYSICAL_ATTRS:
            yield Finding(
                rule="uncharged-io",
                path=module.virtual_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"direct access to physical storage `.{node.attr}` "
                    "outside repro.models — every block touch must go "
                    "through a charged AEMachine primitive (use "
                    "machine.block_len(bi) for free length metadata)"
                ),
            )


# --------------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------------- #
def _call_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name):
            return fn.id
        if isinstance(fn, ast.Attribute):
            return fn.attr
    return ""


def _self_attr(node: ast.AST) -> str | None:
    """`self.X` -> "X" (else None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_self_attrs(target: ast.AST):
    """Self attributes written by one assignment target: ``self.x = …``,
    ``self.x[i] = …``, and tuple/list unpacking thereof."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written_self_attrs(elt)
        return
    if isinstance(target, ast.Starred):
        yield from _written_self_attrs(target.value)
        return
    attr = _self_attr(target)
    if attr is not None:
        yield attr
        return
    if isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None:
            yield attr


def _lock_attrs_of_class(cls: ast.ClassDef) -> set[str]:
    """Lock-holding attributes: ``self.X = threading.Lock()`` (or a
    ``wrap_lock``/``wrap_condition`` construction) anywhere in the class."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if _call_name(node.value) in LOCK_CTORS:
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    attrs.add(attr)
    return attrs


def _held_locks(module: ModuleSource, node: ast.AST, lock_attrs: set[str]) -> set[str]:
    """Lock attributes held at ``node`` via enclosing ``with self.X:``."""
    held: set[str] = set()
    for anc in module.ancestors(node):
        if isinstance(anc, ast.With):
            for item in anc.items:
                attr = _self_attr(item.context_expr)
                if attr in lock_attrs:
                    held.add(attr)
    return held


@rule(
    "lock-discipline",
    "in lock-owning classes (service layer, PlanCache): instance state must "
    "be written under the lock; blocking while a lock is held is "
    "flow-lockset's check",
)
def check_lock_discipline(module: ModuleSource, ctx: LintContext):
    if not _in_scope(
        module, prefixes=_LOCK_SCOPE_PREFIXES, files=_LOCK_SCOPE_FILES
    ):
        return
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs_of_class(cls)
        if not lock_attrs:
            continue
        for node in ast.walk(cls):
            # ---- unlocked writes to instance state -----------------------
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                written = [
                    a for t in targets for a in _written_self_attrs(t)
                ]
                if not written:
                    continue
                fn = next(
                    (
                        a
                        for a in module.ancestors(node)
                        if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ),
                    None,
                )
                if fn is None or fn.name == "__init__":
                    continue  # construction is single-threaded by definition
                if _held_locks(module, node, lock_attrs):
                    continue
                for attr in written:
                    yield Finding(
                        rule="lock-discipline",
                        path=module.virtual_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"write to `self.{attr}` in "
                            f"`{cls.name}.{fn.name}` outside "
                            f"`with self.{'/'.join(sorted(lock_attrs))}:` — "
                            "lock-owning classes must write instance state "
                            "under their lock"
                        ),
                    )


# --------------------------------------------------------------------------- #
# orphan-charge
# --------------------------------------------------------------------------- #
def _charge_map(ctx: LintContext):
    """The charge-site map of the run's project view (see
    :func:`_project_view`), built once per run."""
    cached = getattr(ctx, "_charge_map_cache", None)
    if cached is None:
        from .boundcheck import analyze_summaries, charge_scope_files, summarize_source

        scope = set(charge_scope_files(ctx.root))
        cached = ctx._charge_map_cache = analyze_summaries([
            summarize_source(path, tree)
            for path, tree in sorted(_project_view(ctx).items())
            if path in scope or path.startswith(_KERNEL_SCOPE)
        ])
    return cached


@rule(
    "orphan-charge",
    "block-granularity charge_* call sites in core code must be statically "
    "reachable from a contracted kernel entry point — orphaned charges are "
    "cost accounting no certificate ever exercises",
)
def check_orphan_charge(module: ModuleSource, ctx: LintContext):
    if not _in_scope(module, prefixes=_KERNEL_SCOPE):
        return
    for site in _charge_map(ctx).orphans:
        if site.path != module.virtual_path:
            continue
        yield Finding(
            rule="orphan-charge",
            path=site.path,
            line=site.line,
            col=site.col,
            message=(
                f"block-granularity `{site.method}` in `{site.function}` is "
                "reachable from no contracted kernel entry point — dead cost "
                "accounting that `repro certify` never exercises (wire it to "
                "a registered entry or remove it)"
            ),
        )


# --------------------------------------------------------------------------- #
# bench-emit
# --------------------------------------------------------------------------- #
@rule(
    "bench-emit",
    "every bench_* scenario in benchmarks/bench_*.py must route its results "
    "into the BENCH_* trajectory — take the `benchmark` fixture (the autouse "
    "conftest hook emits for it) or call emit_bench_json directly",
)
def check_bench_emit(module: ModuleSource, ctx: LintContext):
    vp = module.virtual_path
    basename = vp.rsplit("/", 1)[-1]
    if not (
        vp.startswith("benchmarks/")
        and basename.startswith("bench_")
        and basename.endswith(".py")
    ):
        return
    for node in module.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("bench_"):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        if "benchmark" in params:
            continue
        if any(
            isinstance(sub, ast.Call) and _call_name(sub) == "emit_bench_json"
            for sub in ast.walk(node)
        ):
            continue
        yield Finding(
            rule="bench-emit",
            path=vp,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"bench scenario `{node.name}` neither takes the `benchmark` "
                "fixture nor calls emit_bench_json — its results silently "
                "drop out of the BENCH_* trajectory"
            ),
        )


# --------------------------------------------------------------------------- #
# CFG-backed flow rules (interprocedural engine in repro.analysis.flow)
# --------------------------------------------------------------------------- #
#: result tickets only matter in the service layer
_TICKET_SCOPE = ("src/repro/service/",)


def _flow_sources(ctx: LintContext) -> dict[str, str]:
    """``relpath → text`` for every module under src/repro, cached per run."""
    cached = getattr(ctx, "_flow_sources_cache", None)
    if cached is not None:
        return cached
    sources: dict[str, str] = {}
    pkg_root = os.path.join(ctx.root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(pkg_root):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and d != "__pycache__"
        )
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            rel = os.path.relpath(
                os.path.join(dirpath, fn), ctx.root
            ).replace(os.sep, "/")
            text = ctx.read_file(rel)
            if text is not None:
                sources[rel] = text
    ctx._flow_sources_cache = sources
    return sources


def _flow_suppressions(ctx: LintContext) -> dict[str, dict[int, set[str]]]:
    """Per-line suppression tables for every project module (the analyses
    honor them inside summaries, not just at report time)."""
    cached = getattr(ctx, "_flow_suppressions_cache", None)
    if cached is not None:
        return cached
    from .reprolint import _collect_suppressions

    tables = {
        rel: _collect_suppressions(text.splitlines())
        for rel, text in _flow_sources(ctx).items()
    }
    ctx._flow_suppressions_cache = tables
    return tables


def _project_view(ctx: LintContext) -> dict:
    """``relpath → tree`` of the project this run analyses: every module
    under src/repro, with each linted module spliced in at its virtual path
    (a corpus fixture, or an edited file replacing the real one).  Built
    once per run from the trees the linted modules already hold, so each
    whole-project analysis runs once and each rule keeps its module's
    findings."""
    cached = getattr(ctx, "_project_view_cache", None)
    if cached is None:
        cached = {
            vp: m.tree for vp, m in ctx.modules.items()
            if vp.startswith(_PROJECT_SCOPE)
        }
        for rel, text in _flow_sources(ctx).items():
            if rel not in cached:
                try:
                    cached[rel] = ast.parse(text, filename=rel)
                except SyntaxError:
                    continue
        ctx._project_view_cache = cached
    return cached


def _flow_result(ctx: LintContext, analyze):
    """``analyze(index, suppressions)`` over the project view, once per run."""
    results = getattr(ctx, "_flow_results_cache", None)
    if results is None:
        results = ctx._flow_results_cache = {}
    if analyze not in results:
        index = getattr(ctx, "_flow_index_cache", None)
        if index is None:
            index = ctx._flow_index_cache = build_project_index(
                {}, extra=_project_view(ctx)
            )
        suppressions = dict(_flow_suppressions(ctx))
        suppressions.update(
            (vp, m.suppressions) for vp, m in ctx.modules.items()
        )
        results[analyze] = analyze(index, suppressions)
    return results[analyze]


@rule(
    "flow-lockset",
    "interprocedural lockset analysis over the project CFGs: no blocking "
    "call may be reachable (even through helpers) while a "
    "service-layer/PlanCache lock is statically held, and the inferred "
    "lock-order graph must be acyclic",
)
def check_flow_lockset(module: ModuleSource, ctx: LintContext):
    """Forward may-hold-lock dataflow per function plus call-graph
    summaries; also exports the static lock-order graph the test suite
    cross-validates against locksan's dynamic observations."""
    if not _in_scope(
        module, prefixes=_LOCK_SCOPE_PREFIXES, files=_LOCK_SCOPE_FILES
    ):
        return
    for f in _flow_result(ctx, analyze_lockset).findings:
        if f.path != module.virtual_path:
            continue
        yield Finding(
            rule="flow-lockset",
            path=f.path,
            line=f.line,
            col=f.col,
            message=f.message,
        )


@rule(
    "flow-resource",
    "must-release pairing over all CFG paths: MemoryGuard acquire/release "
    "(exception edges included), BlockWriter close-or-escape on normal "
    "paths, no discarded server result tickets, no sealed zero-copy blocks "
    "escaping their scope",
)
def check_flow_resource(module: ModuleSource, ctx: LintContext):
    """Forward may-open resource analysis per function — gen at the
    acquiring node, kill at release/escape, leak = open resource reaching
    an exit the discipline covers."""
    vp = module.virtual_path
    if not vp.startswith(_PROJECT_SCOPE):
        return
    for _kind, f in analyze_pairing(
        module.tree,
        check_tickets=vp.startswith(_TICKET_SCOPE),
        check_sealed=vp.startswith(_KERNEL_SCOPE),
    ):
        yield Finding(
            rule="flow-resource",
            path=vp,
            line=f.line,
            col=f.col,
            message=f.message,
        )


@rule(
    "flow-charge",
    "charge placement by dominance: kernel-path loops in core use the "
    "batched charge_reads/charge_writes API, not a per-record single "
    "charge (directly or through a helper), and manual block loops must "
    "be dominated by an aggregate charge_*(n) at the same loop-nest depth",
)
def check_flow_charge(module: ModuleSource, ctx: LintContext):
    """Dominance check over the CFG, interprocedural via per-record
    summaries over the call graph; SLOW_REFERENCE regions are exempt by
    dominance, not just syntactic containment."""
    if not _in_scope(module, prefixes=_KERNEL_SCOPE):
        return
    for f in _flow_result(ctx, analyze_charges):
        if f.path != module.virtual_path:
            continue
        yield Finding(
            rule="flow-charge",
            path=f.path,
            line=f.line,
            col=f.col,
            message=f.message,
        )
