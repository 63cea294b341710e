"""Static lockset analysis.

Forward may-hold-lock sets over each function's CFG, with interprocedural
summaries over the project call graph: which locks a function may acquire,
and which blocking calls it may reach (directly or through callees).  The
``flow-lockset`` rule reports

* a blocking call executed while a lock may be held — including calls
  reached *through helper methods*; and
* statically inferred lock-order cycles: acquiring B while holding A adds
  the edge A→B to the project lock-order graph (nested ``with`` or a call
  edge into a function that acquires), and any cycle in that graph is a
  latent deadlock.

The same machinery exports the static lock-order graph, which the test
suite cross-validates against the edges :mod:`~repro.analysis.locksan`
records dynamically (static ⊇ dynamic — the analysis may over-approximate
but must never miss an order the runtime exhibits).

Lock identity matches locksan's: the ``"Class._attr"`` string passed to
``wrap_lock`` / ``wrap_condition`` when present, ``"Class._attr"``
synthesized from the assignment otherwise.  ``with self._x:`` resolves
against the enclosing class; ``with other._x:`` resolves by attribute name
and may be ambiguous, in which case *all* candidate locks are considered
held (over-approximation, the safe direction for a may-analysis).
"""

from __future__ import annotations

import ast
import dataclasses

from ..reprolint import waived
from .callgraph import FunctionInfo, ProjectIndex
from .cfg import FOR, STMT, TEST, WITH_ENTER, WITH_EXIT, CFGNode, build_cfg
from .solver import interprocedural_fixpoint, solve_forward

#: constructions that make an attribute a lock (lint_rules imports this too)
LOCK_CTORS = ("Lock", "RLock", "Condition", "wrap_lock", "wrap_condition")

#: calls that block the calling thread — holding a lock across one stalls
#: every thread contending for it (and deadlocks when the blocked-on work
#: needs the same lock to finish)
BLOCKING_CALLS = (
    "result",
    "join",
    "sendall",
    "recv",
    "read",
    "readline",
    "accept",
    "connect",
    "sleep",
)


@dataclasses.dataclass(frozen=True)
class LockFinding:
    path: str
    line: int
    col: int
    message: str


@dataclasses.dataclass
class LocksetResult:
    """Per-project analysis output."""

    findings: list[LockFinding]
    #: static lock-order graph: (held, acquired) → "path:line" witness
    order_edges: dict[tuple[str, str], str]
    #: lock-order cycles, each a tuple of lock names in acquisition order
    cycles: list[tuple[str, ...]]

    def order_graph_dict(self) -> dict:
        """JSON-ready serialization (the CI artifact)."""
        return {
            "locks": sorted({n for e in self.order_edges for n in e}),
            "edges": [
                {"held": held, "acquired": acquired, "site": site}
                for (held, acquired), site in sorted(self.order_edges.items())
            ],
            "cycles": [list(c) for c in self.cycles],
        }


class LockModel:
    """The project's lock table: which class attributes are locks and what
    locksan calls them."""

    def __init__(self) -> None:
        #: "modname:Class" → {attr → display name}
        self.class_locks: dict[str, dict[str, str]] = {}
        #: attr → all display names using that attribute (for non-self
        #: receivers, where the owning class is unknown)
        self.attr_candidates: dict[str, set[str]] = {}

    def add(self, class_qual: str, attr: str, display: str) -> None:
        self.class_locks.setdefault(class_qual, {})[attr] = display
        self.attr_candidates.setdefault(attr, set()).add(display)


def _lock_display_name(call: ast.Call, cls_name: str, attr: str) -> str:
    """The locksan name: the string literal handed to wrap_lock /
    wrap_condition, else ``Class._attr``."""
    fn = call.func
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
    if name in ("wrap_lock", "wrap_condition"):
        for arg in call.args[1:]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        for kw in call.keywords:
            if (
                kw.arg == "name"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                return kw.value.value
    return f"{cls_name}.{attr}"


def build_lock_model(index: ProjectIndex) -> LockModel:
    model = LockModel()
    for mod in index.modules.values():
        for cls_name, cls in mod.classes.items():
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    value = node.value
                    if not isinstance(value, ast.Call):
                        continue
                    fn = value.func
                    ctor = (
                        fn.id
                        if isinstance(fn, ast.Name)
                        else getattr(fn, "attr", "")
                    )
                    if ctor not in LOCK_CTORS:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            model.add(
                                f"{mod.modname}:{cls_name}",
                                target.attr,
                                _lock_display_name(value, cls_name, target.attr),
                            )
    return model


# --------------------------------------------------------------------------- #
# per-function lock effects
# --------------------------------------------------------------------------- #
def _with_item_locks(
    item_expr: ast.expr, info: FunctionInfo, model: LockModel
) -> frozenset[str]:
    """Lock display names a ``with <expr>:`` item acquires (empty when the
    context manager is not a known lock)."""
    if not isinstance(item_expr, ast.Attribute):
        return frozenset()
    attr = item_expr.attr
    recv = item_expr.value
    if isinstance(recv, ast.Name) and recv.id == "self" and info.cls is not None:
        class_qual = f"{info.modname}:{info.cls}"
        locks = model.class_locks.get(class_qual, {})
        if attr in locks:
            return frozenset({locks[attr]})
        return frozenset()
    # non-self receiver: resolve by attribute name (may be ambiguous)
    return frozenset(model.attr_candidates.get(attr, ()))


def _stmt_with_locks(node_stmt: ast.AST, info: FunctionInfo, model: LockModel):
    acquired: frozenset[str] = frozenset()
    if isinstance(node_stmt, (ast.With, ast.AsyncWith)):
        for item in node_stmt.items:
            acquired |= _with_item_locks(item.context_expr, info, model)
    return acquired


def _executed_subtrees(node: CFGNode) -> list[ast.AST]:
    """The AST fragments that actually run *at* this CFG node — compound
    statements' bodies belong to their own nodes, nested function/class
    definitions merely bind (their bodies run when called, not here)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == TEST:
        return [stmt.test]  # If / While header
    if node.kind == FOR:
        return [stmt.iter]
    if node.kind == WITH_ENTER:
        return [item.context_expr for item in stmt.items]
    if node.kind != STMT or isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []
    return [stmt]


def walk_executed(root: ast.AST):
    """``ast.walk`` that does not descend into nested function/class
    definitions — defining a closure is not running it.  ``root`` itself
    may be a function definition (its own body is walked)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _blocking_calls_in(stmt: ast.AST, info: FunctionInfo, model: LockModel):
    """Yield ``(call, name)`` for blocking calls in one statement, skipping
    calls *on a lock object itself* (``self._cond.wait`` territory — the
    lock's own methods are how you block correctly under it)."""
    for sub in walk_executed(stmt):
        if not isinstance(sub, ast.Call):
            continue
        fn = sub.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else ""
        )
        if name not in BLOCKING_CALLS:
            continue
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Attribute):
            recv_attr = fn.value.attr
            if recv_attr in model.attr_candidates:
                continue  # method of a lock attribute
        yield sub, name


@dataclasses.dataclass(frozen=True)
class FnSummary:
    """May-effects of calling one function (transitively)."""

    acquires: frozenset[str] = frozenset()
    blocking: frozenset[str] = frozenset()


def compute_summaries(
    index: ProjectIndex,
    model: LockModel,
    suppressions: dict[str, dict[int, set[str]]],
) -> dict[str, FnSummary]:
    """Interprocedural may-summaries: locks acquired and blocking calls
    reachable (suppressed blocking sites are deliberate and excluded)."""
    # each function's own acquisitions and blocking calls, walked once —
    # the fixpoint below only folds in its callees' summaries
    own: dict[str, FnSummary] = {}
    for qual, info in index.functions.items():
        acquires: set[str] = set()
        for sub in walk_executed(info.node):
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    acquires |= _with_item_locks(item.context_expr, info, model)
        table = suppressions.get(info.path)
        blocking = {
            name
            for call, name in _blocking_calls_in(info.node, info, model)
            if not waived(table, "flow-lockset", call.lineno)
        }
        own[qual] = FnSummary(frozenset(acquires), frozenset(blocking))

    def initial(qual: str) -> FnSummary:
        return FnSummary()

    def summarize(qual: str, summaries: dict[str, FnSummary]) -> FnSummary:
        acquires = set(own[qual].acquires)
        blocking = set(own[qual].blocking)
        for callee in index.edges.get(qual, ()):
            summary = summaries.get(callee)
            if summary is not None:
                acquires |= summary.acquires
                blocking |= summary.blocking
        return FnSummary(frozenset(acquires), frozenset(blocking))

    return interprocedural_fixpoint(
        sorted(index.functions), summarize, initial
    )


# --------------------------------------------------------------------------- #
# the analysis proper
# --------------------------------------------------------------------------- #
def analyze_lockset(
    index: ProjectIndex,
    suppressions: dict[str, dict[int, set[str]]] | None = None,
) -> LocksetResult:
    """Run the lockset analysis over the whole project.

    ``suppressions`` maps path → per-line suppression table (so deliberate,
    commented blocking sites drop out of both findings and summaries).
    """
    suppressions = suppressions or {}
    model = build_lock_model(index)
    summaries = compute_summaries(index, model, suppressions)

    findings: list[LockFinding] = []
    order_edges: dict[tuple[str, str], str] = {}

    for qual in sorted(index.functions):
        info = index.functions[qual]
        cfg = build_cfg(info.node)

        def transfer(node, state, _info=info):
            stmt = node.stmt
            if stmt is None:
                return state
            if node.kind == WITH_ENTER:
                return state | _stmt_with_locks(stmt, _info, model)
            if node.kind == WITH_EXIT:
                return state - _stmt_with_locks(stmt, _info, model)
            return state

        in_states, _ = solve_forward(
            cfg,
            frozenset(),
            transfer,
            lambda a, b: a | b,
            transfer_exc=transfer,
        )

        table = suppressions.get(info.path)
        for node in cfg.nodes:
            held = in_states[node.idx]
            if not held or node.stmt is None:
                continue
            if node.kind == WITH_ENTER:
                # nested acquisition: order edges held → acquired
                acquired = _stmt_with_locks(node.stmt, info, model)
                for h in sorted(held):
                    for a in sorted(acquired):
                        if h != a:
                            order_edges.setdefault(
                                (h, a), f"{info.path}:{node.line}"
                            )
            for fragment in _executed_subtrees(node):
                # direct blocking calls under a lock
                for call, name in _blocking_calls_in(fragment, info, model):
                    if not waived(table, "flow-lockset", call.lineno):
                        findings.append(
                            LockFinding(
                                info.path,
                                call.lineno,
                                call.col_offset,
                                f"blocking call `{name}(...)` while holding "
                                f"`{'/'.join(sorted(held))}` in `{qual}` — "
                                "release the lock before blocking (or "
                                "suppress with a comment explaining why "
                                "holding it is the point)",
                            )
                        )
                # calls into functions that acquire or (transitively) block
                for sub in walk_executed(fragment):
                    if not isinstance(sub, ast.Call):
                        continue
                    callee = index.resolve_call(info, sub)
                    if callee is None:
                        continue
                    summary = summaries.get(callee, FnSummary())
                    for a in sorted(summary.acquires):
                        for h in sorted(held):
                            if h != a:
                                order_edges.setdefault(
                                    (h, a), f"{info.path}:{sub.lineno}"
                                )
                    if summary.blocking and not waived(
                        table, "flow-lockset", sub.lineno
                    ):
                        names = "/".join(sorted(summary.blocking))
                        findings.append(
                            LockFinding(
                                info.path,
                                sub.lineno,
                                sub.col_offset,
                                f"call to `{callee}` while holding "
                                f"`{'/'.join(sorted(held))}` reaches "
                                f"blocking call(s) `{names}(...)` — helper "
                                "indirection does not release the lock",
                            )
                        )

    cycles = _find_cycles(order_edges)
    for cycle in cycles:
        witness = order_edges.get((cycle[0], cycle[1 % len(cycle)]), "")
        site_path = witness.rsplit(":", 1)[0] if witness else ""
        line = int(witness.rsplit(":", 1)[1]) if witness else 0
        findings.append(
            LockFinding(
                site_path,
                line,
                0,
                "statically inferred lock-order cycle: "
                + " -> ".join((*cycle, cycle[0]))
                + " — some interleaving of these acquisitions deadlocks",
            )
        )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return LocksetResult(findings, order_edges, cycles)


def _find_cycles(
    order_edges: dict[tuple[str, str], str]
) -> list[tuple[str, ...]]:
    """Elementary cycles in the order graph (DFS; deterministic order)."""
    graph: dict[str, list[str]] = {}
    for held, acquired in order_edges:
        graph.setdefault(held, []).append(acquired)
        graph.setdefault(acquired, [])
    for dests in graph.values():
        dests.sort()

    cycles: set[tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: list[str], on_path: set[str]) -> None:
        for nxt in graph[node]:
            if nxt == start and len(path) > 1:
                # canonicalize on the lexicographically smallest rotation
                best = min(
                    tuple(path[i:] + path[:i]) for i in range(len(path))
                )
                cycles.add(best)
            elif nxt not in on_path and nxt > start:
                # only explore nodes after `start` to visit each cycle once
                path.append(nxt)
                on_path.add(nxt)
                dfs(start, nxt, path, on_path)
                on_path.discard(nxt)
                path.pop()

    for start in sorted(graph):
        dfs(start, start, [start], {start})
    return sorted(cycles)
