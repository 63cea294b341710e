"""Charge-placement analysis.

A dominance check over the CFG of every kernel function, in two parts:

**C2 — per-record charges inside loops** (interprocedural).  A single
charge (``charge_read`` / ``charge_write`` / ``charge_block_read`` /
``charge_block_write``, with or without a count) called at loop depth
>= 1 charges once per iteration, where the vectorized-kernel contract
wants one batched ``charge_reads(n)`` / ``charge_writes(n)``.  The same
holds one call away: a function whose straight-line body issues a bare
single charge (no argument: *one* record) is a "per-record" helper, and
calling it from a loop multiplies the charge while the loop may touch
``B`` records per block.  Summaries follow call edges, so the helper
indirection is seen too.

**C3 — manual block loops must be dominated by an aggregate charge.**
``for bi in range(run.num_blocks):`` iterates physical blocks.  If the
body performs no self-charging primitive (``read_block`` / ``scan`` /
writer ``append`` all charge internally) and is not metadata-only
arithmetic, then the I/O the loop represents must have been charged in
aggregate — concretely, a ``charge_*(n)`` call **at the same loop-nest
depth that dominates the loop header**.  Dominance (not mere textual
precedence) is the point: a charge inside one branch of an ``if`` does
not cover a loop that runs on both branches.

Both checks honor the ``slow_reference`` exemption the way the paper's
cost model does — the slow path is the *oracle*, charged record at a
time by contract.  A statement is slow-exempt when its function is named
for the slow kernel, when it sits in a ``SLOW_REFERENCE`` branch
syntactically, or when its CFG node is dominated by the head of such a
branch (so refactored layouts where the slow region falls through the
bottom of a guard still count).
"""

from __future__ import annotations

import ast
import dataclasses

from ..reprolint import waived
from .callgraph import ProjectIndex
from .cfg import FOR, TEST, CFGNode, FunctionCFG, build_cfg
from .lockset import _executed_subtrees, walk_executed
from .solver import interprocedural_fixpoint

#: the single charges: one record (bare) or one count per call
SINGLE_CHARGES = frozenset(
    {"charge_read", "charge_write", "charge_block_read", "charge_block_write"}
)

#: machine/writer primitives that charge internally — a loop body calling
#: one of these accounts for itself
CHARGED_PRIMITIVES = frozenset(
    {
        "read_block",
        "read_blocks",
        "write_block",
        "scan",
        "scan_blocks",
        "append",
        "extend",
        "close",
    }
)

#: calls that touch only metadata — a loop made of these moves no records
META_CALLS = frozenset(
    {
        "block_len",
        "len",
        "range",
        "min",
        "max",
        "next",
        "isinstance",
        "enumerate",
        "zip",
        "sorted",
        "int",
        "float",
        "abs",
    }
)

#: attributes that count physical/logical blocks — looping over one is
#: looping over I/O
BLOCK_COUNT_ATTRS = ("num_blocks", "logical_blocks")

_SLOW_TOKEN = "SLOW_REFERENCE"

#: where charge placement is law (the paper's cost-model kernels)
SCOPE_PREFIXES = ("src/repro/core/",)


@dataclasses.dataclass(frozen=True)
class ChargeFinding:
    path: str
    line: int
    col: int
    message: str


def _call_name(call: ast.Call) -> str:
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def _mentions_slow(expr: ast.AST) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and sub.id == _SLOW_TOKEN:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == _SLOW_TOKEN:
            return True
    return False


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
    )


def _slow_regions(fn_node: ast.AST) -> list[list[ast.stmt]]:
    """Statement sequences that execute only on the SLOW_REFERENCE path.

    ``mode == SLOW_REFERENCE`` / ``is`` → the body; ``!=`` / ``is not`` →
    the orelse, or — when the (fast) body terminates — the remainder of
    the enclosing block; unknown comparison shapes exempt both branches
    (lenient).
    """
    regions: list[list[ast.stmt]] = []

    def scan(body: list[ast.stmt]) -> None:
        for i, stmt in enumerate(body):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.If) and _mentions_slow(stmt.test):
                positive = None  # does the *body* run on the slow path?
                if isinstance(stmt.test, ast.Compare) and len(stmt.test.ops) == 1:
                    op = stmt.test.ops[0]
                    if isinstance(op, (ast.Eq, ast.Is)):
                        positive = True
                    elif isinstance(op, (ast.NotEq, ast.IsNot)):
                        positive = False
                if positive is True or positive is None:
                    if stmt.body:
                        regions.append(stmt.body)
                if positive is False or positive is None:
                    if stmt.orelse:
                        regions.append(stmt.orelse)
                    elif positive is False and _terminates(stmt.body):
                        rest = body[i + 1:]
                        if rest:
                            regions.append(rest)
                # still scan the non-slow side for nested guards
                if positive is True:
                    scan(stmt.orelse)
                elif positive is False:
                    scan(stmt.body)
                continue
            for child_body in (
                getattr(stmt, "body", None),
                getattr(stmt, "orelse", None),
                getattr(stmt, "finalbody", None),
            ):
                if isinstance(child_body, list):
                    scan(child_body)
            for handler in getattr(stmt, "handlers", []) or []:
                scan(handler.body)

    scan(fn_node.body)
    return regions


def _slow_function(fn_node: ast.AST) -> bool:
    """A function named for the slow kernel is a reference path as a whole."""
    name = fn_node.name.lower()
    return "slow" in name or "reference" in name


class _FnFacts:
    """Everything the two checks need about one function, computed once."""

    def __init__(self, info, cfg: FunctionCFG):
        self.info = info
        self.cfg = cfg
        self.fn_is_slow = _slow_function(info.node)

        regions = _slow_regions(info.node)
        self.slow_ids = {
            id(sub) for region in regions for stmt in region for sub in ast.walk(stmt)
        }
        slow_head_stmts = {id(region[0]) for region in regions}
        self.slow_heads: list[int] = []
        for node in cfg.nodes:
            if node.stmt is not None and id(node.stmt) in slow_head_stmts:
                self.slow_heads.append(node.idx)

    def exempt(self, node_idx: int, ast_node: ast.AST | None = None) -> bool:
        if self.fn_is_slow:
            return True
        if ast_node is not None and id(ast_node) in self.slow_ids:
            return True
        return any(self.cfg.dominates(h, node_idx) for h in self.slow_heads)


def _loop_depth(node: CFGNode) -> int:
    """The loop-nest depth at which ``node``'s code runs: a ``while`` test
    runs once per iteration, like the loop's body."""
    return node.depth + (node.kind == TEST and isinstance(node.stmt, ast.While))


def _fn_facts(index: ProjectIndex) -> dict[str, _FnFacts]:
    return {
        qual: _FnFacts(info, build_cfg(info.node))
        for qual, info in index.functions.items()
    }


# --------------------------------------------------------------------------- #
# C2: per-record summaries over the call graph
# --------------------------------------------------------------------------- #
def compute_per_record(
    index: ProjectIndex, facts: dict[str, _FnFacts]
) -> dict[str, bool]:
    """``qualname → True`` when calling the function once charges exactly
    one record's worth on its straight-line path (so calling it from a
    loop multiplies the charge)."""
    bare0: dict[str, bool] = {}
    calls0: dict[str, list[str]] = {}
    for qual, f in facts.items():
        info = f.info
        has_bare = False
        depth0: list[str] = []
        if not info.path.startswith(SCOPE_PREFIXES):
            # the instrumented layers (models/, datastructures/) charge per
            # call by design — their bare charges ARE the cost model, not a
            # misplaced aggregate; only core/ is bound by the convention
            bare0[qual] = False
            calls0[qual] = []
            continue
        for node in f.cfg.nodes:
            if _loop_depth(node) != 0:
                continue
            for fragment in _executed_subtrees(node):
                for sub in walk_executed(fragment):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = _call_name(sub)
                    if (
                        name in SINGLE_CHARGES
                        and not sub.args
                        and not sub.keywords
                        and not f.exempt(node.idx, sub)
                    ):
                        has_bare = True
                    target = index.resolve_call(info, sub)
                    if target is not None:
                        depth0.append(target)
        bare0[qual] = has_bare
        calls0[qual] = depth0

    def summarize(qual: str, summaries: dict[str, bool]) -> bool:
        return bare0[qual] or any(
            summaries.get(c, False) for c in calls0[qual]
        )

    return interprocedural_fixpoint(
        sorted(facts), summarize, lambda q: bare0[q]
    )


# --------------------------------------------------------------------------- #
# C3: manual block loops need a dominating aggregate charge
# --------------------------------------------------------------------------- #
def _block_count_attr(for_stmt: ast.For | ast.AsyncFor) -> str | None:
    """``for _ in range(<x>.num_blocks)``-shaped header → the attribute."""
    it = for_stmt.iter
    if not (isinstance(it, ast.Call) and _call_name(it) == "range"):
        return None
    for sub in ast.walk(it):
        if isinstance(sub, ast.Attribute) and sub.attr in BLOCK_COUNT_ATTRS:
            return sub.attr
    return None


def _body_calls(for_stmt: ast.For | ast.AsyncFor):
    for stmt in (*for_stmt.body, *for_stmt.orelse):
        for sub in walk_executed(stmt):
            if isinstance(sub, ast.Call):
                yield sub


def _loop_needs_charge(for_stmt: ast.For | ast.AsyncFor) -> bool:
    names = [_call_name(c) for c in _body_calls(for_stmt)]
    for name in names:
        if name in CHARGED_PRIMITIVES or name.startswith("charge_"):
            return False  # the body accounts for itself
    if all(name in META_CALLS for name in names):
        return False  # metadata-only loop, no records move
    return True


def _charge_nodes(f: _FnFacts) -> list[tuple[int, int]]:
    """``(node_idx, depth)`` of every aggregate ``charge_*(n)`` call."""
    out: list[tuple[int, int]] = []
    for node in f.cfg.nodes:
        for fragment in _executed_subtrees(node):
            for sub in walk_executed(fragment):
                if (
                    isinstance(sub, ast.Call)
                    and _call_name(sub).startswith("charge_")
                    and (sub.args or sub.keywords)
                ):
                    out.append((node.idx, node.depth))
    return out


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def analyze_charges(
    index: ProjectIndex,
    suppressions: dict[str, dict[int, set[str]]] | None = None,
) -> list[ChargeFinding]:
    """Both checks over the project; findings restricted to core/."""
    suppressions = suppressions or {}
    facts = _fn_facts(index)
    per_record = compute_per_record(index, facts)

    findings: list[ChargeFinding] = []
    for qual in sorted(facts):
        f = facts[qual]
        info = f.info
        if not info.path.startswith(SCOPE_PREFIXES):
            continue
        table = suppressions.get(info.path)

        for node in f.cfg.nodes:
            # C2: a single charge inside a loop, made directly or through
            # a per-record helper
            depth = _loop_depth(node)
            if depth >= 1:
                for fragment in _executed_subtrees(node):
                    for sub in walk_executed(fragment):
                        if not isinstance(sub, ast.Call):
                            continue
                        name = _call_name(sub)
                        if name in SINGLE_CHARGES:
                            message = (
                                f"per-record `{name}` at loop depth "
                                f"{depth} — hoist to one batched "
                                "charge_reads/charge_writes call "
                                "(vectorized-kernel contract), or move the "
                                "loop under a SLOW_REFERENCE branch"
                            )
                        else:
                            target = index.resolve_call(info, sub)
                            if target is None or not per_record.get(target, False):
                                continue
                            message = (
                                f"call to `{target}` at loop depth "
                                f"{depth} reaches a bare "
                                "`charge_*()` — the helper charges one "
                                "record per invocation, so the loop "
                                "multiplies the charge; hoist an "
                                "aggregate `charge_*(n)` and strip the "
                                "bare charge from the helper"
                            )
                        if f.exempt(node.idx, sub) or waived(
                            table, "flow-charge", sub.lineno
                        ):
                            continue
                        findings.append(
                            ChargeFinding(
                                info.path, sub.lineno, sub.col_offset, message
                            )
                        )
            # C3: manual block loop without a dominating aggregate charge
            if node.kind != FOR or not isinstance(
                node.stmt, (ast.For, ast.AsyncFor)
            ):
                continue
            attr = _block_count_attr(node.stmt)
            if attr is None or not _loop_needs_charge(node.stmt):
                continue
            if f.exempt(node.idx, node.stmt):
                continue
            if waived(table, "flow-charge", node.line):
                continue
            charges = _charge_nodes(f)
            if any(
                depth == node.depth and f.cfg.dominates(c_idx, node.idx)
                for c_idx, depth in charges
            ):
                continue
            findings.append(
                ChargeFinding(
                    info.path,
                    node.line,
                    node.stmt.col_offset,
                    f"block loop over `.{attr}` performs no self-charging "
                    "primitive and is not dominated by an aggregate "
                    "`charge_*(n)` at the same loop depth — the I/O this "
                    "loop represents is invisible to the cost model",
                )
            )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
    return findings
