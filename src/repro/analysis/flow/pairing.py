"""Resource-pairing analysis: must-release on all paths.

Four resource disciplines, each checked per function over the CFG with a
forward may-open analysis (gen at the acquiring node, kill at the
releasing/escaping node; any open resource reaching an exit is a leak on
*some* path — exception edges included where the discipline demands it):

``MemoryGuard`` acquire/release
    ``g.acquire(n)`` on a plain local/parameter must reach ``g.release``
    on **every** path, *including exception paths* — guard footprints are
    the Theorem 4.x memory envelope, and an exception that skips the
    release corrupts every later measurement.  (``self.guard.acquire`` is
    an object-lifetime footprint and exempt.)  The practical fix is
    ``try/finally``.
``BlockWriter`` close
    A writer bound from ``machine.writer(...)`` / ``BlockWriter(...)``
    must be closed or escape (returned, yielded, stored, passed on) on
    every **normal** path.  Exception paths are deliberately exempt:
    ``BlockWriter.__exit__`` skips the close on error precisely so a
    failed sort does not flush (and charge for) garbage.
Server result tickets
    ``self._register(fut)`` returns the ticket clients later redeem;
    discarding the return value (a bare expression statement) strands the
    future in the registry forever — nobody can ever evict it.
``SealedBlock`` escape
    Names bound from ``read_block(..., copy=False)`` / iteration of
    ``scan_blocks(...)`` or ``read_blocks(...)`` (directly or through
    ``zip``) are zero-copy views of physical storage.  Storing
    one whole (append to a container, assignment to an attribute or
    subscript) or returning it raw lets it outlive its block and alias
    later writes; ``yield`` is allowed (streaming to an in-scope consumer
    is the idiom), as are copies (``list(b)``) and slices (``b[i:j]``).

Everything is intraprocedural by design: ownership transfer across calls
is escape (the kill), so no summaries are needed.
"""

from __future__ import annotations

import ast
import dataclasses

from .cfg import FOR, STMT, FunctionCFG, build_cfg
from .lockset import walk_executed
from .solver import solve_forward


@dataclasses.dataclass(frozen=True)
class PairFinding:
    line: int
    col: int
    message: str


#: factory callables whose result is a must-close writer
_WRITER_FACTORIES = ("writer", "BlockWriter")

#: sealed-view producers
_SEALED_ITERS = ("scan_blocks", "read_blocks")
_SEALED_READ = "read_block"


def _call_attr_or_name(call: ast.Call) -> str:
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def _receiver_local(call: ast.Call) -> str | None:
    """``x.m(...)`` → ``"x"`` when the receiver is a plain local name."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        return fn.value.id
    return None


def _is_sealed_read(call: ast.Call) -> bool:
    if _call_attr_or_name(call) != _SEALED_READ:
        return False
    for kw in call.keywords:
        if (
            kw.arg == "copy"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


def _names_in(expr: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)
    }


def _is_generator(fn_node: ast.AST) -> bool:
    return any(
        isinstance(sub, (ast.Yield, ast.YieldFrom))
        for sub in walk_executed(fn_node)
    )


# --------------------------------------------------------------------------- #
# guard + writer: forward may-open analysis
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class _Site:
    name: str  # the local variable bound to the resource
    line: int
    col: int
    kind: str  # "guard" | "writer"


def _stmt_guard_acquire(stmt: ast.AST) -> ast.Call | None:
    """``<name>.acquire(...)`` executed as this statement (directly or
    inside an expression), receiver a plain local."""
    for sub in walk_executed(stmt):
        if (
            isinstance(sub, ast.Call)
            and _call_attr_or_name(sub) == "acquire"
            and _receiver_local(sub) not in (None, "self", "cls")
        ):
            return sub
    return None


def _stmt_writer_bindings(stmt: ast.AST):
    """``name = machine.writer(...)`` / ``name = BlockWriter(...)`` →
    yield (name, call).  Multi-target or non-Name targets are escapes by
    construction (stored immediately) and not tracked."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return
    value = stmt.value
    if isinstance(value, ast.Call) and _call_attr_or_name(value) in _WRITER_FACTORIES:
        yield target.id, value


def _stmt_kills(stmt: ast.AST, fn_node: ast.AST) -> set[tuple[str, str]]:
    """Resource names this statement releases/escapes: ``(kind, name)``
    pairs where kind is "guard" or "writer"."""
    kills: set[tuple[str, str]] = set()
    for sub in walk_executed(stmt):
        if isinstance(sub, ast.Call):
            attr = _call_attr_or_name(sub)
            recv = _receiver_local(sub)
            if recv is not None and attr == "release":
                kills.add(("guard", recv))
            if recv is not None and attr == "close":
                kills.add(("writer", recv))
            # a writer passed as an argument escapes (ownership transfer)
            for arg in (*sub.args, *(kw.value for kw in sub.keywords)):
                if isinstance(arg, ast.Name):
                    kills.add(("writer", arg.id))
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        for name in _names_in(stmt.value):
            kills.add(("writer", name))
    for sub in walk_executed(stmt):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
            for name in _names_in(sub.value):
                kills.add(("writer", name))
        # storing the writer anywhere (attribute, subscript, other name)
        if isinstance(sub, ast.Assign):
            if isinstance(sub.value, ast.Name):
                kills.add(("writer", sub.value.id))
    return kills


def _check_open_resources(
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef, cfg: FunctionCFG
) -> list[PairFinding]:
    """The guard/writer forward analysis over one function."""
    # pre-scan: does this function track anything at all?
    gen_nodes: dict[int, _Site] = {}
    kill_map: dict[int, set[tuple[str, str]]] = {}
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None or node.kind not in (STMT, FOR):
            continue
        if node.kind == STMT:
            acquire = _stmt_guard_acquire(stmt)
            if acquire is not None:
                recv = _receiver_local(acquire)
                gen_nodes[node.idx] = _Site(
                    recv, acquire.lineno, acquire.col_offset, "guard"
                )
            for name, call in _stmt_writer_bindings(stmt):
                gen_nodes[node.idx] = _Site(
                    name, call.lineno, call.col_offset, "writer"
                )
            kills = _stmt_kills(stmt, fn_node)
            if kills:
                kill_map[node.idx] = kills
    if not gen_nodes:
        return []

    def transfer(node, state: frozenset[_Site]) -> frozenset[_Site]:
        kills = kill_map.get(node.idx)
        if kills:
            state = frozenset(
                s for s in state if (s.kind, s.name) not in kills
            )
        site = gen_nodes.get(node.idx)
        if site is not None:
            # rebinding a name re-tracks it; drop the stale site
            state = frozenset(
                s for s in state if (s.kind, s.name) != (site.kind, site.name)
            ) | {site}
        return state

    def transfer_exc(node, state: frozenset[_Site]) -> frozenset[_Site]:
        # kills count even when the killing statement raises (a release
        # that explodes still released); gens do not (an acquire that
        # raised never acquired)
        kills = kill_map.get(node.idx)
        if kills:
            state = frozenset(
                s for s in state if (s.kind, s.name) not in kills
            )
        return state

    in_states, out_states = solve_forward(
        cfg, frozenset(), transfer, lambda a, b: a | b, transfer_exc
    )

    findings: list[PairFinding] = []
    preds_norm: dict[int, list[int]] = {cfg.exit: [], cfg.raise_exit: []}
    preds_exc: dict[int, list[int]] = {cfg.exit: [], cfg.raise_exit: []}
    for node in cfg.nodes:
        for dst in node.succ:
            if dst in preds_norm:
                preds_norm[dst].append(node.idx)
        for dst in node.esucc:
            if dst in preds_exc:
                preds_exc[dst].append(node.idx)

    leaked_normal: set[_Site] = set()
    for p in preds_norm[cfg.exit]:
        if out_states[p]:
            leaked_normal |= out_states[p]
    leaked_exc: set[_Site] = set()
    for p in preds_exc[cfg.raise_exit]:
        state = in_states[p]  # pre-state: the raise happens mid-statement
        kills = kill_map.get(p)
        if state and kills:
            state = frozenset(
                s for s in state if (s.kind, s.name) not in kills
            )
        if state:
            leaked_exc |= state

    for site in sorted(
        leaked_normal | leaked_exc, key=lambda s: (s.line, s.col, s.name)
    ):
        on_exc = site in leaked_exc
        on_norm = site in leaked_normal
        if site.kind == "guard":
            paths = (
                "an exception path"
                if on_exc and not on_norm
                else "some path to return"
                if on_norm and not on_exc
                else "both normal and exception paths"
            )
            findings.append(
                PairFinding(
                    site.line,
                    site.col,
                    f"`{site.name}.acquire(...)` may reach function exit "
                    f"without `{site.name}.release(...)` on {paths} — wrap "
                    "the guarded region in try/finally (the footprint IS "
                    "the theorem's memory envelope)",
                )
            )
        elif on_norm:  # writers: normal paths only (no flush-on-error)
            findings.append(
                PairFinding(
                    site.line,
                    site.col,
                    f"writer `{site.name}` may reach a normal function "
                    f"exit without `.close()` — close it (or return/store "
                    "it) on every non-exception path, or its tail blocks "
                    "are silently dropped",
                )
            )
    return findings


# --------------------------------------------------------------------------- #
# tickets + sealed blocks: syntactic walks over the same CFG nodes
# --------------------------------------------------------------------------- #
def _check_ticket_discard(fn_node: ast.AST) -> list[PairFinding]:
    findings = []
    for sub in walk_executed(fn_node):
        if (
            isinstance(sub, ast.Expr)
            and isinstance(sub.value, ast.Call)
            and _call_attr_or_name(sub.value) == "_register"
        ):
            findings.append(
                PairFinding(
                    sub.lineno,
                    sub.col_offset,
                    "result ticket from `_register(...)` is discarded — "
                    "the future is stranded in the registry (nothing can "
                    "ever evict it); return or store the ticket",
                )
            )
    return findings


def _sealed_names(fn_node: ast.AST) -> dict[str, int]:
    """Local names bound to sealed (zero-copy) block views → binding line."""
    names: dict[str, int] = {}
    for sub in walk_executed(fn_node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if isinstance(target, ast.Name) and isinstance(sub.value, ast.Call):
                if _is_sealed_read(sub.value):
                    names[target.id] = sub.lineno
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for target, it in _loop_bindings(sub.target, sub.iter):
                if (
                    isinstance(target, ast.Name)
                    and isinstance(it, ast.Call)
                    and _call_attr_or_name(it) in _SEALED_ITERS
                ):
                    names[target.id] = sub.lineno
    return names


def _loop_bindings(target: ast.AST, it: ast.AST):
    """``for t in it`` → ``(t, it)``; ``for a, b in zip(x, y)`` also
    pairs each tuple element with its ``zip`` argument."""
    yield target, it
    if (
        isinstance(target, ast.Tuple)
        and isinstance(it, ast.Call)
        and _call_attr_or_name(it) == "zip"
        and len(target.elts) == len(it.args)
    ):
        yield from zip(target.elts, it.args)


def _check_sealed_escape(
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[PairFinding]:
    sealed = _sealed_names(fn_node)
    if not sealed:
        return []
    findings = []
    is_gen = _is_generator(fn_node)

    def flag(node: ast.AST, name: str, how: str) -> None:
        findings.append(
            PairFinding(
                node.lineno,
                node.col_offset,
                f"sealed block `{name}` (zero-copy view bound at line "
                f"{sealed[name]}) escapes by {how} — it aliases physical "
                "storage and outliving its block corrupts later reads; "
                "copy it first (`list(...)`) or slice the records you keep",
            )
        )

    for sub in walk_executed(fn_node):
        if isinstance(sub, ast.Call):
            attr = _call_attr_or_name(sub)
            if attr in ("append", "insert", "add", "put"):
                for arg in sub.args:
                    if isinstance(arg, ast.Name) and arg.id in sealed:
                        flag(sub, arg.id, f"`.{attr}(...)` into a container")
        elif isinstance(sub, ast.Assign):
            value = sub.value
            if isinstance(value, ast.Name) and value.id in sealed:
                for target in sub.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        flag(sub, value.id, "assignment to outliving storage")
        elif isinstance(sub, ast.Return) and not is_gen:
            if isinstance(sub.value, ast.Name) and sub.value.id in sealed:
                flag(sub, sub.value.id, "being returned raw")
    return findings


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def analyze_pairing(
    tree: ast.Module,
    check_tickets: bool = True,
    check_sealed: bool = True,
) -> list[tuple[str, PairFinding]]:
    """All pairing findings for one module: ``(check, finding)`` pairs,
    deterministic order.  Guards and writers are always checked."""
    findings: list[tuple[str, PairFinding]] = []
    for fn in _all_functions(tree):
        findings.extend(
            ("guard" if "acquire" in f.message else "writer", f)
            for f in _check_open_resources(fn, build_cfg(fn))
        )
        if check_tickets:
            findings.extend(("ticket", f) for f in _check_ticket_discard(fn))
        if check_sealed:
            findings.extend(("sealed", f) for f in _check_sealed_escape(fn))
    findings.sort(key=lambda kf: (kf[1].line, kf[1].col, kf[0]))
    return findings


def _all_functions(tree: ast.Module):
    """Every def in the module, including methods and nested defs, each
    analyzed as its own unit."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
