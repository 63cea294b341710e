"""Per-function control-flow graphs.

One :class:`FunctionCFG` per ``def``: statement-level nodes, normal edges
for sequencing / branches / loops, *exception edges* for every statement
that can raise (to the innermost handler, through ``finally`` blocks, and
ultimately to a synthetic raise-exit), per-node loop-nest depth, and
dominators.  The graph is deliberately an over-approximation — extra paths
are fine for the may-analyses (lockset) and make the must-analyses
(resource pairing) stricter, which is the conservative direction for a
linter backed by per-line suppressions.

Modeling choices worth knowing when reading analysis results:

* ``finally`` bodies are built once and act as a join: normal completion,
  exceptional completion, and ``return`` / ``break`` / ``continue`` all
  route through the same nodes and fan out to their continuations at the
  end.  This merges paths (infeasible combinations appear) but never
  drops one.
* A statement gets an exception edge iff it syntactically contains a
  ``Call``, ``Raise``, ``Assert`` or ``Subscript`` — the constructs the
  repo's invariants care about.  Exception-edge state is the *pre*-state
  of the statement by default (the solver lets an analysis override this,
  e.g. to let a ``release()`` count even when it raises).
* ``with`` statements produce paired ``with-enter`` / ``with-exit`` nodes;
  exceptions inside the body route through ``with-exit`` first, matching
  ``__exit__`` semantics (how lock regions end on every path).
"""

from __future__ import annotations

import ast

#: statement kinds a node can carry (see module docstring)
ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"
STMT = "stmt"
TEST = "test"
FOR = "for"
WITH_ENTER = "with-enter"
WITH_EXIT = "with-exit"
EXCEPT = "except"
JOIN = "join"

_MAY_RAISE_NODES = (ast.Call, ast.Raise, ast.Assert, ast.Subscript)


class CFGNode:
    """One CFG node: a simple statement, a branch test, or a synthetic
    region marker (entry/exit, with-enter/with-exit, handler head)."""

    __slots__ = ("idx", "kind", "stmt", "depth", "line", "succ", "esucc")

    def __init__(self, idx: int, kind: str, stmt: ast.AST | None, depth: int):
        self.idx = idx
        self.kind = kind
        self.stmt = stmt
        self.depth = depth
        self.line = getattr(stmt, "lineno", 0)
        self.succ: list[int] = []  # normal-edge successors
        self.esucc: list[int] = []  # exception-edge successors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CFGNode({self.idx}, {self.kind}, line={self.line}, "
            f"depth={self.depth}, succ={self.succ}, esucc={self.esucc})"
        )


class FunctionCFG:
    """The control-flow graph of one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new(ENTRY, None, 0)
        self.exit = self._new(EXIT, None, 0)
        self.raise_exit = self._new(RAISE_EXIT, None, 0)
        self._dominators: list[set[int]] | None = None

    # ------------------------------------------------------------------ #
    def _new(self, kind: str, stmt: ast.AST | None, depth: int) -> int:
        node = CFGNode(len(self.nodes), kind, stmt, depth)
        self.nodes.append(node)
        return node.idx

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succ:
            self.nodes[src].succ.append(dst)

    def _exc_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].esucc:
            self.nodes[src].esucc.append(dst)

    # ------------------------------------------------------------------ #
    def dominators(self) -> list[set[int]]:
        """``dom[i]`` = node indices dominating node ``i`` (both edge kinds
        count: an exception path around a block breaks its dominance)."""
        if self._dominators is not None:
            return self._dominators
        n = len(self.nodes)
        all_idx = set(range(n))
        dom = [all_idx.copy() for _ in range(n)]
        dom[self.entry] = {self.entry}
        preds: list[list[int]] = [[] for _ in range(n)]
        for node in self.nodes:
            for dst in (*node.succ, *node.esucc):
                preds[dst].append(node.idx)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if i == self.entry:
                    continue
                pred_doms = [dom[p] for p in preds[i]]
                new = set.intersection(*pred_doms) if pred_doms else set()
                new = new | {i}
                if new != dom[i]:
                    dom[i] = new
                    changed = True
        self._dominators = dom
        return dom

    def dominates(self, a: int, b: int) -> bool:
        return a in self.dominators()[b]


# --------------------------------------------------------------------------- #
# builder
# --------------------------------------------------------------------------- #
class _FinallyFrame:
    """One ``finally`` body, built once; jump statements inside the ``try``
    route through it and register where its end should continue to."""

    __slots__ = ("entry_idx", "continuations")

    def __init__(self, entry_idx: int):
        self.entry_idx = entry_idx
        self.continuations: set[int] = set()


class _LoopFrame:
    __slots__ = ("header", "after_hooks", "continue_hooks")

    def __init__(self, header: int):
        self.header = header
        self.after_hooks: list[int] = []  # break sources to wire to after
        self.continue_hooks: list[int] = []  # continue sources → header


def _may_raise(stmt: ast.AST) -> bool:
    return any(isinstance(sub, _MAY_RAISE_NODES) for sub in ast.walk(stmt))


class _Builder:
    def __init__(self, cfg: FunctionCFG):
        self.cfg = cfg
        self.depth = 0
        #: innermost-first stack of exception continuations: node indices an
        #: exception edge targets (handler heads, with-exits, finally heads)
        self.exc_targets: list[list[int]] = [[cfg.raise_exit]]
        #: innermost-first mixed frame stack for return/break/continue
        #: routing: entries are ("loop", _LoopFrame) or ("finally",
        #: _FinallyFrame) or ("with", with_exit_idx)
        self.frames: list[tuple[str, object]] = []

    # -- plumbing ------------------------------------------------------- #
    def _current_exc(self) -> list[int]:
        return self.exc_targets[-1]

    def _wire_exc(self, idx: int) -> None:
        for target in self._current_exc():
            self.cfg._exc_edge(idx, target)

    def _stmt_node(self, stmt: ast.stmt, kind: str = STMT) -> int:
        idx = self.cfg._new(kind, stmt, self.depth)
        if kind in (WITH_ENTER, WITH_EXIT, FOR) or _may_raise(stmt):
            self._wire_exc(idx)
        return idx

    def _connect(self, frontier: list[int], dst: int) -> None:
        for src in frontier:
            self.cfg._edge(src, dst)

    def _route_jump(self, src: int, stop: str | None) -> None:
        """Wire a ``return`` (stop=None), ``break`` or ``continue``
        (stop="loop") from ``src`` through enclosing finally/with frames to
        its ultimate target, chaining single-instance finally bodies."""
        hop = src
        for kind, frame in reversed(self.frames):
            if kind == "finally":
                assert isinstance(frame, _FinallyFrame)
                if hop == src:
                    self.cfg._edge(hop, frame.entry_idx)
                else:
                    # an inner finally must continue into this one
                    self._pending_chain.setdefault(hop, set()).add(
                        frame.entry_idx
                    )
                hop = frame.entry_idx
                continue
            if kind == "with":
                # __exit__ runs on the way out; route through the exit node
                exit_idx = frame  # type: ignore[assignment]
                if hop == src:
                    self.cfg._edge(hop, exit_idx)
                else:
                    self._pending_chain.setdefault(hop, set()).add(exit_idx)
                hop = exit_idx
                continue
            if kind == "loop" and stop == "loop":
                loop = frame
                assert isinstance(loop, _LoopFrame)
                if hop == src:
                    (loop.after_hooks if self._jump_is_break
                     else loop.continue_hooks).append(hop)
                else:
                    self._pending_exit_chain.append(
                        (hop, loop, self._jump_is_break)
                    )
                return
        # ran out of frames: a return (or a break outside any loop, which
        # is a syntax error upstream) — continue to the function exit
        if hop == src:
            self.cfg._edge(hop, self.cfg.exit)
        else:
            self._pending_chain.setdefault(hop, set()).add(self.cfg.exit)

    # pending continuations registered on finally/with frames whose end
    # frontier is not known yet: resolved when the frame finishes building
    _pending_chain: dict[int, set[int]]
    _pending_exit_chain: list[tuple[int, _LoopFrame, bool]]
    _jump_is_break: bool

    # -- statement dispatch --------------------------------------------- #
    def build(self, body: list[ast.stmt]) -> None:
        self._pending_chain = {}
        self._pending_exit_chain = []
        self._frame_ends: dict[int, list[int]] = {}
        frontier = self.visit_block(body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit)
        self._resolve_pending()

    def _resolve_pending(self) -> None:
        # chain finally/with frames whose ends were recorded during build
        for head, targets in self._pending_chain.items():
            for end in self._frame_ends.get(head, [head]):
                for target in targets:
                    self.cfg._edge(end, target)
        for head, loop, is_break in self._pending_exit_chain:
            hooks = loop.after_hooks if is_break else loop.continue_hooks
            hooks.extend(self._frame_ends.get(head, [head]))

    def visit_block(
        self, body: list[ast.stmt], frontier: list[int]
    ) -> list[int]:
        for stmt in body:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self.visit_stmt(stmt, frontier)
        return frontier

    def visit_stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, (ast.If,)):
            return self._visit_if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._visit_while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, frontier)
        if isinstance(stmt, ast.Return):
            idx = self._stmt_node(stmt)
            self._connect(frontier, idx)
            self._route_jump(idx, stop=None)
            return []
        if isinstance(stmt, ast.Raise):
            idx = self.cfg._new(STMT, stmt, self.depth)
            self._connect(frontier, idx)
            self._wire_exc(idx)
            return []
        if isinstance(stmt, ast.Break):
            idx = self._stmt_node(stmt)
            self._connect(frontier, idx)
            self._jump_is_break = True
            self._route_jump(idx, stop="loop")
            return []
        if isinstance(stmt, ast.Continue):
            idx = self._stmt_node(stmt)
            self._connect(frontier, idx)
            self._jump_is_break = False
            self._route_jump(idx, stop="loop")
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # nested definitions are opaque single statements here; their own
            # bodies get their own CFGs
            idx = self.cfg._new(STMT, stmt, self.depth)
            self._connect(frontier, idx)
            return [idx]
        # simple statement (assign, expr, assert, global, pass, ...)
        idx = self._stmt_node(stmt)
        self._connect(frontier, idx)
        return [idx]

    # -- compound statements -------------------------------------------- #
    def _visit_if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        test = self.cfg._new(TEST, stmt, self.depth)
        if _may_raise(stmt.test):
            self._wire_exc(test)
        self._connect(frontier, test)
        then_end = self.visit_block(stmt.body, [test])
        if stmt.orelse:
            else_end = self.visit_block(stmt.orelse, [test])
        else:
            else_end = [test]
        return then_end + else_end

    def _visit_while(self, stmt: ast.While, frontier: list[int]) -> list[int]:
        header = self.cfg._new(TEST, stmt, self.depth)
        if _may_raise(stmt.test):
            self._wire_exc(header)
        self._connect(frontier, header)
        loop = _LoopFrame(header)
        self.frames.append(("loop", loop))
        self.depth += 1
        body_end = self.visit_block(stmt.body, [header])
        self.depth -= 1
        self.frames.pop()
        self._connect(body_end, header)
        for src in loop.continue_hooks:
            self.cfg._edge(src, header)
        # the loop falls through unless the test is literally `while True`
        infinite = (
            isinstance(stmt.test, ast.Constant) and stmt.test.value is True
        )
        after: list[int] = [] if infinite else [header]
        after += loop.after_hooks
        if stmt.orelse:
            after = self.visit_block(stmt.orelse, [header] if not infinite else [])
            after += loop.after_hooks
        return after

    def _visit_for(self, stmt: ast.For | ast.AsyncFor, frontier: list[int]) -> list[int]:
        header = self._stmt_node(stmt, kind=FOR)
        self._connect(frontier, header)
        loop = _LoopFrame(header)
        self.frames.append(("loop", loop))
        self.depth += 1
        body_end = self.visit_block(stmt.body, [header])
        self.depth -= 1
        self.frames.pop()
        self._connect(body_end, header)
        for src in loop.continue_hooks:
            self.cfg._edge(src, header)
        after: list[int] = [header]
        if stmt.orelse:
            after = self.visit_block(stmt.orelse, [header])
        after = after + loop.after_hooks
        return after

    def _visit_with(self, stmt: ast.With | ast.AsyncWith, frontier: list[int]) -> list[int]:
        enter = self._stmt_node(stmt, kind=WITH_ENTER)
        self._connect(frontier, enter)
        exit_idx = self.cfg._new(WITH_EXIT, stmt, self.depth)
        # body exceptions run __exit__ before propagating
        self.exc_targets.append([exit_idx])
        self.frames.append(("with", exit_idx))
        body_end = self.visit_block(stmt.body, [enter])
        self.frames.pop()
        self.exc_targets.pop()
        self._connect(body_end, exit_idx)
        self._frame_ends[exit_idx] = [exit_idx]
        # exceptional continuation of __exit__ itself / of the body
        for target in self._current_exc():
            self.cfg._exc_edge(exit_idx, target)
        return [exit_idx]

    def _visit_try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        handler_heads: list[int] = []
        fin: _FinallyFrame | None = None
        if stmt.finalbody:
            # head placeholder (a pure join); the body is built after the
            # try body and handlers so jumps can register continuations
            fin_entry = self.cfg._new(JOIN, None, self.depth)
            fin = _FinallyFrame(fin_entry)

        # exception continuations inside the try body: every handler could
        # match; with no handler (or none matching) the finally runs and
        # re-raises
        body_exc: list[int] = []
        for handler in stmt.handlers:
            head = self.cfg._new(EXCEPT, handler, self.depth)
            handler_heads.append(head)
            body_exc.append(head)
        if fin is not None:
            body_exc.append(fin.entry_idx)
            fin.continuations.update(self._current_exc())
        if not body_exc:
            body_exc = list(self._current_exc())

        if fin is not None:
            self.frames.append(("finally", fin))
        self.exc_targets.append(body_exc)
        body_end = self.visit_block(stmt.body, list(frontier))
        self.exc_targets.pop()
        if stmt.orelse:
            body_end = self.visit_block(stmt.orelse, body_end)

        # handler bodies: their own exceptions go to the finally (if any)
        # and the outer targets
        handler_exc: list[int] = []
        if fin is not None:
            handler_exc.append(fin.entry_idx)
        handler_exc.extend(self._current_exc())
        normal_ends: list[int] = list(body_end)
        self.exc_targets.append(handler_exc)
        for head, handler in zip(handler_heads, stmt.handlers):
            h_end = self.visit_block(handler.body, [head])
            normal_ends.extend(h_end)
        self.exc_targets.pop()

        if fin is None:
            return normal_ends

        self.frames.pop()
        # build the finally body once; all normal completions flow in
        self._connect(normal_ends, fin.entry_idx)
        fin_end = self.visit_block(stmt.finalbody, [fin.entry_idx])
        self._frame_ends[fin.entry_idx] = fin_end or [fin.entry_idx]
        # exceptional inflow re-raises after the finally
        for end in self._frame_ends[fin.entry_idx]:
            for target in fin.continuations:
                self.cfg._exc_edge(end, target)
        return list(self._frame_ends[fin.entry_idx])


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionCFG:
    """Build the CFG of one function definition's body."""
    cfg = FunctionCFG(func)
    _Builder(cfg).build(func.body)
    return cfg
