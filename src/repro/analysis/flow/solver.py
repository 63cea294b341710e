"""Generic fixpoint solvers.

Two layers:

* :func:`solve_forward` / :func:`solve_backward` — the classic worklist
  fixpoint over one :class:`~repro.analysis.flow.cfg.FunctionCFG`.  The
  analysis supplies the lattice as plain callables (``join``,
  ``transfer``); states are compared with ``==``, so immutable values
  (frozensets, tuples) are the natural representation.
* :func:`interprocedural_fixpoint` — a summary fixpoint over the call
  graph: each function's summary is recomputed from its callees' current
  summaries until nothing changes.  Recursion converges because the
  per-function summarizers are monotone over finite lattices (sets of
  lock names / blocking-call names drawn from the program text).

Exception edges carry the *pre*-state of the raising node by default;
``transfer_exc`` lets an analysis override that (e.g. resource pairing
counts a ``release()`` even when the release call itself raises — the
conservative direction for leak detection is "kills apply, gens do not").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from .cfg import FunctionCFG

#: safety bound on :func:`interprocedural_fixpoint`'s rounds
MAX_ROUNDS = 50


def solve_forward(
    cfg: FunctionCFG,
    init,
    transfer: Callable,
    join: Callable,
    transfer_exc: Callable | None = None,
):
    """Forward dataflow: returns ``(in_states, out_states)`` lists indexed
    by node.  ``init`` seeds the entry; unreachable nodes keep ``None``
    (analyses should treat None as bottom/skip)."""
    n = len(cfg.nodes)
    in_states: list = [None] * n
    out_norm: list = [None] * n
    out_exc: list = [None] * n
    in_states[cfg.entry] = init

    preds_norm: list[list[int]] = [[] for _ in range(n)]
    preds_exc: list[list[int]] = [[] for _ in range(n)]
    for node in cfg.nodes:
        for dst in node.succ:
            preds_norm[dst].append(node.idx)
        for dst in node.esucc:
            preds_exc[dst].append(node.idx)

    work = deque(range(n))
    while work:
        idx = work.popleft()
        node = cfg.nodes[idx]
        state = in_states[idx]
        if idx != cfg.entry:
            state = None
            for p in preds_norm[idx]:
                if out_norm[p] is not None:
                    state = out_norm[p] if state is None else join(state, out_norm[p])
            for p in preds_exc[idx]:
                if out_exc[p] is not None:
                    state = out_exc[p] if state is None else join(state, out_exc[p])
            if state is None:
                continue  # not reachable (yet)
            if state == in_states[idx] and out_norm[idx] is not None:
                continue  # no change
            in_states[idx] = state
        new_norm = transfer(node, state)
        new_exc = (
            transfer_exc(node, state) if transfer_exc is not None else state
        )
        if new_norm != out_norm[idx] or new_exc != out_exc[idx]:
            out_norm[idx] = new_norm
            out_exc[idx] = new_exc
            for dst in (*node.succ, *node.esucc):
                work.append(dst)
    return in_states, out_norm


def solve_backward(
    cfg: FunctionCFG,
    init,
    transfer: Callable,
    join: Callable,
):
    """Backward dataflow: ``init`` seeds both exits; returns the state
    *before* each node (i.e. what holds on entry to it), indexed by node.
    Exception edges are traversed like normal edges."""
    n = len(cfg.nodes)
    out_states: list = [None] * n  # state after the node (join of successors)
    in_states: list = [None] * n  # state before the node
    in_states[cfg.exit] = init
    in_states[cfg.raise_exit] = init

    succs: list[list[int]] = [
        list(node.succ) + list(node.esucc) for node in cfg.nodes
    ]
    preds: list[list[int]] = [[] for _ in range(n)]
    for node in cfg.nodes:
        for dst in succs[node.idx]:
            preds[dst].append(node.idx)

    work = deque(range(n - 1, -1, -1))
    while work:
        idx = work.popleft()
        node = cfg.nodes[idx]
        if idx in (cfg.exit, cfg.raise_exit):
            state = in_states[idx]
        else:
            state = None
            for s in succs[idx]:
                if in_states[s] is not None:
                    state = (
                        in_states[s] if state is None else join(state, in_states[s])
                    )
            if state is None:
                continue
            out_states[idx] = state
            state = transfer(node, state)
        if state != in_states[idx] or out_states[idx] is None:
            in_states[idx] = state
            for p in preds[idx]:
                work.append(p)
    return in_states


def interprocedural_fixpoint(
    qualnames,
    summarize: Callable,
    initial: Callable,
) -> dict:
    """Compute per-function summaries to a fixpoint.

    ``summarize(qualname, summaries) -> summary`` recomputes one function
    from the current summary map; ``initial(qualname)`` seeds it.  Rounds
    are bounded (:data:`MAX_ROUNDS`) as a safety net — the analyses'
    lattices are finite so the bound never binds in practice.
    """
    summaries = {q: initial(q) for q in qualnames}
    for _ in range(MAX_ROUNDS):
        changed = False
        for q in summaries:
            new = summarize(q, summaries)
            if new != summaries[q]:
                summaries[q] = new
                changed = True
        if not changed:
            break
    return summaries
