"""flow — the interprocedural dataflow engine behind the CFG-backed lint rules.

The syntactic rules in :mod:`~repro.analysis.lint_rules` see one AST node
at a time; anything that depends on a *path* through the code (an
exception edge skipping a ``release``, a blocking call reached through a
helper method while a lock is held, a charge hoisted to the wrong loop
depth) is invisible to them.  This subpackage supplies the machinery those
checks need:

:mod:`.cfg`
    Per-function control-flow graphs — statement-level nodes, branch /
    loop / exception edges, per-node loop-nest depth, and dominators.
:mod:`.callgraph`
    A project-wide call graph over ``src/repro`` with name- and
    type-annotation-based call resolution, serializable for CI artifacts.
:mod:`.solver`
    A generic forward/backward worklist fixpoint solver over one CFG plus
    an interprocedural summary fixpoint over the call graph.
:mod:`.lockset` / :mod:`.pairing` / :mod:`.charges`
    The three analyses surfaced as the ``flow-lockset`` /
    ``flow-resource`` / ``flow-charge`` reprolint rules.

Everything here works on ASTs only — nothing is imported or executed, so
the analyses are safe to run on the planted-violation corpus and on
arbitrary edited trees.
"""

from __future__ import annotations

from .callgraph import ProjectIndex, build_project_index
from .cfg import CFGNode, FunctionCFG, build_cfg
from .charges import ChargeFinding, analyze_charges
from .lockset import LockFinding, LocksetResult, analyze_lockset
from .pairing import PairFinding, analyze_pairing
from .solver import interprocedural_fixpoint, solve_backward, solve_forward

__all__ = [
    "CFGNode",
    "ChargeFinding",
    "FunctionCFG",
    "LockFinding",
    "LocksetResult",
    "PairFinding",
    "ProjectIndex",
    "analyze_charges",
    "analyze_lockset",
    "analyze_pairing",
    "build_cfg",
    "build_project_index",
    "interprocedural_fixpoint",
    "solve_backward",
    "solve_forward",
]
