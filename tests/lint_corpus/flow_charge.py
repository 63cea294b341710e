# reprolint: path=src/repro/core/corpus_flow_charge.py
"""Planted violations: flow-charge (3 findings).

One per check beyond a direct per-record charge in a loop (that case is
``flow_charge_direct.py``'s): an uncharged manual block loop (C3), a
charge that textually precedes the loop but does not *dominate* it (C3,
the branch case), and a per-record helper reached through a call edge
(C2 — the helper indirection no syntactic check can see).
``aem_mergesort`` shares its name with a contracted entry symbol so every
helper is charge-map-reachable and orphan-charge stays silent here.
"""

SLOW_REFERENCE = "slow_reference"


def aem_mergesort(machine, arr, mode):
    # entry-symbol name: seeds charge-map reachability for the helpers
    unaccounted_loop(machine, arr)
    accounted_loop(machine, arr)
    branch_charged_loop(machine, arr, mode)
    drives_helper(machine, arr)
    slow_probe(machine, arr, mode)
    waived_loop(machine, arr)
    return _bump(machine)


def block_checksum(machine, bi):
    # metadata arithmetic only — never charges, never does I/O itself
    return (bi * 2654435761) % 1024


def unaccounted_loop(machine, arr):
    total = 0
    # VIOLATION (flow-charge C3): block loop, no self-charging primitive
    # in the body, and no dominating aggregate charge anywhere
    for bi in range(arr.num_blocks):
        total += block_checksum(machine, bi)
    return total


def accounted_loop(machine, arr):
    # OK: aggregate charge at the same loop depth dominates the loop
    machine.counter.charge_reads(arr.num_blocks)
    total = 0
    for bi in range(arr.num_blocks):
        total += block_checksum(machine, bi)
    return total


def branch_charged_loop(machine, arr, mode):
    if mode == "eager":
        machine.counter.charge_reads(arr.num_blocks)
    total = 0
    # VIOLATION (flow-charge C3): the charge above covers only one
    # branch — textual precedence is not dominance
    for bi in range(arr.num_blocks):
        total += block_checksum(machine, bi)
    return total


def _bump(machine):
    # bare single-record charge on the straight-line path: calling this
    # once is one record, calling it from a loop multiplies the charge
    machine.counter.charge_read()
    return machine.counter


def drives_helper(machine, arr):
    machine.counter.charge_reads(arr.num_blocks)
    for bi in range(arr.num_blocks):
        # VIOLATION (flow-charge C2): reaches a bare charge through the
        # helper — invisible to a syntactic check
        _bump(machine)


def slow_probe(machine, arr, mode):
    if mode == SLOW_REFERENCE:
        # OK: the slow path is the oracle, deliberately uncharged
        for bi in range(arr.num_blocks):
            block_checksum(machine, bi)


def waived_loop(machine, arr):
    for bi in range(arr.num_blocks):  # reprolint: disable=flow-charge
        block_checksum(machine, bi)
