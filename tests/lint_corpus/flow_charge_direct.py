# reprolint: path=src/repro/core/corpus_flow_charge_direct.py
"""Planted violations: flow-charge's direct case (4 findings), a single
charge made inside a kernel-path loop.  ``aem_mergesort`` below shares
its name with a contracted entry symbol so every helper here is
charge-map-reachable — orphan-charge (exercised by ``orphan_charge.py``)
must stay silent on this file's planted loops.
"""

SLOW_REFERENCE = "slow_reference"


def aem_mergesort(machine, arr):
    # entry-symbol name: seeds reachability for every helper below
    per_record_scan(machine, arr)
    per_record_emit(machine, list(arr))
    batched_scan(machine, arr)
    dual_kernel(machine, arr, SLOW_REFERENCE)
    fast_else_branch(machine, arr, SLOW_REFERENCE)
    fast_negated_guard(machine, arr, SLOW_REFERENCE)
    after_fast_return(machine, arr, SLOW_REFERENCE)
    _merge_slow_reference(machine, arr)
    waived(machine, arr)


def per_record_scan(machine, arr):
    for bi in range(arr.num_blocks):
        # VIOLATION: single charge per iteration on the kernel path
        machine.counter.charge_block_read()


def per_record_emit(machine, records):
    while records:
        records.pop()
        # VIOLATION: per-record write charge in a loop
        machine.counter.charge_write()


def batched_scan(machine, arr):
    # OK: the PR-5 batch API, charged once outside the loop
    machine.counter.charge_reads(arr.num_blocks)
    for bi in range(arr.num_blocks):
        pass


def dual_kernel(machine, arr, kernel):
    if kernel == SLOW_REFERENCE:
        # OK: deliberate record-at-a-time path, I/O-identical by contract
        for bi in range(arr.num_blocks):
            machine.counter.charge_block_read()
    else:
        machine.counter.charge_reads(arr.num_blocks)


def fast_else_branch(machine, arr, kernel):
    if kernel == SLOW_REFERENCE:
        machine.counter.charge_reads(arr.num_blocks)
    else:
        for bi in range(arr.num_blocks):
            # VIOLATION: the else branch is the vectorized path
            machine.counter.charge_block_read()


def fast_negated_guard(machine, arr, kernel):
    if kernel != SLOW_REFERENCE:
        for bi in range(arr.num_blocks):
            # VIOLATION: the body of a `!=` guard is the vectorized path
            machine.counter.charge_block_read()


def after_fast_return(machine, arr, kernel):
    if kernel != SLOW_REFERENCE:
        machine.counter.charge_reads(arr.num_blocks)
        return
    # OK: after the fast path returns, only the reference runs
    for bi in range(arr.num_blocks):
        machine.counter.charge_block_read()


def _merge_slow_reference(machine, arr):
    # OK: slow-kernel function by naming convention
    for bi in range(arr.num_blocks):
        machine.counter.charge_block_read()


def waived(machine, arr):
    for bi in range(arr.num_blocks):
        machine.counter.charge_block_read()  # reprolint: disable=flow-charge
