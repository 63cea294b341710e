"""The Lemma 4.1 merge kernels against each other, on runs built directly.

``_merge`` is the record-at-a-time reference: a queue of ``(key, run,
is_last)`` entries.  ``_merge_vectorized`` queues bare keys, keeps the block
boundaries in a separate list and holds back equal keys of later runs when
it drains.  On small machines, where capacity events (ejections, skips, the
phase-1 cut) happen in almost every round, both must write the same output
blocks and charge the same reads and writes, or raise the same exception.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aem_mergesort import (
    StrandingDetected,
    _merge,
    _merge_vectorized,
)
from repro.models import AEMachine, MachineParams, MemoryGuard


def _outcome(merge, M: int, B: int, runs: list) -> tuple:
    machine = AEMachine(MachineParams(M=M, B=B, omega=4))
    arrays = [machine.from_list(run) for run in runs]
    try:
        out = merge(machine, arrays, MemoryGuard())
    except StrandingDetected as exc:
        return ("raises", type(exc).__name__)
    assert out.peek_list() == sorted(x for run in runs for x in run)
    blocks = [list(block) for block in out._blocks]
    return (blocks, machine.counter.block_reads, machine.counter.block_writes)


@st.composite
def merge_inputs(draw):
    """A machine and up to 16 sorted runs of uneven length (partial last
    blocks, sometimes empty) over unique keys, keys that each occur once or
    twice, or a small range full of repeats."""
    M = draw(st.sampled_from((4, 8, 16)))
    B = draw(st.sampled_from((2, 4)))
    mode = draw(st.sampled_from(("unique", "pairs", "small range")))
    rng = draw(st.randoms(use_true_random=True))
    lengths = [rng.randint(0, 6 * B + 1) for _ in range(rng.randint(1, 16))]
    total = sum(lengths)
    if mode == "unique":
        keys = rng.sample(range(4 * total + 1), total)
    elif mode == "pairs":
        keys = []
        while len(keys) < total:
            keys.extend([len(keys)] * rng.choice((1, 1, 2)))
        del keys[total:]
        rng.shuffle(keys)
    else:
        span = rng.randint(1, max(1, total // 2))
        keys = [rng.randrange(span) for _ in range(total)]
    runs = []
    pos = 0
    for length in lengths:
        runs.append(sorted(keys[pos : pos + length]))
        pos += length
    return M, B, runs


@given(merge_inputs())
@settings(max_examples=400, deadline=None)
def test_vectorized_merge_matches_reference(case):
    M, B, runs = case
    assert _outcome(_merge_vectorized, M, B, runs) == _outcome(_merge, M, B, runs)


FIXED_CASES = [
    (4, 2, [[]]),
    (4, 2, [[], []]),
    (4, 2, [[], [3]]),
    (4, 2, [[1, 2, 3]]),
    # Equal keys in different runs, on inputs that sort: when the reference
    # drains a block boundary ``(b, run i)`` it leaves the copies of ``b``
    # from runs after ``i`` queued, and the queue's fill decides later
    # capacity events.  A kernel that drained every copy of ``b`` charges
    # different reads on these.
    (4, 4, [[0, 1, 2, 4, 6, 7, 7, 9], [3, 4]]),
    (4, 2, [[0, 4, 6, 7], [7, 9], [3, 4], [0, 2, 10]]),
]


@pytest.mark.parametrize("M, B, runs", FIXED_CASES)
def test_fixed_inputs(M, B, runs):
    expected = _outcome(_merge, M, B, runs)
    assert expected[0] != "raises"
    assert _outcome(_merge_vectorized, M, B, runs) == expected
