"""The Lemma 4.2 selection kernel on duplicate-heavy and mixed-type keys.

``take_smallest`` orders equal records by scan position without building
``(record, position)`` pairs, and a selection phase hands the next one its
boundary as ``(lo, skip)``: the last record emitted and how many records
equal to it are already out.  Two checks pin that down:

* a differential test of the kernel against a brute-force reference that
  sorts explicit ``(record, position)`` pairs, at every real phase boundary,
  comparing ``type()`` per record because ``==`` cannot tell ``1`` from
  ``1.0``;
* a parity grid of the vectorized ``selection_sort`` against the
  record-at-a-time ``slow_reference`` path: identical output blocks,
  identical counters and Lemma 4.2's exact read and write counts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AEMachine, MachineParams
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED, take_smallest
from repro.core.selection_sort import predicted_reads, predicted_writes, selection_sort

#: small key alphabets, so every draw is duplicate-heavy
ALPHABETS = {
    "ints": st.integers(min_value=-2, max_value=2),
    "floats": st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
    "mixed": st.sampled_from([1, 1.0, 2, 2.0, 0]),
    "strings": st.sampled_from(["", "a", "ab", "b"]),
}


def _typed(records):
    return [(type(r), r) for r in records]


class TestTakeSmallestDifferential:
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), B=st.integers(min_value=1, max_value=6),
           take=st.integers(min_value=1, max_value=12))
    def test_every_phase_matches_position_pairs(self, alphabet, data, B, take):
        records = data.draw(st.lists(ALPHABETS[alphabet], max_size=60))
        blocks = [records[i:i + B] for i in range(0, len(records), B)]
        pairs = sorted((rec, pos) for pos, rec in enumerate(records))
        for emitted in range(0, len(records), take):
            if emitted:
                lo = pairs[emitted - 1][0]
                skip = sum(1 for rec, _ in pairs[:emitted] if rec == lo)
            else:
                lo, skip = None, 0
            expected = [rec for rec, _ in pairs[emitted:emitted + take]]
            got = take_smallest(blocks, take, lo, skip)
            assert _typed(got) == _typed(expected), (emitted, lo, skip)

    def test_skip_running_out_mid_window(self):
        # four 1s in one block, two already out: the kernel must keep the
        # last two, the 1.0 among them, in scan order
        blocks = [[1, 2, 1, 1.0], [0, 1, 3]]
        got = take_smallest(blocks, 4, lo=1, skip=2)
        assert _typed(got) == _typed([1.0, 1, 2, 3])

    def test_unique_records_skip_one_is_strict(self):
        blocks = [[5, 3, 9], [1, 7]]
        assert take_smallest(blocks, 2, lo=3, skip=1) == [5, 7]
        assert take_smallest(blocks, 2) == [1, 3]


# --------------------------------------------------------------------- #
# vectorized vs slow_reference selection_sort over the duplicate grid
# --------------------------------------------------------------------- #
MACHINES = (
    MachineParams(M=16, B=4, omega=4),
    MachineParams(M=64, B=8, omega=8),
    MachineParams(M=2048, B=32, omega=16),
)

#: k for the n = kM + 1 edge
K = 3


def _sizes(p):
    return sorted({0, 1, p.B, p.B + 1, p.M, p.M + 1, 2 * p.M, K * p.M + 1})


def _input(kind, n, M):
    rng = random.Random(n * 31 + M)
    if kind == "duplicate-heavy":
        return [rng.randrange(max(1, n // 8)) for _ in range(n)]
    if kind == "all-equal":
        return [7] * n
    if kind == "three-values":
        return [rng.choice((-1, 0, 1)) for _ in range(n)]
    if kind == "sorted":
        return list(range(n))
    if kind == "reverse":
        return list(range(n, 0, -1))
    # "straddle": a run of M + 3 equal keys from position M - 2, longer
    # than a phase, so it straddles a phase boundary of the output
    data = [rng.randrange(n) for _ in range(n)]
    for i in range(max(0, M - 2), min(n, 2 * M + 1)):
        data[i] = n // 2
    return data


KINDS = ("duplicate-heavy", "all-equal", "three-values", "sorted", "reverse", "straddle")


def _select(params, data, kernel):
    machine = AEMachine(params)
    out = selection_sort(machine, machine.from_list(data), kernel=kernel)
    return out, machine.counter.as_dict()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"M{p.M}-B{p.B}")
def test_selection_grid_matches_reference(params, kind):
    for n in _sizes(params):
        data = _input(kind, n, params.M)
        fast, fast_counts = _select(params, data, VECTORIZED)
        slow, slow_counts = _select(params, data, SLOW_REFERENCE)
        assert fast._blocks == slow._blocks, n
        assert fast_counts == slow_counts, n
        assert fast.peek_list() == sorted(data), n
        assert fast_counts["block_reads"] == predicted_reads(n, params.M, params.B), n
        assert fast_counts["block_writes"] == predicted_writes(n, params.B), n
