"""The Lemma 4.2 selection kernel on duplicate-heavy, mixed-type and NaN keys.

The vectorized phases sort the read-only input once with the stable
``list.sort()`` and write one ``M``-record slice per phase, so equal records
leave in scan order without ``(record, position)`` pairs, while every phase
still makes and is charged for its scan.  The checks:

* a differential test of ``selection_sort`` against a brute-force reference
  that sorts explicit ``(record, position)`` pairs, on machines small enough
  for many phases, comparing ``type()`` per record because ``==`` cannot
  tell ``1`` from ``1.0``;
* a parity grid of the vectorized ``selection_sort`` against the
  record-at-a-time ``slow_reference`` path: identical output blocks,
  identical counters and Lemma 4.2's exact read and write counts;
* every phase's scan is made and consumed, in ``selection_phases`` and in
  the buffer tree's prefix sort;
* an input holding a NaN sorts to ``sorted(data)``, object for object.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AEMachine, MachineParams
from repro.core.buffer_tree import _external_prefix_sort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.analysis.formulas import selection_sort_reads as predicted_reads
from repro.analysis.formulas import selection_sort_writes as predicted_writes
from repro.core.selection_sort import selection_phases, selection_sort

#: small key alphabets, so every draw is duplicate-heavy
ALPHABETS = {
    "ints": st.integers(min_value=-2, max_value=2),
    "floats": st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
    "mixed": st.sampled_from([1, 1.0, 2, 2.0, 0]),
    "strings": st.sampled_from(["", "a", "ab", "b"]),
}


def _typed(records):
    return [(type(r), r) for r in records]


def _select(params, data, kernel=VECTORIZED):
    machine = AEMachine(params)
    out = selection_sort(machine, machine.from_list(data), kernel=kernel)
    return out, machine.counter.as_dict()


class TestSelectionDifferential:
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), B=st.integers(min_value=1, max_value=4),
           blocks_in_memory=st.integers(min_value=1, max_value=3))
    def test_every_phase_matches_pairs(self, alphabet, data, B, blocks_in_memory):
        records = data.draw(st.lists(ALPHABETS[alphabet], max_size=60))
        params = MachineParams(M=B * blocks_in_memory, B=B, omega=4)
        expected = [rec for rec, _ in sorted(
            (rec, pos) for pos, rec in enumerate(records))]
        blocks = _select(params, records)[0]._blocks
        got = [rec for block in blocks for rec in block]
        assert _typed(got) == _typed(expected)
        # each phase's slice, block for block
        assert blocks == [expected[i:i + B] for i in range(0, len(expected), B)]

    def test_duplicates_straddling_phases(self):
        # four 1s, the 1.0 third among them in scan order; with M = 2 the
        # run spans three phases, so two boundaries fall inside it
        data = [1, 2, 1, 1.0, 0, 1, 3]
        blocks = _select(MachineParams(M=2, B=2, omega=4), data)[0]._blocks
        assert [_typed(block) for block in blocks] == [
            _typed([0, 1]), _typed([1, 1.0]), _typed([1, 2]), _typed([3])]

    def test_unique_records_one_slice_per_phase(self):
        blocks = _select(MachineParams(M=2, B=2, omega=4), [5, 3, 9, 1, 7])[0]._blocks
        assert blocks == [[1, 3], [5, 7], [9]]


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


# --------------------------------------------------------------------- #
# many phases: each phase's scan is made, charged and consumed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ("duplicate-heavy", "straddle", "reverse"))
@pytest.mark.parametrize("params", MACHINES[:2], ids=lambda p: f"M{p.M}-B{p.B}")
def test_many_phases_match_reference(params, kind):
    n = 40 * params.M + 3
    data = _input(kind, n, params.M)
    fast, fast_counts = _select(params, data, VECTORIZED)
    slow, slow_counts = _select(params, data, SLOW_REFERENCE)
    assert fast._blocks == slow._blocks
    assert fast_counts == slow_counts
    assert fast_counts["block_reads"] == math.ceil(n / params.M) * math.ceil(n / params.B)


class _RecordingWriter:
    def __init__(self):
        self.batches = []

    def extend(self, records):
        self.batches.append(list(records))


@pytest.mark.parametrize("n, M", [(1, 4), (4, 4), (5, 4), (13, 4), (40, 8)])
def test_selection_phases_scans_once_per_phase_to_the_end(n, M):
    data = random.Random(n).sample(range(10 * n), n)
    blocks = [data[i:i + 3] for i in range(0, n, 3)]
    scans = []

    def scan():
        scans.append(0)
        for block in blocks:
            scans[-1] += 1
            yield block

    out = _RecordingWriter()
    selection_phases(scan, n, M, out)
    assert scans == [len(blocks)] * math.ceil(n / M)
    assert out.batches == [sorted(data)[i:i + M] for i in range(0, n, M)]


def test_prefix_sort_over_three_phases_matches_reference():
    """The buffer tree's prefix sort: a prefix of 3M + 5 records with a
    duplicate run across its phase boundaries, more records past it."""
    params = MachineParams(M=16, B=4, omega=4)
    prefix_len = 3 * params.M + 5
    data = _input("straddle", prefix_len + 22, params.M)
    results = {}
    for kernel in (VECTORIZED, SLOW_REFERENCE):
        machine = AEMachine(params)
        buf = machine.from_list(data)
        out = _external_prefix_sort(machine, buf, prefix_len, kernel)
        results[kernel] = (out._blocks, machine.counter.as_dict())
    assert results[VECTORIZED] == results[SLOW_REFERENCE]
    blocks, counts = results[VECTORIZED]
    assert [rec for block in blocks for rec in block] == sorted(data[:prefix_len])
    covering = math.ceil(prefix_len / params.B)
    assert counts["block_reads"] == math.ceil(prefix_len / params.M) * covering


# --------------------------------------------------------------------- #
# NaN: the one sort of the scan is sorted(data), object for object
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("where", ("first", "inside", "last"))
@pytest.mark.parametrize("n", (61, 2000), ids=("one-phase", "many-phases"))
def test_nan_input_sorts_like_sorted(n, where):
    params = MachineParams(M=64, B=8, omega=4)
    data = [float(x) for x in random.Random(n).sample(range(10 * n), n - 1)]
    at = {"first": 0, "inside": n // 2, "last": n - 1}[where]
    data.insert(at, math.nan)
    out = _select(params, data)[0].peek_list()
    expected = sorted(data)
    assert len(out) == len(expected)
    assert all(a is b for a, b in zip(out, expected))
