"""Unit tests for the AEM machine: transfers, streaming, structural ops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import AEMachine, MachineParams, MemoryBudgetExceeded, MemoryGuard
from repro.models.external_memory import BlockWriter


class TestTransfers:
    def test_from_list_partitions_into_blocks(self, machine):
        arr = machine.from_list(range(20))
        assert arr.length == 20
        assert arr.num_blocks == 3  # B=8: 8+8+4
        assert machine.counter.block_reads == 0  # loading input is free

    def test_from_list_charged_mode(self, machine):
        machine.from_list(range(20), charge=True)
        assert machine.counter.block_writes == 3

    def test_read_block_charges_and_copies(self, machine):
        arr = machine.from_list(range(16))
        blk = machine.read_block(arr, 0)
        assert blk == list(range(8))
        assert machine.counter.block_reads == 1
        blk[0] = 999  # mutating the copy must not touch secondary memory
        assert machine.read_block(arr, 0)[0] == 0

    def test_read_block_out_of_range(self, machine):
        arr = machine.from_list(range(8))
        with pytest.raises(IndexError):
            machine.read_block(arr, 5)

    def test_read_blocks_batches_the_charge(self, machine):
        a = machine.from_list(range(20))
        b = machine.from_list(range(100, 108))
        blocks = machine.read_blocks([a, b, a], [2, 0, 0])
        assert [list(blk) for blk in blocks] == [
            list(range(16, 20)), list(range(100, 108)), list(range(8))]
        assert machine.counter.block_reads == 3
        assert machine.read_blocks([], []) == []
        assert machine.counter.block_reads == 3

    def test_read_blocks_rejects_bad_indices(self, machine):
        arr = machine.from_list(range(8))
        for bis in ([1], [-1]):
            with pytest.raises(IndexError):
                machine.read_blocks([arr], bis)
        with pytest.raises(ValueError):
            machine.read_blocks([arr, arr], [0])
        assert machine.counter.block_reads == 0

    def test_write_block_appends(self, machine):
        arr = machine.allocate()
        machine.write_block(arr, 0, [1, 2, 3])
        assert arr.length == 3
        assert machine.counter.block_writes == 1

    def test_write_block_overwrites_in_place(self, machine):
        arr = machine.from_list(range(8))
        machine.write_block(arr, 0, [9] * 8)
        assert machine.read_block(arr, 0) == [9] * 8
        assert arr.length == 8

    def test_write_block_rejects_oversized(self, machine):
        arr = machine.allocate()
        with pytest.raises(ValueError, match="exceeds B"):
            machine.write_block(arr, 0, list(range(9)))

    def test_write_block_rejects_gap(self, machine):
        arr = machine.allocate()
        with pytest.raises(IndexError):
            machine.write_block(arr, 3, [1])

    def test_scan_charges_one_read_per_block(self, machine):
        arr = machine.from_list(range(20))
        assert list(machine.scan(arr)) == list(range(20))
        assert machine.counter.block_reads == 3


class TestReaderWriter:
    def test_block_writer_flushes_full_blocks(self, machine):
        writer = machine.writer()
        for i in range(8):
            writer.append(i)
        # a full block flushed eagerly
        assert machine.counter.block_writes == 1
        writer.append(8)
        arr = writer.close()
        assert machine.counter.block_writes == 2  # partial flushed at close
        assert arr.peek_list() == list(range(9))

    def test_block_writer_close_idempotent(self, machine):
        writer = machine.writer()
        writer.append(1)
        writer.close()
        writer.close()
        assert machine.counter.block_writes == 1

    def test_block_writer_rejects_append_after_close(self, machine):
        writer = machine.writer()
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(1)

    def test_block_writer_context_manager(self, machine):
        arr = machine.allocate()
        with BlockWriter(machine, arr) as w:
            w.extend(range(5))
        assert arr.peek_list() == list(range(5))

    def test_block_writer_no_flush_on_exception(self, machine):
        # exception path: the partial buffer must NOT be flushed (the model
        # charges a write only when a block transfer really happens), and the
        # writer stays open so the error is not silently papered over
        arr = machine.allocate()
        with pytest.raises(RuntimeError, match="boom"):
            with BlockWriter(machine, arr) as w:
                w.extend(range(5))  # < B: still buffered
                raise RuntimeError("boom")
        assert machine.counter.block_writes == 0
        assert arr.length == 0
        assert not w.closed

    def test_extend_cost_equivalent_to_append(self, machine):
        # block-level extend must charge exactly the same writes and produce
        # the same block layout as the record-at-a-time path
        data = list(range(45))
        w1 = machine.writer()
        w1.extend(data)
        a1 = w1.close()
        fresh = AEMachine(machine.params)
        w2 = fresh.writer()
        for rec in data:
            w2.append(rec)
        a2 = w2.close()
        assert machine.counter.block_writes == fresh.counter.block_writes
        assert a1._blocks == a2._blocks
        assert w1.written == w2.written == 45

    def test_extend_tops_up_partial_buffer(self, machine):
        w = machine.writer()
        w.append(0)
        w.extend(range(1, 20))  # crosses several block boundaries mid-buffer
        arr = w.close()
        assert arr.peek_list() == list(range(20))
        assert machine.counter.block_writes == 3

    def test_extend_after_close_rejected(self, machine):
        w = machine.writer()
        w.close()
        with pytest.raises(RuntimeError):
            w.extend([1, 2])

    def test_read_block_copy_false_is_read_only_view(self, machine):
        arr = machine.from_list(range(8))
        blk = machine.read_block(arr, 0, copy=False)
        assert blk == list(range(8))
        assert machine.counter.block_reads == 1

    @given(st.lists(st.integers(), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_writer_roundtrip_property(self, data):
        machine = AEMachine(MachineParams(M=16, B=4, omega=2))
        writer = machine.writer()
        writer.extend(data)
        arr = writer.close()
        assert arr.peek_list() == data
        assert arr.length == len(data)
        # exactly ceil(len/B) block writes
        assert machine.counter.block_writes == (len(data) + 3) // 4


class TestStructuralOps:
    def test_split_blocks_even(self, machine):
        arr = machine.from_list(range(32))  # 4 blocks
        parts = machine.split_blocks(arr, 2)
        assert [p.length for p in parts] == [16, 16]
        assert machine.counter.total_io() == 0  # renaming is free

    def test_split_blocks_ragged(self, machine):
        arr = machine.from_list(range(20))  # blocks of 8, 8, 4
        parts = machine.split_blocks(arr, 2)
        assert sum(p.length for p in parts) == 20

    def test_split_more_parts_than_blocks(self, machine):
        arr = machine.from_list(range(8))
        parts = machine.split_blocks(arr, 5)
        assert len(parts) == 1 and parts[0].length == 8

    def test_split_preserves_data(self, machine):
        arr = machine.from_list(range(40))
        parts = machine.split_blocks(arr, 3)
        flat = [x for p in parts for x in p.peek_list()]
        assert flat == list(range(40))

    def test_concat_free_and_order_preserving(self, machine):
        a = machine.from_list(range(10))
        b = machine.from_list(range(10, 15))
        out = machine.concat([a, b])
        assert out.peek_list() == list(range(15))
        assert machine.counter.total_io() == 0

    def test_concat_keeps_internal_partial_blocks(self, machine):
        a = machine.from_list(range(5))  # one partial block
        b = machine.from_list(range(5, 10))
        out = machine.concat([a, b])
        assert out.length == 10
        assert out.num_blocks == 2  # fragmentation is visible
        assert list(machine.scan(out)) == list(range(10))

    def test_logical_blocks_vs_physical_after_concat(self, machine):
        # B=8: three 5-record arrays -> 3 physical blocks, 2 logical
        parts = [machine.from_list(range(5 * i, 5 * i + 5)) for i in range(3)]
        out = machine.concat(parts)
        assert out.num_blocks == 3
        assert out.logical_blocks == 2  # ceil(15/8)

    def test_logical_blocks_fresh_array_matches_num_blocks(self, machine):
        for n in (0, 1, 8, 9, 20):
            arr = machine.from_list(range(n))
            assert arr.num_blocks == arr.logical_blocks


class TestMemoryGuard:
    def test_high_water_tracking(self):
        g = MemoryGuard()
        g.acquire(10)
        g.acquire(5)
        g.release(12)
        g.acquire(1)
        assert g.high_water == 15
        assert g.in_use == 4

    def test_strict_mode_raises(self):
        g = MemoryGuard(capacity=8, strict=True)
        g.acquire(8)
        with pytest.raises(MemoryBudgetExceeded):
            g.acquire(1)

    def test_non_strict_records_overrun(self):
        g = MemoryGuard(capacity=8)
        g.acquire(100)
        assert g.high_water == 100

    def test_over_release_rejected(self):
        g = MemoryGuard()
        g.acquire(1)
        with pytest.raises(ValueError):
            g.release(2)

    def test_failed_release_does_not_corrupt_state(self):
        # regression: validation happens before mutation, so a rejected
        # release leaves in_use exactly where it was
        g = MemoryGuard()
        g.acquire(5)
        with pytest.raises(ValueError):
            g.release(6)
        assert g.in_use == 5
        g.release(5)  # the legitimate release still balances
        assert g.in_use == 0

    def test_reset(self):
        g = MemoryGuard()
        g.acquire(10)
        g.reset()
        assert g.in_use == 0 and g.high_water == 0


class TestBlockGranularPrimitives:
    def test_scan_blocks_yields_blocks_with_batched_charge(self, machine):
        arr = machine.from_list(range(20))
        blocks = list(machine.scan_blocks(arr))
        assert [len(b) for b in blocks] == [8, 8, 4]
        assert [x for b in blocks for x in b] == list(range(20))
        assert machine.counter.block_reads == 3

    def test_scan_blocks_lazy_no_charge_until_iterated(self, machine):
        arr = machine.from_list(range(16))
        it = machine.scan_blocks(arr)
        assert machine.counter.block_reads == 0
        next(it)
        assert machine.counter.block_reads == 2  # whole scan charged up front

    def test_scan_blocks_matches_scan_charges(self, machine):
        arr = machine.from_list(range(45))
        list(machine.scan(arr))
        scan_reads = machine.counter.block_reads
        fresh = AEMachine(machine.params)
        list(fresh.scan_blocks(arr))
        assert fresh.counter.block_reads == scan_reads


class TestFragmentation:
    """Empty placeholder blocks (out-of-order ``_ensure_block``) must not be
    scanned or charged — the regression the block-kernel layer fixed."""

    def _fragmented(self, machine):
        arr = machine.from_list(range(16))  # 2 full blocks
        arr._ensure_block(4)  # placeholders at 2, 3, 4
        arr._blocks[4] = [16, 17]  # out-of-order write left 2 empty holes
        arr.length += 2
        return arr

    def test_scan_skips_empty_placeholder_blocks(self, machine):
        arr = self._fragmented(machine)
        assert list(machine.scan(arr)) == list(range(18))
        assert machine.counter.block_reads == 3  # not 5

    def test_scan_blocks_skips_empty_placeholder_blocks(self, machine):
        arr = self._fragmented(machine)
        blocks = list(machine.scan_blocks(arr))
        assert [len(b) for b in blocks] == [8, 8, 2]
        assert machine.counter.block_reads == 3
