"""Runtime sanitizers: iosan (uncharged-I/O cross-checks, sealed views,
negative-charge validation) and locksan (lock-order recording)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from repro.analysis import iosan, locksan
from repro.core.aem_heapsort import aem_heapsort
from repro.core.aem_mergesort import aem_mergesort
from repro.core.buffer_tree import BufferTree
from repro.models import AEMachine, CostCounter, MachineParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DATA = __import__("random").Random(7).sample(range(2000), 500)


@pytest.fixture
def iosan_on():
    was = iosan.iosan_enabled()
    iosan.enable()
    yield
    if not was:
        iosan.disable()


@pytest.fixture
def locksan_on():
    was = locksan.locksan_enabled()
    locksan.enable()
    locksan.reset()
    yield
    locksan.reset()
    if not was:
        locksan.disable()


class TestIosanCharges:
    def test_negative_single_charge_raises_under_iosan(self, iosan_on):
        c = CostCounter()
        with pytest.raises(iosan.UnchargedIOError):
            c.charge_block_read(-1)
        with pytest.raises(iosan.UnchargedIOError):
            c.charge_block_write(-3)

    def test_negative_single_charge_silent_when_disabled(self):
        # the documented validation asymmetry: the hot path stays
        # branch-free, iosan closes the hole at test time
        assert not iosan.iosan_enabled()
        c = CostCounter()
        c.charge_block_read(-1)
        assert c.block_reads == -1

    def test_batch_charges_validate_regardless(self):
        c = CostCounter()
        with pytest.raises(ValueError):
            c.charge_reads(-1)
        with pytest.raises(ValueError):
            c.charge_writes(-1)

    def test_positive_single_charges_still_work(self, iosan_on):
        c = CostCounter()
        c.charge_block_read()
        c.charge_block_write(2)
        assert (c.block_reads, c.block_writes) == (1, 2)


class TestSealedBlocks:
    def test_read_block_no_copy_returns_sealed_view(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        blk = machine.read_block(arr, 0, copy=False)
        assert isinstance(blk, iosan.SealedBlock)
        assert list(blk) == DATA[: params.B]  # reads fine
        with pytest.raises(iosan.UnchargedIOError):
            blk[0] = 99
        with pytest.raises(iosan.UnchargedIOError):
            blk.append(1)
        with pytest.raises(iosan.UnchargedIOError):
            blk.sort()
        # the underlying storage was never corrupted
        assert machine.read_block(arr, 0) == DATA[: params.B]

    def test_sealed_slices_are_plain_lists(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        blk = machine.read_block(arr, 0, copy=False)
        assert type(blk[1:3]) is list

    def test_copying_read_stays_mutable(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        blk = machine.read_block(arr, 0)
        blk[0] = -1  # a private copy — mutating it is legitimate
        assert machine.read_block(arr, 0)[0] == DATA[0]

    def test_scan_blocks_seals_yields(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        for blk in machine.scan_blocks(arr):
            with pytest.raises(iosan.UnchargedIOError):
                blk.clear()
            break


@pytest.fixture
def iosan_over(monkeypatch):
    """``install(name, fn)`` patches an AEMachine method, then enables
    iosan so its wrapper cross-checks the patched version."""
    was = iosan.iosan_enabled()
    iosan.disable()

    def install(name, fn):
        monkeypatch.setattr(AEMachine, name, fn)
        iosan.enable()

    yield install
    iosan.disable()
    monkeypatch.undo()
    if was:
        iosan.enable()


class TestIosanReadBlocks:
    def test_read_blocks_returns_sealed_views(self, iosan_on, params):
        machine = AEMachine(params)
        a = machine.from_list(DATA[:64])
        b = machine.from_list(DATA[64:80])
        blocks = machine.read_blocks([a, b], [3, 1])
        assert machine.counter.block_reads == 2
        assert all(isinstance(blk, iosan.SealedBlock) for blk in blocks)
        assert list(blocks[1]) == DATA[72:80]
        with pytest.raises(iosan.UnchargedIOError):
            blocks[0][0] = 99
        with pytest.raises(iosan.UnchargedIOError):
            blocks[1].sort()
        assert machine.read_block(a, 3) == DATA[24:32]

    @pytest.mark.parametrize("drift", [-1, 1])
    def test_wrong_charge_raises(self, iosan_over, params, drift):
        real = AEMachine.read_blocks

        def drifting(self, arrs, bis):
            blocks = real(self, arrs, bis)
            self.counter.block_reads += drift
            return blocks

        iosan_over("read_blocks", drifting)
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        with pytest.raises(iosan.UnchargedIOError, match="read_blocks"):
            machine.read_blocks([arr, arr], [0, 1])

    def test_mutating_the_returned_block_raises(self, iosan_over, params):
        real = AEMachine.read_blocks

        def mutating(self, arrs, bis):
            blocks = real(self, arrs, bis)
            blocks[0].append(-1)  # a record pushed into a live block
            return blocks

        iosan_over("read_blocks", mutating)
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        machine.read_blocks([arr], [0])
        with pytest.raises(iosan.UnchargedIOError, match="drift"):
            machine.read_blocks([arr], [1])

    def test_out_of_band_mutation_detected(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        other = machine.from_list(DATA[64:72])
        arr._blocks[2].pop()
        with pytest.raises(iosan.UnchargedIOError, match="drift"):
            machine.read_blocks([other, arr], [0, 0])


class TestIosanDrift:
    def test_out_of_band_mutation_detected(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        arr._blocks[0].append(12345)  # uncharged write, behind the counter
        with pytest.raises(iosan.UnchargedIOError, match="drift"):
            machine.read_block(arr, 0)

    def test_out_of_band_mutation_detected_on_scan(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        del arr._blocks[1][0]
        with pytest.raises(iosan.UnchargedIOError, match="drift"):
            next(machine.scan(arr))

    def test_clean_arrays_pass_the_audit(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64])
        assert list(machine.scan(arr)) == DATA[:64]


class TestIosanParity:
    """Sorts run unchanged under iosan: same output, same counters."""

    @pytest.mark.parametrize("kernel", ["vectorized", "slow_reference"])
    def test_mergesort_counters_identical(self, kernel, params):
        def run():
            machine = AEMachine(params)
            out = aem_mergesort(machine, machine.from_list(DATA), k=4,
                                kernel=kernel)
            return out.peek_list(), machine.counter.block_reads, \
                machine.counter.block_writes

        plain = run()
        with iosan.iosan():
            sanitized = run()
        assert plain == sanitized
        assert plain[0] == sorted(DATA)

    @pytest.mark.parametrize("kernel", ["vectorized", "slow_reference"])
    def test_heapsort_and_buffer_tree_run_clean(self, kernel, params):
        with iosan.iosan():
            machine = AEMachine(params)
            out = aem_heapsort(machine, machine.from_list(DATA), kernel=kernel)
            assert out.peek_list() == sorted(DATA)
            machine2 = AEMachine(params)
            tree = BufferTree(machine2, kernel=kernel)
            tree.insert_many(DATA)
            assert tree.drain_sorted() == sorted(DATA)

    def test_from_list_charged_mode_verified(self, iosan_on, params):
        machine = AEMachine(params)
        arr = machine.from_list(DATA[:64], charge=True)
        assert machine.counter.block_writes == arr.num_blocks


class TestIosanLifecycle:
    def test_enable_disable_idempotent(self):
        was = iosan.iosan_enabled()
        iosan.enable()
        iosan.enable()
        assert iosan.iosan_enabled()
        iosan.disable()
        iosan.disable()
        assert not iosan.iosan_enabled()
        if was:  # pragma: no cover - suite-level sanitizer run
            iosan.enable()

    def test_context_manager_restores(self):
        was = iosan.iosan_enabled()
        with iosan.iosan():
            assert iosan.iosan_enabled()
        assert iosan.iosan_enabled() == was


class TestLocksan:
    def test_wrap_is_identity_while_disabled(self):
        assert not locksan.locksan_enabled()
        lock = threading.Lock()
        assert locksan.wrap_lock(lock, "X") is lock
        cond = threading.Condition()
        assert locksan.wrap_condition(cond, "X") is cond

    def test_inversion_detected(self, locksan_on):
        a = locksan.wrap_lock(threading.Lock(), "A")
        b = locksan.wrap_lock(threading.Lock(), "B")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        for target in (forward, backward):
            t = threading.Thread(target=target)
            t.start()
            t.join()
        violations = locksan.violations()
        assert len(violations) == 1
        assert "inversion" in violations[0]
        assert "A" in violations[0] and "B" in violations[0]

    def test_consistent_order_is_clean(self, locksan_on):
        a = locksan.wrap_lock(threading.Lock(), "A")
        b = locksan.wrap_lock(threading.Lock(), "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert locksan.violations() == []

    def test_self_deadlock_raises(self, locksan_on):
        c = locksan.wrap_lock(threading.Lock(), "C")
        with pytest.raises(locksan.LockOrderError, match="self-deadlock"):
            with c:
                with c:
                    pass  # pragma: no cover - never reached

    def test_two_instances_of_one_class_are_not_an_inversion(self, locksan_on):
        # e.g. two SortFutures locked in either order — no class-level order
        f1 = locksan.wrap_lock(threading.Lock(), "SortFuture._cond")
        f2 = locksan.wrap_lock(threading.Lock(), "SortFuture._cond")
        with f1:
            with f2:
                pass
        with f2:
            with f1:
                pass
        assert locksan.violations() == []

    def test_condition_wait_releases_held_entry(self, locksan_on):
        cond = locksan.wrap_condition(threading.Condition(), "Svc._cond")
        other = locksan.wrap_lock(threading.Lock(), "Other")
        done = []

        def waiter():
            with cond:
                cond.wait_for(lambda: done)

        def poker():
            # takes Other then the condition: if wait() had kept the
            # condition on the waiter's held stack this would look fine,
            # but the waiter taking Other *after* waking must not invert
            with other:
                with cond:
                    done.append(1)
                    cond.notify_all()

        t = threading.Thread(target=waiter)
        t.start()
        p = threading.Thread(target=poker)
        p.start()
        p.join()
        t.join()
        assert locksan.violations() == []

    def test_reset_clears_graph(self, locksan_on):
        a = locksan.wrap_lock(threading.Lock(), "A")
        b = locksan.wrap_lock(threading.Lock(), "B")
        with a:
            with b:
                pass
        locksan.reset()
        # the reverse order alone is now NOT an inversion
        with b:
            with a:
                pass
        assert locksan.violations() == []


class TestEnvActivation:
    @pytest.mark.parametrize(
        "env_var, probe",
        [
            ("REPRO_IOSAN", "from repro.analysis import iosan; "
                            "raise SystemExit(0 if iosan.iosan_enabled() else 1)"),
            ("REPRO_LOCKSAN", "from repro.analysis import locksan; "
                              "raise SystemExit(0 if locksan.locksan_enabled() else 1)"),
        ],
    )
    def test_env_var_enables_at_import(self, env_var, probe):
        env = {**os.environ,
               "PYTHONPATH": os.path.join(REPO, "src"), env_var: "1"}
        proc = subprocess.run(
            [sys.executable, "-c", f"import repro; {probe}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_env_var_zero_means_off(self):
        env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src"),
               "REPRO_IOSAN": "0", "REPRO_LOCKSAN": "0"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro; from repro.analysis import iosan, locksan; "
             "raise SystemExit(0 if not iosan.iosan_enabled() "
             "and not locksan.locksan_enabled() else 1)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
