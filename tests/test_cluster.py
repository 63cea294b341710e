"""Cluster coordinator tests: scatter-gather, routing, host death.

The fast tests run against in-process :class:`EngineServer` instances (real
sockets, no subprocesses); the fault-tolerance tests spawn a genuine
:class:`LocalCluster` of ``python -m repro serve`` subprocesses and kill one
mid-flight.
"""

import bisect
import math
import random

import pytest

from repro import MachineParams, SortEngine
from repro.cluster import ClusterCoordinator, ClusterSpec, LocalCluster
from repro.cluster.coordinator import split_shards
from repro.planner import plan_cluster_shards, predict_shard_merge_io
from repro.service import EngineServer, SortService, WorkerDiedError
from repro.workloads import make_scenario, random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)


@pytest.fixture
def fleet():
    """Three in-process servers + a coordinator over them."""
    stack = []
    for _ in range(3):
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=2)
        server = EngineServer(service).start()
        stack.append((engine, service, server))
    coord = ClusterCoordinator(
        ClusterSpec(hosts=tuple(srv.address for _, _, srv in stack), connect_retries=20),
        PARAMS,
    )
    yield coord, stack
    coord.close()
    for engine, service, server in stack:
        server.close()
        service.shutdown(drain=False)
        engine.close()


class TestScatterGather:
    def test_sorts_and_bills_merge_exactly(self, fleet):
        coord, _ = fleet
        data = random_permutation(4_000, seed=1)
        rep = coord.sort(data, check_sorted=True)
        assert rep.output == sorted(data)
        assert rep.family == "cluster" and rep.granularity == "block"
        # the coordinator's counter is exactly the shardmerge kernel's
        # exact form at the realized shard sizes — nothing more, nothing less
        sizes = rep.extras["shard_sizes"]
        assert sum(sizes) == len(data)
        assert rep.reads == sum(math.ceil(s / PARAMS.B) for s in sizes if s)
        assert rep.writes == math.ceil(len(data) / PARAMS.B)
        # remote shard I/O is aggregated, not silently dropped
        assert rep.extras["remote_reads"] > 0
        assert rep.extras["remote_writes"] > 0
        assert rep.extras["retries"] == 0
        assert len(rep.extras["splitters"]) == rep.extras["hosts"] - 1

    def test_duplicate_scenario_input(self, fleet):
        # the repo's duplicates scenario (§2 tie-broken composite keys)
        coord, _ = fleet
        data = make_scenario("duplicates", 2_000, seed=2)
        rep = coord.sort(data)
        assert rep.output == sorted(data)

    def test_raw_duplicate_keys_at_selection_scale(self, fleet):
        # raw (untie-broken) duplicates are legal wherever the per-shard
        # planner routes to the Lemma 4.2 selection path, which accepts
        # them via position-index uniquification; duplicate splitters then
        # drive equal keys into one shard and leave others empty
        coord, _ = fleet
        rng = random.Random(2)
        data = [rng.randrange(6) for _ in range(600)]
        rep = coord.sort(data)
        assert rep.output == sorted(data)

    def test_empty_input(self, fleet):
        coord, _ = fleet
        rep = coord.sort([])
        assert rep.output == [] and rep.n == 0

    def test_parity_with_single_engine_auto_sort(self, fleet):
        coord, _ = fleet
        data = make_scenario("nearly-sorted", 3_000, seed=3)
        with SortEngine(PARAMS) as engine:
            ref = engine.sort(data)
        assert coord.sort(data).output == ref.output


class TestRouting:
    def test_small_jobs_sort_and_account(self, fleet):
        coord, _ = fleet
        datasets = [random_permutation(100 + 40 * i, seed=i) for i in range(12)]
        handles = [coord.submit(d) for d in datasets]
        results = coord.gather(handles)
        for res, d in zip(results, datasets):
            assert res["output"] == sorted(d)
        stats = coord.stats()
        assert stats["aggregate"]["routed_jobs"] == 12
        assert stats["aggregate"]["in_flight"] == 0
        assert stats["aggregate"]["live_hosts"] == 3
        assert len(stats["per_host"]) == 3
        # every result was gathered, so no host still holds a ticket
        assert all(h.get("tickets", 0) == 0 for h in stats["per_host"])


class TestEngineFacade:
    def test_engine_cluster_is_cached_and_closed(self, fleet):
        coord_unused, stack = fleet
        hosts = tuple(srv.address for _, _, srv in stack)
        engine = SortEngine(PARAMS)
        coord = engine.cluster(hosts)
        assert engine.cluster(hosts) is coord
        data = random_permutation(1_000, seed=4)
        assert coord.sort(data).output == sorted(data)
        engine.close()
        assert engine._clusters == {}


class TestClusterPlanning:
    def test_shard_plan_shapes(self):
        plan = plan_cluster_shards(10_001, 4, PARAMS)
        assert sum(plan.shard_sizes) == 10_001
        assert max(plan.shard_sizes) - min(plan.shard_sizes) <= 1
        assert plan.splitter_count == 3
        assert plan.sample_size == 4 * 32
        reads, writes = predict_shard_merge_io(10_001, PARAMS, 4)
        assert plan.predicted_merge_reads == reads
        assert plan.predicted_merge_writes == writes
        assert plan.predicted_merge_cost == reads + PARAMS.omega * writes

    def test_merge_io_floor(self):
        reads, writes = predict_shard_merge_io(4, PARAMS, 16)
        floor = math.ceil(4 / PARAMS.B)
        assert reads >= floor and writes == floor
        assert predict_shard_merge_io(0, PARAMS, 4) == (0.0, 0.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            plan_cluster_shards(10, 0, PARAMS)
        with pytest.raises(ValueError):
            ClusterSpec(hosts=())


def _bisect_shards(data, splitters, hosts):
    """The reference split: one ``bisect_right`` per record, in input order."""
    shards = [[] for _ in range(hosts)]
    for rec in data:
        shards[bisect.bisect_right(splitters, rec)].append(rec)
    return shards


def _typed(shards):
    # 1 and 1.0 compare equal: compare (record, type) pairs to pin each one
    return [[(rec, type(rec)) for rec in shard] for shard in shards]


class TestSplitShards:
    """``split_shards`` puts every record where ``bisect_right`` would,
    keeps input order inside each shard and returns one shard per host."""

    @pytest.mark.parametrize("hosts", range(1, 9))
    def test_matches_bisect_right(self, hosts):
        rng = random.Random(hosts)
        data = rng.sample(range(50_000), 2_000)
        splitters = sorted(rng.sample(data, hosts - 1))
        shards = split_shards(data, splitters, hosts)
        assert len(shards) == hosts
        assert shards == _bisect_shards(data, splitters, hosts)

    @pytest.mark.parametrize("hosts", (3, 5, 8))
    def test_duplicate_splitters(self, hosts):
        rng = random.Random(hosts)
        data = [rng.randrange(4) for _ in range(500)]
        splitters = [1, 1] + [2] * (hosts - 3)
        shards = split_shards(data, splitters, hosts)
        assert shards == _bisect_shards(data, splitters, hosts)
        assert any(not shard for shard in shards)

    @pytest.mark.parametrize("hosts", (2, 4, 7))
    def test_all_equal_input_leaves_shards_empty(self, hosts):
        data = [7] * 300
        splitters = [7] * (hosts - 1)
        shards = split_shards(data, splitters, hosts)
        assert shards == _bisect_shards(data, splitters, hosts)
        assert shards[-1] == data and not any(shards[:-1])

    @pytest.mark.parametrize("hosts", range(1, 9))
    def test_empty_input_one_shard_per_host(self, hosts):
        assert split_shards([], [], hosts) == [[] for _ in range(hosts)]

    @pytest.mark.parametrize("hosts", (2, 3, 4, 8))
    def test_mixed_int_and_float_equal_keys(self, hosts):
        rng = random.Random(hosts)
        data = [rng.choice((int, float))(rng.randrange(6)) for _ in range(400)]
        splitters = sorted(rng.choice((int, float))(rng.randrange(6))
                           for _ in range(hosts - 1))
        shards = split_shards(data, splitters, hosts)
        assert _typed(shards) == _typed(_bisect_shards(data, splitters, hosts))


class TestFaultTolerance:
    """Satellite: kill one of N live server subprocesses mid-scatter."""

    def test_host_kill_mid_scatter_completes_with_retry(self):
        with LocalCluster(3, workers=2, params=PARAMS) as servers:
            coord = servers.connect(retries=2)
            try:
                killed = []

                def hook(_coord):
                    servers.kill(0)
                    killed.append(0)

                coord._fault_hook = hook  # fires between scatter and gather
                data = random_permutation(20_000, seed=11)
                rep = coord.sort(data, check_sorted=True)
                assert killed == [0]
                assert rep.output == sorted(data)
                # the dead host's shard was rebalanced onto a survivor
                assert rep.extras["retries"] >= 1
                stats = coord.stats()
                assert stats["aggregate"]["live_hosts"] == 2
                assert stats["aggregate"]["retries"] >= 1
                assert stats["aggregate"]["rebalances"] >= 1
            finally:
                coord.close()

    def test_all_hosts_dead_raises_worker_died(self):
        with LocalCluster(1, workers=1, params=PARAMS) as servers:
            coord = servers.connect(retries=1)
            try:
                assert coord.sort([3, 1, 2]).output == [1, 2, 3]
                servers.kill(0)
                with pytest.raises(WorkerDiedError):
                    coord.sort(random_permutation(500, seed=5))
            finally:
                coord.close()

    def test_routed_job_survives_host_death(self):
        with LocalCluster(2, workers=1, params=PARAMS) as servers:
            coord = servers.connect(retries=2)
            try:
                data = random_permutation(2_000, seed=6)
                handle = coord.submit(data)
                servers.kill(handle.host_index)
                res = coord.result(handle)
                assert res["output"] == sorted(data)
                assert coord.stats()["aggregate"]["rebalances"] >= 1
            finally:
                coord.close()
