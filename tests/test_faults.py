"""The deterministic fault-injection harness: plans, seams, env activation."""

import threading

import pytest

from repro.testing import faults
from repro.testing.faults import FaultPlan, InjectedFault, plan_from_spec


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestFaultPlan:
    def test_same_seed_same_decision_sequence(self):
        a = FaultPlan(3, rates={"wire-drop": 0.3})
        b = FaultPlan(3, rates={"wire-drop": 0.3})
        decisions_a = [a.should_fire("wire-drop") for _ in range(200)]
        decisions_b = [b.should_fire("wire-drop") for _ in range(200)]
        assert decisions_a == decisions_b
        assert a.fired("wire-drop") == b.fired("wire-drop") > 0
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan(1, rates={"timeout": 0.5})
        b = FaultPlan(2, rates={"timeout": 0.5})
        assert [a.should_fire("timeout") for _ in range(64)] != [
            b.should_fire("timeout") for _ in range(64)
        ]

    def test_sites_are_independent_streams(self):
        plan = FaultPlan(0, rates={"wire-drop": 0.5, "timeout": 0.5})
        wire = [plan.should_fire("wire-drop") for _ in range(64)]
        solo = FaultPlan(0, rates={"wire-drop": 0.5})
        # interleaving another site's calls must not perturb this site
        assert wire == [solo.should_fire("wire-drop") for _ in range(64)]

    def test_rate_zero_never_fires_but_counts_calls(self):
        plan = FaultPlan(0, rates={"slow-host": 0.0})
        assert not any(plan.should_fire("slow-host") for _ in range(50))
        assert plan.calls("slow-host") == 50
        assert plan.fired() == 0

    def test_max_fires_caps_a_storm(self):
        plan = FaultPlan(0, rates={"wire-drop": 1.0}, max_fires=3)
        fires = sum(plan.should_fire("wire-drop") for _ in range(20))
        assert fires == 3
        assert plan.fired("wire-drop") == 3

    def test_check_raises_injected_fault(self):
        plan = FaultPlan(0, rates={"worker-death": 1.0})
        with pytest.raises(InjectedFault, match="worker-death.*pool 3"):
            plan.check("worker-death", "pool 3")

    def test_multiset_of_decisions_is_interleaving_independent(self):
        # threads race to consume one site's decision stream; which thread
        # sees which index varies, the total fire count cannot
        expected = FaultPlan(5, rates={"timeout": 0.4})
        for _ in range(120):
            expected.should_fire("timeout")
        plan = FaultPlan(5, rates={"timeout": 0.4})
        threads = [
            threading.Thread(
                target=lambda: [plan.should_fire("timeout") for _ in range(30)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert plan.fired("timeout") == expected.fired("timeout")

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault sites"):
            FaultPlan(0, rates={"martian-attack": 0.5})
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(0, rates={"timeout": 1.5})
        with pytest.raises(ValueError):
            FaultPlan(0, max_fires=-1)
        with pytest.raises(ValueError):
            FaultPlan(0, slow_seconds=-0.1)


class TestActivation:
    def test_inject_scopes_and_restores(self):
        outer = faults.activate(FaultPlan(1))
        with faults.inject(seed=2, rates={"timeout": 1.0}) as plan:
            assert faults.active() is plan
            assert faults.fire("timeout")
        assert faults.active() is outer

    def test_inject_rejects_plan_plus_kwargs(self):
        with pytest.raises(TypeError):
            with faults.inject(FaultPlan(0), seed=1):
                pass  # pragma: no cover

    def test_fire_without_plan_is_false(self):
        assert faults.active() is None
        assert not faults.fire("wire-drop")


class TestEnvSpec:
    def test_full_spec_round_trip(self):
        plan = plan_from_spec(
            "seed=7,wire-drop=0.25,worker-death=0.1,max-fires=3,slow-seconds=0.5"
        )
        assert plan.seed == 7
        assert plan.rates == {"wire-drop": 0.25, "worker-death": 0.1}
        assert plan.max_fires == 3
        assert plan.slow_seconds == 0.5

    def test_empty_chunks_tolerated(self):
        plan = plan_from_spec("seed=1, ,timeout=0.5,")
        assert plan.seed == 1 and plan.rates == {"timeout": 0.5}

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="want key=value"):
            plan_from_spec("seed")
        with pytest.raises(ValueError, match="unknown REPRO_FAULTS key"):
            plan_from_spec("volcano=0.5")
        with pytest.raises(ValueError, match="bad REPRO_FAULTS value"):
            plan_from_spec("seed=xyz")

    def test_env_drives_a_subprocess_plan(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        # the parent's environment (PYTHONDONTWRITEBYTECODE included) minus
        # any REPRO_* setting of this process, plus the plan under test
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=src, REPRO_FAULTS="seed=9,wire-drop=0.5")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.testing import faults;"
                "plan = faults.active();"
                "print(plan.seed, sorted(plan.rates.items()))",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == "9 [('wire-drop', 0.5)]"
