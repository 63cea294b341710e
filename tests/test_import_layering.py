"""What importing ``repro`` loads.

``repro`` and its ``analysis``, ``datastructures``, ``models``, ``planner``
and ``service`` packages export their names lazily (PEP 562), and
``repro.core`` exports none, so a process imports, and with bytecode
caching off compiles, only the layers it runs.
Each check runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``,
because the test process itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.datastructures",
    "repro.models",
    "repro.planner",
    "repro.service",
)


def run_fresh(code: str, **env: str):
    """Run ``code`` in a fresh interpreter on this tree; return the JSON
    value it prints last."""
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child_env.update(PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", **env)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_sort_loads_no_service_cluster_experiment_or_tooling_module():
    loaded = run_fresh(
        "import json, random, sys\n"
        "from repro import MachineParams, SortEngine\n"
        "engine = SortEngine(MachineParams(M=64, B=8, omega=8))\n"
        "engine.plan(5000)\n"
        "data = random.Random(1).sample(range(10**6), 5000)\n"
        "assert engine.sort(data).output == sorted(data)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert "repro.engine" in loaded
    layers = {"repro.service", "repro.cluster", "repro.experiments", "repro.testing"}
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in layers] == []
    tooling = ("boundcheck", "iosan", "schema", "recurrences", "tables")
    assert [m for m in loaded if m.removeprefix("repro.analysis.") in tooling] == []
    # the lazy repro.datastructures loads only the trees the ram sorts use
    assert "repro.datastructures.write_efficient" not in loaded
    # repro.core exports nothing, so the cluster's kernels stay unloaded
    assert "repro.core.parallel_samplesort" not in loaded
    assert "repro.core.shard_merge" not in loaded


def test_importing_a_lazy_package_loads_none_of_its_submodules():
    packages = (*LAZY_PACKAGES, "repro.core")
    loaded = run_fresh(
        "import json, sys\n"
        f"for name in {packages!r}:\n"
        "    __import__(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert loaded == sorted(packages)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_to_its_defining_object(package):
    """Every ``__all__`` name resolves through ``getattr`` to the object its
    defining module holds (a submodule for module names) and is listed by
    ``dir()``; an unknown name raises ``AttributeError``."""
    report = run_fresh(
        "import importlib, json, sys, types\n"
        f"pkg = importlib.import_module({package!r})\n"
        "own = set(vars(pkg))\n"
        "bad = []\n"
        "for name in pkg.__all__:\n"
        "    value = getattr(pkg, name)\n"
        "    if name in own:\n"
        "        continue\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        ok = value is sys.modules[pkg.__name__ + '.' + name]\n"
        "    elif getattr(value, '__module__', None) in sys.modules:\n"
        "        ok = getattr(sys.modules[value.__module__], name, None) is value\n"
        "    else:\n"
        "        ok = any(vars(m).get(name) is value for n, m in list(sys.modules.items())\n"
        "                 if n.startswith(pkg.__name__ + '.'))\n"
        "    if not ok:\n"
        "        bad.append(name)\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({'bad': bad, 'undir': sorted(set(pkg.__all__) - set(dir(pkg))),\n"
        "                  'unknown': unknown}))"
    )
    assert report == {"bad": [], "undir": [], "unknown": "AttributeError"}


def test_star_import():
    names = run_fresh(
        "import json\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))"
    )
    assert names == sorted(repro.__all__)


def test_iosan_env_still_enables_at_import():
    state = run_fresh(
        "import json\n"
        "import repro\n"
        "from repro.analysis import iosan\n"
        "from repro.models import AEMachine, MachineParams\n"
        "machine = AEMachine(MachineParams(M=16, B=4, omega=4))\n"
        "block = machine.read_block(machine.from_list([3, 1, 2]), 0, copy=False)\n"
        "print(json.dumps([iosan.iosan_enabled(), isinstance(block, iosan.SealedBlock)]))",
        REPRO_IOSAN="1",
    )
    assert state == [True, True]


def test_locksan_env_still_records():
    state = run_fresh(
        "import json, threading\n"
        "import repro\n"
        "from repro.analysis import locksan\n"
        "from repro.models import external_memory\n"
        "outer = locksan.wrap_lock(threading.Lock(), 'outer')\n"
        "inner = locksan.wrap_lock(threading.Lock(), 'inner')\n"
        "with outer, inner:\n"
        "    pass\n"
        "print(json.dumps([locksan.locksan_enabled(),\n"
        "                  ('outer', 'inner') in locksan.order_graph(),\n"
        "                  isinstance(external_memory._PAUSE._lock, locksan.RecordingLock)]))",
        REPRO_LOCKSAN="1",
    )
    # the models load after the recorder is on, so the collector pause's
    # lock (made at import) is recorded too
    assert state == [True, True, True]
