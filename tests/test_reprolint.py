"""reprolint: framework behaviour, every rule proven on the planted
corpus, and the repaired tree held at zero findings."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.analysis import lint_rules  # noqa: F401 — populates RULES
from repro.analysis import reprolint
from repro.analysis.reprolint import (
    RULES,
    Finding,
    LintContext,
    ModuleSource,
    filter_baseline,
    iter_python_files,
    lint_paths,
    load_baseline,
    main,
    save_baseline,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "tests", "lint_corpus")


def lint_corpus_file(name: str) -> list[Finding]:
    return lint_paths([os.path.join(CORPUS, name)], root=REPO)


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


class TestFramework:
    def test_all_rules_registered(self):
        assert set(RULES) == {
            "uncharged-io",
            "loop-charge",
            "lock-discipline",
            "kernel-parity",
            "missing-cost-contract",
            "orphan-charge",
            "bench-emit",
            "flow-lockset",
            "flow-resource",
            "flow-charge",
        }

    def test_virtual_path_pragma(self):
        m = ModuleSource(
            "tests/lint_corpus/x.py",
            "# reprolint: path=src/repro/core/fake.py\n",
        )
        assert m.virtual_path == "src/repro/core/fake.py"

    def test_virtual_path_defaults_to_real(self):
        m = ModuleSource("src/repro/core/real.py", "x = 1\n")
        assert m.virtual_path == "src/repro/core/real.py"

    def test_suppression_named_and_blanket(self):
        m = ModuleSource(
            "f.py",
            "a = 1  # reprolint: disable=uncharged-io\n"
            "b = 2  # reprolint: disable\n"
            "c = 3\n",
        )
        assert m.suppressed("uncharged-io", 1)
        assert not m.suppressed("loop-charge", 1)
        assert m.suppressed("anything", 2)
        assert not m.suppressed("uncharged-io", 3)

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "note.txt").write_text("not python\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert [os.path.basename(f) for f in files] == ["a.py"]

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(KeyError):
            lint_paths([CORPUS], root=REPO, rules=["no-such-rule"])

    def test_empty_root(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        findings = lint_paths([str(tmp_path / "empty")], root=str(tmp_path))
        assert findings == []
        rc = main([str(tmp_path / "empty"), "--root", str(tmp_path)])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_relint_sees_an_edited_callee(self, tmp_path, capsys):
        # the flow rules read the whole project, so an edit to a module
        # outside the linted file's layer must change that file's findings
        svc = tmp_path / "src" / "repro" / "service" / "svc.py"
        util = tmp_path / "src" / "repro" / "models" / "util.py"
        svc.parent.mkdir(parents=True)
        util.parent.mkdir(parents=True)
        svc.write_text(
            "import threading\n"
            "\n"
            "from repro.models.util import helper\n"
            "\n"
            "\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            return helper()\n"
        )
        util.write_text("def helper():\n    return 0\n")
        argv = [str(tmp_path / "src"), "--root", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()

        util.write_text("import time\n\n\ndef helper():\n    time.sleep(0)\n")
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "reprolint: 1 finding"
        assert lines[0].startswith("src/repro/service/svc.py:12:")
        assert ": flow-lockset: " in lines[0]
        # linting writes nothing: no findings cache or other state file
        written = sorted(
            p.relative_to(tmp_path).as_posix()
            for p in tmp_path.rglob("*")
            if p.is_file()
        )
        assert written == ["src/repro/models/util.py", "src/repro/service/svc.py"]


class TestCorpus:
    def test_uncharged_io_fires(self):
        findings = lint_corpus_file("uncharged_io.py")
        assert rules_of(findings) == ["uncharged-io"] * 2
        assert {"_blocks", "_memory"} == {
            "_memory" if "_memory" in f.message else "_blocks" for f in findings
        }

    def test_loop_charge_fires_and_exempts_slow_paths(self):
        findings = lint_corpus_file("loop_charge.py")
        assert rules_of(findings) == ["loop-charge"] * 2
        # the SLOW_REFERENCE branch and the *_slow_reference function hold
        # identical loops that must NOT fire
        assert all("charge_block_read" in f.message or "charge_write" in f.message
                   for f in findings)

    def test_lock_discipline_fires(self):
        # the blocking call under the lock is flow-lockset's finding; the
        # two unlocked writes are lock-discipline's
        findings = lint_corpus_file("lock_discipline.py")
        assert sorted(rules_of(findings)) == [
            "flow-lockset", "lock-discipline", "lock-discipline",
        ]
        messages = " | ".join(f.message for f in findings)
        assert "self.jobs" in messages
        assert "self.slots" in messages
        assert "result(...)" in messages

    def test_kernel_parity_fires(self):
        findings = lint_corpus_file("kernel_parity.py")
        assert rules_of(findings) == ["kernel-parity"] * 5
        messages = " | ".join(f.message for f in findings)
        assert "phantom_sort" in messages
        assert "slow_reference=" in messages
        assert "string literal" in messages
        assert "module:symbol" in messages

    def test_missing_cost_contract_fires(self):
        findings = lint_corpus_file("missing_contract.py")
        assert rules_of(findings) == ["missing-cost-contract"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "contractless" in messages
        assert "string literal" in messages
        assert "phantomsort" in messages
        # the mismatch finding names both the given and the declared label
        assert "Theorem 4.5" in messages and "Theorem 4.3" in messages

    def test_orphan_charge_fires_and_exempts_element_charges(self):
        findings = lint_corpus_file("orphan_charge.py")
        assert rules_of(findings) == ["orphan-charge"] * 2
        messages = " | ".join(f.message for f in findings)
        assert "_orphan_helper" in messages
        assert "charge_block_read" in messages
        assert "charge_writes" in messages
        # the element-granularity charge and the reached helper stay silent
        assert "_elementwise_bookkeeping" not in messages
        assert "_reached_helper" not in messages

    def test_bench_emit_fires(self):
        findings = lint_corpus_file("bench_emit.py")
        assert rules_of(findings) == ["bench-emit"]
        assert "bench_silent_scenario" in findings[0].message

    def test_flow_lockset_fires(self):
        findings = lint_corpus_file("flow_lockset.py")
        assert sorted(rules_of(findings)) == [
            "flow-lockset", "flow-lockset", "flow-lockset", "flow-resource",
        ]
        messages = " | ".join(f.message for f in findings)
        # lock-order cycle spread across two methods
        assert "lock-order cycle" in messages
        assert "CycleProne._a" in messages and "CycleProne._b" in messages
        # blocking reached through a helper — the old rule's blind spot
        assert "helper indirection" in messages
        assert "_drain_one" in messages
        # direct blocking under the lock
        assert "sleep(...)" in messages
        # the suppressed deliberate_wait sleep must NOT fire
        assert sum("sleep" in f.message for f in findings) == 1
        # the discarded registry ticket rides along under flow-resource
        assert "ticket" in messages

    def test_flow_resource_fires(self):
        findings = lint_corpus_file("flow_resource.py")
        assert rules_of(findings) == ["flow-resource"] * 5
        messages = [f.message for f in findings]
        assert sum("exception path" in m and "normal" not in m for m in messages) == 1
        assert sum("both normal and exception paths" in m for m in messages) == 1
        assert sum("without `.close()`" in m for m in messages) == 1
        assert sum("escapes by" in m for m in messages) == 2
        # try/finally, close-on-exit, escape-as-transfer, copies, yields and
        # the suppressed deliberate leak all stay silent
        assert {f.line for f in findings} == {12, 21, 49, 73, 81}

    def test_flow_charge_fires(self):
        findings = lint_corpus_file("flow_charge.py")
        assert rules_of(findings) == ["flow-charge"] * 3
        messages = " | ".join(f.message for f in findings)
        # C3: plain uncharged block loop + the branch-charge dominance case
        assert sum("block loop over `.num_blocks`" in f.message
                   for f in findings) == 2
        # C2: the per-record helper reached through a call edge
        assert "_bump" in messages and "loop depth 1" in messages
        # dominated, slow-exempt and waived loops all stay silent
        assert {f.line for f in findings} == {36, 56, 73}

    def test_clean_file_is_clean(self):
        assert lint_corpus_file("clean.py") == []

    def test_findings_carry_virtual_paths(self):
        findings = lint_corpus_file("uncharged_io.py")
        assert all(f.path.startswith("src/repro/core/") for f in findings)


class TestRepairedTree:
    def test_src_and_benchmarks_are_clean(self):
        findings = lint_paths(
            [os.path.join(REPO, "src"), os.path.join(REPO, "benchmarks")],
            root=REPO,
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(os.path.join(REPO, "tests", "lint_baseline.json"))
        assert baseline == []


class TestBaseline:
    def test_round_trip_filters_everything(self, tmp_path):
        findings = lint_corpus_file("lock_discipline.py")
        assert findings
        path = tmp_path / "baseline.json"
        save_baseline(str(path), findings)
        assert filter_baseline(findings, load_baseline(str(path))) == []

    def test_new_findings_survive_the_filter(self, tmp_path):
        findings = lint_corpus_file("lock_discipline.py")
        path = tmp_path / "baseline.json"
        save_baseline(str(path), findings[:-1])
        remaining = filter_baseline(findings, load_baseline(str(path)))
        assert remaining == [findings[-1]]

    def test_fingerprint_ignores_line_drift(self):
        f = Finding("r", "p.py", 10, 0, "msg")
        g = Finding("r", "p.py", 99, 4, "msg")
        assert f.fingerprint == g.fingerprint
        assert filter_baseline([g], [f.to_dict()]) == []


BENCH_VIOLATION = (
    "# reprolint: path=benchmarks/bench_planted.py\n"
    "def bench_planted_scenario():\n"
    "    return 1\n"
)


class TestSuppressionEdgeCases:
    def test_multiple_rules_one_comment(self):
        m = ModuleSource(
            "f.py",
            "a = 1  # reprolint: disable=uncharged-io,loop-charge\n",
        )
        assert m.suppressed("uncharged-io", 1)
        assert m.suppressed("loop-charge", 1)
        assert not m.suppressed("lock-discipline", 1)

    def test_multiple_rules_tolerate_spaces(self):
        m = ModuleSource(
            "f.py",
            "a = 1  # reprolint: disable=bench-emit, orphan-charge\n",
        )
        assert m.suppressed("bench-emit", 1)
        assert m.suppressed("orphan-charge", 1)

    def test_pragma_on_decorated_def(self, tmp_path):
        # the finding anchors to the `def` line, not the decorator line,
        # so that's where the suppression comment must hold
        path = tmp_path / "bench_decorated.py"
        path.write_text(
            "# reprolint: path=benchmarks/bench_decorated.py\n"
            "import functools\n"
            "\n"
            "\n"
            "def _passthrough(fn):\n"
            "    return fn\n"
            "\n"
            "\n"
            "@_passthrough\n"
            "def bench_decorated_scenario():  # reprolint: disable=bench-emit\n"
            "    return 1\n"
            "\n"
            "\n"
            "@_passthrough\n"
            "def bench_unsuppressed_scenario():\n"
            "    return 1\n"
        )
        findings = lint_paths([str(path)], root=str(tmp_path),
                              rules=["bench-emit"])
        assert rules_of(findings) == ["bench-emit"]
        assert "bench_unsuppressed_scenario" in findings[0].message

    def test_baseline_stable_under_file_rename(self, tmp_path):
        # fingerprints key off the virtual path, so physically renaming a
        # pragma'd file must not resurrect grandfathered findings
        old = tmp_path / "bench_old_name.py"
        old.write_text(BENCH_VIOLATION)
        before = lint_paths([str(old)], root=str(tmp_path))
        assert before
        baseline = tmp_path / "baseline.json"
        save_baseline(str(baseline), before)

        new = tmp_path / "bench_new_name.py"
        os.rename(old, new)
        after = lint_paths([str(new)], root=str(tmp_path))
        assert [f.fingerprint for f in after] == [f.fingerprint for f in before]
        assert filter_baseline(after, load_baseline(str(baseline))) == []


@pytest.fixture(scope="class")
def memoized_lint_paths():
    """Lint each distinct argument set once per class: three of TestCLI's
    tests lint the whole corpus (one of them twice), and every such call
    returns the same findings.  Each caller gets a fresh list."""
    real = reprolint.lint_paths
    memo: dict = {}

    def memoized(paths, root=".", rules=None):
        key = (tuple(paths), root, None if rules is None else tuple(rules))
        if key not in memo:
            memo[key] = real(paths, root=root, rules=rules)
        return list(memo[key])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reprolint, "lint_paths", memoized)
        yield


@pytest.mark.usefixtures("memoized_lint_paths")
class TestCLI:
    def test_corpus_exits_one(self, capsys):
        rc = main([CORPUS, "--root", REPO])
        out = capsys.readouterr().out
        assert rc == 1
        assert "reprolint: 31 findings" in out

    def test_json_format(self, capsys):
        rc = main([CORPUS, "--root", REPO, "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 31
        assert {"rule", "path", "line", "col", "message"} <= set(payload[0])

    def test_single_rule_selection(self, capsys):
        rc = main([CORPUS, "--root", REPO, "--rule", "uncharged-io",
                   "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {e["rule"] for e in payload} == {"uncharged-io"}

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "b.json")
        assert main([CORPUS, "--root", REPO, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        rc = main([CORPUS, "--root", REPO, "--baseline", baseline])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 findings" in out

    def test_missing_baseline_is_usage_error(self):
        assert main([CORPUS, "--root", REPO,
                     "--baseline", "/nonexistent/b.json"]) == 2

    def test_bad_baseline_is_reported_before_linting(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(reprolint, "lint_paths",
                            lambda *args, **kwargs: calls.append(args) or [])
        assert main([CORPUS, "--root", REPO,
                     "--baseline", "/nonexistent/b.json"]) == 2
        not_a_list = tmp_path / "b.json"
        not_a_list.write_text("{}")
        assert main([CORPUS, "--root", REPO, "--baseline", str(not_a_list)]) == 2
        assert calls == []

    def test_explain_rule(self, capsys):
        assert main(["--explain", "flow-lockset"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("flow-lockset:")
        # registry one-liner plus the check function's longer contract
        assert "blocking" in out
        assert "CFG" in out or "interprocedural" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_via_repro_subcommand(self, capsys):
        assert cli_main(["lint", "--explain", "lock-discipline"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lock-discipline:")

    def test_dump_graphs(self, tmp_path, capsys):
        outdir = str(tmp_path / "graphs")
        assert main(["--root", REPO, "--dump-graphs", outdir]) == 0
        assert "wrote" in capsys.readouterr().out
        cg = json.load(open(os.path.join(outdir, "callgraph.json")))
        lo = json.load(open(os.path.join(outdir, "lock_order.json")))
        # the project graph is substantial, and every function carries a
        # resolvable source location
        assert len(cg["functions"]) > 500
        some = next(iter(cg["functions"].values()))
        assert {"path", "line"} <= set(some)
        assert set(lo) == {"locks", "edges", "cycles"}
        # the repaired tree has no statically inferred lock-order cycles
        assert lo["cycles"] == []

    def test_repro_lint_subcommand(self, capsys):
        rc = cli_main(["lint", os.path.join(REPO, "src"),
                       os.path.join(REPO, "benchmarks"), "--root", REPO])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 findings" in out

    def test_module_invocation_matches_acceptance_command(self):
        # no path arguments: the defaults are the acceptance paths
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "reprolint: 0 findings\n"


class TestKernelRegistryCompleteness:
    def test_every_kernel_registered_with_both_modes(self):
        import repro.core  # noqa: F401 — registration side effects

        from repro.core.kernels import KERNEL_ENTRIES, SLOW_REFERENCE, VECTORIZED

        expected = {
            "mergesort", "samplesort", "heapsort", "selection",
            "em2way", "buffer-tree", "parallel-samplesort", "shardmerge",
        }
        assert set(KERNEL_ENTRIES) == expected
        for name, modes in KERNEL_ENTRIES.items():
            assert set(modes) == {VECTORIZED, SLOW_REFERENCE}, name

    def test_registered_symbols_are_pinned_in_parity_tests(self):
        import repro.core  # noqa: F401

        from repro.core.kernels import KERNEL_ENTRIES

        parity = open(os.path.join(REPO, "tests", "test_kernel_parity.py"),
                      encoding="utf-8").read()
        for name, modes in KERNEL_ENTRIES.items():
            for spec in modes.values():
                symbol = spec.rsplit(":", 1)[1]
                assert symbol in parity, (name, symbol)

    def test_registered_entry_points_import(self):
        import importlib

        import repro.core  # noqa: F401

        from repro.core.kernels import KERNEL_ENTRIES

        for modes in KERNEL_ENTRIES.values():
            for spec in modes.values():
                mod_name, symbol = spec.rsplit(":", 1)
                mod = importlib.import_module(mod_name)
                assert hasattr(mod, symbol), spec
