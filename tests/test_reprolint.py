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
from repro.analysis.boundcheck import CONTRACTS
from repro.analysis.reprolint import (
    RULES,
    Finding,
    LintContext,
    ModuleSource,
    iter_python_files,
    lint_paths,
    main,
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
            "lock-discipline",
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
        assert not m.suppressed("flow-charge", 1)
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

    def test_two_files_claiming_one_virtual_path_is_a_usage_error(
        self, tmp_path, capsys
    ):
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text("# reprolint: path=src/repro/core/same.py\n")
        assert main([str(tmp_path), "--root", str(tmp_path)]) == 2
        assert (
            "a.py and b.py both claim virtual path src/repro/core/same.py"
            in capsys.readouterr().err
        )

    def test_corpus_lint_analyses_the_project_once(self, monkeypatch):
        # every linted module is spliced into one project view, so all the
        # corpus fixtures share one run of each whole-project analysis
        from repro.analysis import boundcheck

        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("build_project_index", "analyze_lockset", "analyze_charges"):
            count(lint_rules, name)
        count(boundcheck, "analyze_summaries")
        assert len(lint_paths([CORPUS], root=REPO)) == 24
        assert sorted(calls) == [
            "analyze_charges", "analyze_lockset", "analyze_summaries",
            "build_project_index",
        ]

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
        # flow-charge's direct case: a single charge inside a loop
        findings = lint_corpus_file("flow_charge_direct.py")
        assert rules_of(findings) == ["flow-charge"] * 4
        # the SLOW_REFERENCE branch, the loop after a fast path's `return`
        # and the *_slow_reference function hold identical loops that must
        # NOT fire; the vectorized branches of both guard shapes must
        assert all("charge_block_read" in f.message or "charge_write" in f.message
                   for f in findings)
        path = os.path.join(CORPUS, "flow_charge_direct.py")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        planted = {i + 2 for i, line in enumerate(lines) if "# VIOLATION" in line}
        assert {f.line for f in findings} == planted

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


class TestSuppressionEdgeCases:
    def test_multiple_rules_one_comment(self):
        m = ModuleSource(
            "f.py",
            "a = 1  # reprolint: disable=uncharged-io,flow-charge\n",
        )
        assert m.suppressed("uncharged-io", 1)
        assert m.suppressed("flow-charge", 1)
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


@pytest.fixture(scope="class")
def memoized_lint_paths():
    """Lint each distinct argument set once per class: two of TestCLI's
    tests lint the whole corpus, and both calls return the same findings.
    Each caller gets a fresh list."""
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
        assert "reprolint: 24 findings" in out

    def test_json_format(self, capsys):
        rc = main([CORPUS, "--root", REPO, "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 24
        assert {"rule", "path", "line", "col", "message"} <= set(payload[0])

    def test_single_rule_selection(self, capsys):
        rc = main([CORPUS, "--root", REPO, "--rule", "uncharged-io",
                   "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {e["rule"] for e in payload} == {"uncharged-io"}

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

    def test_module_invocation_matches_acceptance_command(self, monkeypatch):
        # CI's lint step, verbatim: any finding fails it
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "benchmarks"],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "reprolint: 0 findings\n"
        # with no path arguments, the defaults are those paths
        linted = []
        monkeypatch.setattr(reprolint, "lint_paths",
                            lambda paths, **kwargs: linted.append(paths) or [])
        assert main([]) == 0
        assert linted == [["src", "benchmarks"]]


class TestKernelRegistryCompleteness:
    def test_every_kernel_registered_once(self):
        expected = {
            "mergesort", "samplesort", "heapsort", "selection",
            "em2way", "buffer-tree", "parallel-samplesort", "shardmerge",
        }
        assert set(CONTRACTS) == expected
        for name, contract in CONTRACTS.items():
            module, _, symbol = contract.entry.partition(":")
            assert module.startswith("repro.core.") and symbol, name

    def test_registered_symbols_are_pinned_in_parity_tests(self):
        parity = open(os.path.join(REPO, "tests", "test_kernel_parity.py"),
                      encoding="utf-8").read()
        for name, contract in CONTRACTS.items():
            symbol = contract.entry.rsplit(":", 1)[1]
            assert symbol in parity, (name, symbol)

    def test_registered_entry_points_import(self):
        import importlib

        for contract in CONTRACTS.values():
            mod_name, symbol = contract.entry.rsplit(":", 1)
            mod = importlib.import_module(mod_name)
            assert callable(getattr(mod, symbol, None)), contract.entry
