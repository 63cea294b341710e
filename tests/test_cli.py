"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.ids == [] and not args.quick

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.algorithm == "mergesort" and args.n == 10_000

    def test_sort_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--algorithm", "bogosort"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.input == "-" and args.random is None and args.k is None


class TestCommands:
    def test_experiments_quick_single(self, capsys):
        assert main(["experiments", "--quick", "E3"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 4.2" in out
        assert "[E3:" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_experiments_case_insensitive(self, capsys):
        assert main(["experiments", "--quick", "e3"]) == 0

    def test_sort_command(self, capsys):
        assert main(["sort", "--n", "500", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "aem-mergesort(k=2)" in out
        assert "block writes" in out

    def test_sort_all_algorithms(self, capsys):
        for alg in ("samplesort", "heapsort", "selection"):
            assert main(["sort", "--n", "300", "--algorithm", alg, "--k", "1"]) == 0

    def test_tune_command(self, capsys):
        assert main(["tune", "--n", "50000", "--omega", "16", "--k-max", "6"]) == 0
        out = capsys.readouterr().out
        assert "predicted-best k" in out

    def test_plan_command(self, capsys):
        assert main(["plan", "--n", "20000", "--omega", "16"]) == 0
        out = capsys.readouterr().out
        assert "predicted plan" in out
        assert "chosen: samplesort" in out

    def test_plan_small_n_routes_to_ram(self, capsys):
        assert main(["plan", "--n", "40"]) == 0
        assert "chosen: ram" in capsys.readouterr().out

    def test_batch_command(self, capsys):
        assert main(["batch", "--jobs", "8", "--n", "400", "--check"]) == 0
        out = capsys.readouterr().out
        assert "batch of 8 jobs" in out
        assert "per-algorithm routing mix" in out
        assert "0 failed" in out

    def test_batch_pinned_algorithm(self, capsys):
        assert main(
            ["batch", "--jobs", "4", "--n", "200", "--algorithm", "mergesort"]
        ) == 0
        # the routing mix is keyed on the canonical family (no k fragment)
        assert "mergesort" in capsys.readouterr().out

    def test_batch_unknown_scenario(self, capsys):
        assert main(["batch", "--jobs", "2", "--mix", "chaos"]) == 2
        assert "unknown scenarios" in capsys.readouterr().out

    def test_batch_process_executor(self, capsys):
        assert main(
            ["batch", "--jobs", "6", "--n", "300", "--executor", "process",
             "--workers", "2", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "[process]" in out
        assert "0 failed" in out

    def test_batch_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--executor", "gpu"])

    def test_calibrate_command(self, capsys, tmp_path):
        save = tmp_path / "constants.json"
        assert main(
            ["calibrate", "--sizes", "256,1024", "--plan-n", "1024",
             "--save", str(save)]
        ) == 0
        out = capsys.readouterr().out
        assert "calibrated constants" in out
        assert "calibrated vs measured ranking" in out
        assert save.exists()
        # the saved constants feed straight back into plan/batch
        assert main(["plan", "--n", "20000", "--constants", str(save)]) == 0
        assert "predicted plan" in capsys.readouterr().out

    def test_calibrate_unknown_scenario(self, capsys):
        assert main(["calibrate", "--scenario", "chaos"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_sort_auto_through_engine(self, capsys):
        assert main(["sort", "--n", "300", "--algorithm", "auto"]) == 0
        assert "sort on" in capsys.readouterr().out

    def test_stream_random(self, capsys):
        assert main(["stream", "--random", "600", "--check"]) == 0
        out = capsys.readouterr().out
        assert "streaming session" in out
        assert "buffer-tree statistics" in out

    def test_stream_from_file_with_deletes(self, capsys, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("5\n3\n# comment\ndel 3\n9\n1\n")
        assert main(
            ["stream", "--input", str(records), "--M", "16", "--B", "4", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming session" in out
        assert "annihilations" in out

    def test_stream_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("3\n1\n2\n"))
        assert main(["stream", "--check"]) == 0
        assert "streaming session" in capsys.readouterr().out

    def test_stream_missing_input_file(self, capsys):
        assert main(["stream", "--input", "/no/such/records.txt"]) == 2
        assert "cannot read records" in capsys.readouterr().out

    def test_stream_delete_of_absent_key(self, capsys, tmp_path):
        records = tmp_path / "bad.txt"
        records.write_text("1\ndel 9\n")
        assert main(["stream", "--input", str(records)]) == 1
        assert "bad record at line 2" in capsys.readouterr().out

    def test_sort_ram_oversized_n_fails_cleanly(self, capsys):
        assert main(["sort", "--algorithm", "ram", "--n", "10000"]) == 2
        assert "cannot run this sort" in capsys.readouterr().out

    def test_sort_ram_small_n(self, capsys):
        assert main(["sort", "--algorithm", "ram", "--n", "50"]) == 0
        assert "ram-bst-rb" in capsys.readouterr().out


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.executor == "thread" and args.workers is None

    def test_serve_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "gpu"])

    def test_serve_end_to_end_subprocess(self):
        # the real CLI path: spawn `python -m repro serve`, scrape the
        # ephemeral port from the banner, round-trip a job, stop via the
        # shutdown op
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"serving sort jobs on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))

            from repro.service import ServiceClient

            with ServiceClient(host, port, retries=50) as client:
                assert client.sort([5, 3, 9, 1]) == [1, 3, 5, 9]
                client.shutdown_server()
            assert proc.wait(timeout=30) == 0
            rest = proc.stdout.read()
            assert "server stopped" in rest and "1 jobs completed" in rest
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestLintCommand:
    def test_lint_defaults(self, monkeypatch):
        # `repro lint` declares no flags of its own: it hands its arguments
        # to reprolint's parser unchanged, and returns its exit code
        from repro.analysis import reprolint

        seen = []
        monkeypatch.setattr(reprolint, "main", lambda argv: seen.append(argv) or 7)
        argv = ["src", "--format", "json", "--rule", "flow-lockset", "--help"]
        assert main(["lint", *argv]) == 7
        assert main(["lint"]) == 7
        assert seen == [argv, []]
        assert "lint" in build_parser().format_help()

    def test_lint_corpus_exits_one_with_findings(self, capsys):
        import os

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        rc = main(["lint", os.path.join(repo, "tests", "lint_corpus"),
                   "--root", repo, "--rule", "uncharged-io"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "uncharged-io" in out
