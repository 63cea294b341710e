"""Paper-bound certifier: contract-registry completeness, theorem-envelope
certification on the quick grid, envelope failure semantics, the static
charge-site map, CERT/BENCH artifact schemas, and the schema validator."""

from __future__ import annotations

import dataclasses
import glob
import json
import os

import pytest

from repro.analysis import boundcheck
from repro.analysis.boundcheck import (
    CERT_SCHEMA,
    CERT_SUMMARY_SCHEMA,
    CONTRACTS,
    EXACT,
    FITTED,
    CostContract,
    certificate_record,
    certify,
    certify_kernel,
    charge_site_map,
    declare_contract,
    registry_errors,
    write_certificates,
)
from repro.analysis.schema import SchemaError, ValidationError, validate
from repro.models.params import MachineParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALL_KERNELS = {
    "mergesort", "samplesort", "heapsort", "selection",
    "em2way", "buffer-tree", "parallel-samplesort", "shardmerge",
}


class TestContractRegistry:
    def test_every_kernel_is_contracted(self):
        assert set(CONTRACTS) == ALL_KERNELS

    def test_registry_cross_check_is_clean(self):
        assert registry_errors() == []

    def test_duplicate_contract_rejected(self):
        c = CONTRACTS["mergesort"]
        with pytest.raises(ValueError, match="duplicate"):
            declare_contract(
                "mergesort",
                entry=c.entry,
                theorem=c.theorem,
                kind=c.kind,
                reads_bound=c.reads_bound,
                writes_bound=c.writes_bound,
                runner=c.runner,
            )

    def test_bad_kind_rejected(self):
        c = CONTRACTS["mergesort"]
        with pytest.raises(ValueError, match="kind"):
            declare_contract(
                "toy-bad-kind",
                entry=c.entry,
                theorem="Theorem 0.0",
                kind="vibes",
                reads_bound=c.reads_bound,
                writes_bound=c.writes_bound,
                runner=c.runner,
            )

    @pytest.mark.parametrize(
        "entry", ["repro.core.aem_mergesort", ":aem_mergesort", "m:a:b", "m:"]
    )
    def test_malformed_entry_rejected(self, entry):
        c = CONTRACTS["mergesort"]
        with pytest.raises(ValueError, match="module:callable"):
            declare_contract(
                "toy-bad-entry",
                entry=entry,
                theorem="Theorem 0.0",
                kind=c.kind,
                reads_bound=c.reads_bound,
                writes_bound=c.writes_bound,
                runner=c.runner,
            )
        assert "toy-bad-entry" not in CONTRACTS

    def test_unresolvable_entry_is_a_registry_error(self, monkeypatch):
        c = CONTRACTS["mergesort"]
        broken = (  # sorted by name, the order registry_errors() reports
            ("toy-no-module", "repro.core.no_such_module:aem_mergesort"),
            ("toy-no-symbol", "repro.core.aem_mergesort:no_such_sort"),
            ("toy-not-callable", "repro.core.kernels:VECTORIZED"),
        )
        for name, entry in broken:
            monkeypatch.setitem(
                CONTRACTS, name, dataclasses.replace(c, kernel=name, entry=entry)
            )
        assert registry_errors() == [
            f"cost contract {name!r}: entry {entry!r} does not resolve to a callable"
            for name, entry in broken
        ]

    def test_unknown_kernel_rejected_by_certify(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            certify(kernels=["no-such-kernel"], quick=True)


@pytest.fixture(scope="module")
def quick_result():
    return certify(quick=True)


class TestQuickCertification:
    def test_passes(self, quick_result):
        assert quick_result.ok, "\n".join(quick_result.failures())

    def test_covers_every_contracted_kernel(self, quick_result):
        assert {c.kernel for c in quick_result.certificates} == ALL_KERNELS

    def test_exact_kernels_fit_unit_constants(self, quick_result):
        for cert in quick_result.certificates:
            if cert.kind != EXACT:
                continue
            for mach in cert.machines:
                assert mach.read_constant == 1.0, cert.kernel
                assert mach.write_constant == 1.0, cert.kernel

    def test_fitted_constants_are_positive(self, quick_result):
        for cert in quick_result.certificates:
            if cert.kind != FITTED:
                continue
            for mach in cert.machines:
                assert mach.read_constant > 0, cert.kernel
                assert mach.write_constant > 0, cert.kernel

    def test_every_sample_meets_the_scan_floor(self, quick_result):
        for cert in quick_result.certificates:
            for mach in cert.machines:
                for s in mach.samples:
                    assert s.measured_reads >= s.floor, cert.kernel
                    assert s.measured_writes >= s.floor, cert.kernel


class TestEnvelopeFailures:
    def toy_contract(self, **overrides):
        base = CONTRACTS["mergesort"]
        fields = dict(
            kernel="toy",
            entry=base.entry,
            theorem="Theorem 0.0",
            kind=EXACT,
            reads_bound=base.reads_bound,
            writes_bound=base.writes_bound,
            runner=base.runner,
            takes_k=base.takes_k,
        )
        fields.update(overrides)
        return CostContract(**fields)

    def test_too_tight_exact_bound_fails(self):
        # a zero bound clamps the envelope to the scan floor, which a real
        # mergesort run must exceed — certification has to catch it
        contract = self.toy_contract(reads_bound=lambda n, p, k: 0.0)
        cert = certify_kernel(
            contract, machines=(MachineParams(M=64, B=8, omega=8),),
            sizes=(1024,),
        )
        assert not cert.ok
        msgs = [m for mach in cert.machines for s in mach.samples
                for m in s.failures]
        assert any("exceeds the exact" in m for m in msgs)

    def test_fitted_upper_violation(self):
        contract = self.toy_contract(
            kind=FITTED, hi=1.0,
            # a wildly loose bound fits a tiny constant on the external
            # samples, but the internal n=256 sample then overshoots hi=1x
            reads_bound=lambda n, p, k: float(n * n),
        )
        cert = certify_kernel(
            contract, machines=(MachineParams(M=64, B=8, omega=8),),
            sizes=(256, 1024, 4096),
        )
        msgs = [m for mach in cert.machines for s in mach.samples
                for m in s.failures]
        assert any("above 1.0x the fitted" in m for m in msgs)

    def test_currency_failures_lower_bound(self):
        contract = self.toy_contract(kind=FITTED, lo=0.5, hi=2.0)
        envelope, fails = boundcheck._currency_failures(
            contract, "reads", measured=10, bound=100.0, constant=1.0,
            floor=1, external=True,
        )
        assert envelope == 100.0
        assert any("below 0.5x" in m for m in fails)
        # the same sample inside the cache is only upper-checked
        _, fails_internal = boundcheck._currency_failures(
            contract, "reads", measured=10, bound=100.0, constant=1.0,
            floor=1, external=False,
        )
        assert fails_internal == []

    def test_currency_failures_floor(self):
        contract = self.toy_contract()
        _, fails = boundcheck._currency_failures(
            contract, "writes", measured=3, bound=100.0, constant=1.0,
            floor=8, external=False,
        )
        assert any("scan floor" in m for m in fails)

    def test_failure_renders_into_result(self):
        contract = self.toy_contract(reads_bound=lambda n, p, k: 0.0)
        cert = certify_kernel(
            contract, machines=(MachineParams(M=64, B=8, omega=8),),
            sizes=(1024,),
        )
        result = boundcheck.CertifyResult(
            certificates=(cert,), registry_errors=()
        )
        assert not result.ok
        assert any("toy" in line for line in result.failures())


class TestChargeSiteMap:
    @pytest.fixture(scope="class")
    def cmap(self):
        return charge_site_map(REPO)

    def test_every_contracted_kernel_has_entries(self, cmap):
        # the seeds are read from the declare_contract calls themselves
        assert cmap.entries == {
            name: (contract.entry.rsplit(":", 1)[1],)
            for name, contract in sorted(CONTRACTS.items())
        }

    def test_every_kernel_reaches_block_charges(self, cmap):
        for kernel in CONTRACTS:
            sites = cmap.sites_by_kernel[kernel]
            assert sites, f"{kernel} reaches no charge sites"
            assert any(
                s.method in boundcheck.BLOCK_CHARGE_METHODS for s in sites
            ), f"{kernel} reaches no block-granularity charge"

    def test_real_tree_has_no_orphans(self, cmap):
        assert cmap.orphans == (), [
            f"{s.path}:{s.line} {s.function}.{s.method}" for s in cmap.orphans
        ]

    def test_planted_orphan_is_detected(self):
        overlay = {
            "src/repro/core/planted.py": (
                "def _nobody_calls_me(machine):\n"
                "    machine.counter.charge_block_write()\n"
            ),
        }
        cmap = charge_site_map(REPO, extra_sources=overlay)
        assert any(
            s.function == "_nobody_calls_me" and s.method == "charge_block_write"
            for s in cmap.orphans
        )


class TestCertArtifacts:
    def test_records_validate_and_write(self, quick_result, tmp_path):
        paths = write_certificates(quick_result, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {f"CERT_{k}.json" for k in ALL_KERNELS} | {
            "CERT_summary.json"
        }
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            schema = (
                CERT_SUMMARY_SCHEMA
                if record["cert"] == "summary"
                else CERT_SCHEMA
            )
            validate(record, schema)

    def test_rerun_leaves_unchanged_files_untouched(
        self, quick_result, tmp_path, monkeypatch
    ):
        """A second write with only a new ``generated_utc`` stamp keeps every
        file's bytes and mtime; a file whose verdict differs is rewritten."""
        monkeypatch.setattr(boundcheck, "_utcnow", lambda: "2000-01-01T00:00:00Z")
        first = write_certificates(quick_result, str(tmp_path))
        before = {}
        for path in first:
            os.utime(path, (1_000_000, 1_000_000))
            with open(path, "rb") as fh:
                before[path] = fh.read()
        stale = str(tmp_path / "CERT_mergesort.json")
        record = json.loads(before[stale])
        record["passed"] = not record["passed"]
        with open(stale, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.utime(stale, (1_000_000, 1_000_000))

        monkeypatch.setattr(boundcheck, "_utcnow", lambda: "2001-01-01T00:00:00Z")
        second = write_certificates(quick_result, str(tmp_path))
        assert second == first
        for path in second:
            with open(path, "rb") as fh:
                data = fh.read()
            if path == stale:
                assert os.stat(path).st_mtime != 1_000_000
                assert json.loads(data)["passed"] is not record["passed"]
                assert json.loads(data)["generated_utc"] == "2001-01-01T00:00:00Z"
            else:
                assert data == before[path], path
                assert os.stat(path).st_mtime == 1_000_000, path

    def test_summary_reports_every_kernel_passed(self, quick_result, tmp_path):
        write_certificates(quick_result, str(tmp_path))
        with open(tmp_path / "CERT_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["passed"] is True
        assert set(summary["kernels"]) == ALL_KERNELS
        assert all(summary["kernels"].values())

    def test_tampered_record_fails_validation(self, quick_result):
        record = certificate_record(quick_result.certificates[0])
        record["debug_notes"] = "scratch"
        with pytest.raises(ValidationError, match="debug_notes"):
            validate(record, CERT_SCHEMA)


class TestBenchRecordSchema:
    @pytest.fixture(scope="class")
    def schema(self):
        path = os.path.join(REPO, "benchmarks", "bench_record.schema.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_committed_records_validate(self, schema):
        records = sorted(
            glob.glob(os.path.join(REPO, "benchmarks", "results", "BENCH_*.json"))
        )
        assert records, "no committed BENCH_*.json trajectory records"
        for path in records:
            with open(path, encoding="utf-8") as fh:
                validate(json.load(fh), schema)

    def test_schema_rejects_malformed_records(self, schema):
        with pytest.raises(ValidationError):
            validate({"bench": "x"}, schema)  # generated_utc missing
        with pytest.raises(ValidationError):
            validate(
                {"bench": "x", "generated_utc": "t", "wall_seconds": "fast"},
                schema,
            )


class TestSchemaValidator:
    def test_type_and_required(self):
        schema = {"type": "object", "required": ["a"],
                  "properties": {"a": {"type": "integer"}}}
        validate({"a": 1}, schema)
        with pytest.raises(ValidationError, match="missing required"):
            validate({}, schema)
        with pytest.raises(ValidationError, match="expected integer"):
            validate({"a": "x"}, schema)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValidationError):
            validate(True, {"type": "integer"})
        validate(True, {"type": "boolean"})

    def test_nullable_type_list(self):
        schema = {"type": ["integer", "null"]}
        validate(3, schema)
        validate(None, schema)
        with pytest.raises(ValidationError):
            validate("x", schema)

    def test_enum_and_minimum(self):
        validate("r", {"enum": ["r", "w"]})
        with pytest.raises(ValidationError, match="enum"):
            validate("x", {"enum": ["r", "w"]})
        validate(0, {"type": "number", "minimum": 0})
        with pytest.raises(ValidationError, match="minimum"):
            validate(-1, {"type": "number", "minimum": 0})

    def test_additional_properties(self):
        closed = {"type": "object", "properties": {"a": {}},
                  "additionalProperties": False}
        validate({"a": 1}, closed)
        with pytest.raises(ValidationError, match="unexpected"):
            validate({"a": 1, "b": 2}, closed)
        typed_extra = {"type": "object",
                       "additionalProperties": {"type": "integer"}}
        validate({"x": 1, "y": 2}, typed_extra)
        with pytest.raises(ValidationError):
            validate({"x": "s"}, typed_extra)

    def test_items(self):
        schema = {"type": "array", "items": {"type": "integer", "minimum": 0}}
        validate([0, 1, 2], schema)
        with pytest.raises(ValidationError, match=r"\[1\]"):
            validate([0, -1], schema)

    def test_unsupported_keyword_fails_loudly(self):
        with pytest.raises(SchemaError, match="unsupported"):
            validate({}, {"patternProperties": {}})
