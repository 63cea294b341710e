"""Paper-bound certification: cost contracts binding every kernel to its
entry point and its closed-form theorem envelope, a certifier runtime that
measures each kernel under the I/O sanitizer and checks the envelope, and
a static charge-site map tying every ``charge_*`` call in the core tree
back to a contracted entry point.

Three layers
------------
**Contracts** (:data:`CONTRACTS`): the kernel registry, one
:class:`CostContract` per kernel, declared with :func:`declare_contract`.
A contract names the kernel's entry point (``entry="module:callable"``,
whose ``kernel=`` argument selects the vectorized or the slow-reference
mode), the paper statement it tracks (``theorem``), the closed-form
reads/writes bounds from :mod:`repro.analysis.formulas`, and a runner that
executes the kernel on a seeded permutation and returns the measured
block-transfer tallies.  Kernel names and entries are *literals*, so the
charge-site map reads this table without importing anything (a contract
whose entry is not a literal seeds no reachability, which
``tests/test_boundcheck.py`` catches).

Exact vs fitted: ``kind="exact"`` contracts (Theorem 4.3 mergesort,
Lemma 4.2 selection, the §4.2 two-way EM mergesort) state non-asymptotic
upper bounds — measured counts must fall in ``[scan floor, bound]`` with
the unit constant.  ``kind="fitted"`` contracts (Theorem 4.5 sample sorts,
Theorem 4.10 priority-queue sorts) state O(...) shapes: the certifier
least-squares-fits one constant per machine per currency (reusing the
planner's calibration fit) over the *external* samples (``n > M``) and then
requires every external sample within ``[lo, hi]`` of the fitted envelope —
the two-sided check is what certifies the *shape*, not just an inequality.
Samples at ``n <= M`` degenerate to one-scan base cases, so they are only
held to ``[scan floor, hi * envelope]``.

**Certifier** (:func:`certify` / ``python -m repro certify``): sweeps n and
(M, B, omega) machines, runs every contracted kernel (under
:mod:`repro.analysis.iosan` by default, so the counters being certified are
themselves cross-checked per block transfer), verifies sorted output, and
emits one machine-readable ``CERT_<kernel>.json`` per kernel plus a
``CERT_summary.json`` (see :data:`CERT_SCHEMA`) via
:func:`write_certificates`.  A contract whose ``entry`` does not resolve
to a callable is a certification failure (:func:`registry_errors`).

**Charge-site map** (:func:`charge_site_map`): a flow-insensitive,
name-based AST reachability pass over ``src/repro/core`` (plus the machine
model) that attributes every ``charge_*`` call site to the contracted entry
points that can reach it, seeded from this module's ``declare_contract``
calls.  Block-granularity charge sites reachable from no entry are
*orphans* — cost accounting that no certificate exercises — and the
``orphan-charge`` lint rule fails them.  Element-granularity charges
(``charge_read``/``charge_write``) are exempt from orphan reporting: they
are the §3 RAM-model surface, certified by element counters, not block
envelopes.

Import discipline: like the rest of :mod:`repro.analysis`, this module only
imports :mod:`repro.models` and analysis siblings at module level; the
engine, core and planner layers are imported lazily inside runners so the
package stays importable from anywhere in the tree.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import math
import os
import time
from collections.abc import Callable, Iterable, Mapping, Sequence

from ..models.params import MachineParams
from . import formulas
from .ktuning import choose_k
from .schema import validate

__all__ = [
    "BLOCK_CHARGE_METHODS",
    "CERT_SCHEMA",
    "CHARGE_METHODS",
    "CONTRACTS",
    "CertificationError",
    "CertifyResult",
    "ChargeMap",
    "ChargeSite",
    "CostContract",
    "KernelCertificate",
    "MachineCertificate",
    "SampleCheck",
    "certify",
    "certify_kernel",
    "charge_site_map",
    "declare_contract",
    "registry_errors",
    "summarize_source",
    "write_certificates",
]

#: contract kinds
EXACT = "exact"
FITTED = "fitted"

#: default certification sweep (validated against every contract)
DEFAULT_MACHINES = (
    MachineParams(M=64, B=8, omega=8),
    MachineParams(M=256, B=16, omega=4),
    MachineParams(M=512, B=8, omega=12),
)
DEFAULT_SIZES = (256, 1024, 4096)
#: the CI smoke sweep (``certify --quick``)
QUICK_MACHINES = (MachineParams(M=64, B=8, omega=8),)
QUICK_SIZES = (256, 1024)


class CertificationError(RuntimeError):
    """A contracted kernel misbehaved outside its envelope semantics —
    e.g. produced unsorted output, so its counters mean nothing."""


@dataclasses.dataclass(frozen=True)
class CostContract:
    """One kernel's binding to its entry point and a paper bound.

    ``entry`` is ``"module:callable"``, the entry point whose ``kernel=``
    argument serves both kernel modes.  ``reads_bound`` / ``writes_bound``
    take ``(n, params, k)`` and return the closed form with unit constant;
    ``runner`` takes ``(params, n, k, seed)`` and returns measured
    ``(block_reads, block_writes)`` after verifying the kernel's output.
    """

    kernel: str
    entry: str
    theorem: str
    kind: str
    reads_bound: Callable[[int, MachineParams, int], float]
    writes_bound: Callable[[int, MachineParams, int], float]
    runner: Callable[[MachineParams, int, int | None, int], tuple[int, int]]
    takes_k: bool = True
    #: fitted-envelope slack: every external sample must land within
    #: ``[lo * c * bound, hi * max(c * bound, floor)]``
    lo: float = 0.3
    hi: float = 2.5


#: kernel name -> contract, populated by the declare_contract calls below
CONTRACTS: dict[str, CostContract] = {}


def declare_contract(
    kernel: str,
    *,
    entry: str,
    theorem: str,
    kind: str,
    reads_bound,
    writes_bound,
    runner,
    takes_k: bool = True,
    lo: float = 0.3,
    hi: float = 2.5,
) -> CostContract:
    """Declare one kernel: its entry point and its cost contract.  Write
    ``kernel`` and ``entry`` as literals: the charge-site map parses this
    file statically."""
    if kernel in CONTRACTS:
        raise ValueError(f"duplicate cost contract for kernel {kernel!r}")
    module, _, symbol = entry.partition(":")
    if not (module and symbol.isidentifier()):
        raise ValueError(f'entry must be "module:callable", got {entry!r}')
    if kind not in (EXACT, FITTED):
        raise ValueError(f"contract kind must be {EXACT!r} or {FITTED!r}, got {kind!r}")
    contract = CostContract(
        kernel=kernel,
        entry=entry,
        theorem=theorem,
        kind=kind,
        reads_bound=reads_bound,
        writes_bound=writes_bound,
        runner=runner,
        takes_k=takes_k,
        lo=lo,
        hi=hi,
    )
    CONTRACTS[kernel] = contract
    return contract


# --------------------------------------------------------------------------- #
# runners (engine/core imported lazily — import-discipline)
# --------------------------------------------------------------------------- #
def _check_sorted(kernel: str, output: list, data: list) -> None:
    if output != sorted(data):
        raise CertificationError(
            f"{kernel}: output is not the sorted input — counters are void"
        )


def _run_registry_sort(algorithm: str):
    """Runner for the four engine-registry sorts."""

    def run(params, n, k, seed):
        from ..engine import external_sort_report
        from ..workloads import random_permutation

        data = random_permutation(n, seed=seed)
        rep = external_sort_report(data, params, algorithm=algorithm, k=k)
        _check_sorted(algorithm, rep.output, data)
        return rep.counter.block_reads, rep.counter.block_writes

    return run


def _run_em2way(params, n, k, seed):
    from ..core.em_utils import em_two_way_mergesort
    from ..models.external_memory import AEMachine
    from ..workloads import random_permutation

    data = random_permutation(n, seed=seed)
    machine = AEMachine(params)
    out = em_two_way_mergesort(machine, machine.from_list(data, name="input"))
    _check_sorted("em2way", out.peek_list(), data)
    return machine.counter.block_reads, machine.counter.block_writes


def _run_parallel_samplesort(params, n, k, seed):
    from ..core.parallel_samplesort import parallel_samplesort
    from ..workloads import random_permutation

    data = random_permutation(n, seed=seed)
    result = parallel_samplesort(params, data, k=k or 1, seed=seed)
    _check_sorted("parallel-samplesort", result.output.peek_list(), data)
    counter = result.machine.counter
    return counter.block_reads, counter.block_writes


def _run_shard_merge(params, n, k, seed):
    from ..core.shard_merge import shard_merge
    from ..models.external_memory import AEMachine
    from ..workloads import random_permutation

    data = random_permutation(n, seed=seed)
    machine = AEMachine(params)
    # deal records round-robin into k shards (first n%k shards one longer —
    # the balanced split shard_merge_reads states), then sort each shard
    k_eff = max(1, min(k or 1, max(n, 1)))
    shards = [
        machine.from_list(sorted(data[i::k_eff]), name=f"shard{i}")
        for i in range(k_eff)
    ]
    out = shard_merge(machine, shards)
    _check_sorted("shardmerge", out.peek_list(), data)
    return machine.counter.block_reads, machine.counter.block_writes


def _run_buffer_tree(params, n, k, seed):
    from ..core.buffer_tree import BufferTree
    from ..models.external_memory import AEMachine
    from ..workloads import random_permutation

    data = random_permutation(n, seed=seed)
    machine = AEMachine(params)
    tree = BufferTree(machine, k or 1)
    tree.insert_many(data)
    _check_sorted("buffer-tree", tree.drain_sorted(), data)
    return machine.counter.block_reads, machine.counter.block_writes


# --------------------------------------------------------------------------- #
# the contract table — the kernel registry, one declaration per kernel
# --------------------------------------------------------------------------- #
declare_contract(
    "mergesort",
    entry="repro.core.aem_mergesort:aem_mergesort",
    theorem="Theorem 4.3",
    kind=EXACT,
    reads_bound=lambda n, p, k: formulas.mergesort_reads(n, p.M, p.B, k),
    writes_bound=lambda n, p, k: formulas.mergesort_writes(n, p.M, p.B, k),
    runner=_run_registry_sort("mergesort"),
)

declare_contract(
    "samplesort",
    entry="repro.core.aem_samplesort:aem_samplesort",
    theorem="Theorem 4.5",
    kind=FITTED,
    reads_bound=lambda n, p, k: formulas.samplesort_reads(n, p.M, p.B, k),
    writes_bound=lambda n, p, k: formulas.samplesort_writes(n, p.M, p.B, k),
    runner=_run_registry_sort("samplesort"),
)

declare_contract(
    "heapsort",
    entry="repro.core.aem_heapsort:aem_heapsort",
    theorem="Theorem 4.10",
    kind=FITTED,
    reads_bound=lambda n, p, k: formulas.pq_sort_reads(n, p.M, p.B, k),
    writes_bound=lambda n, p, k: formulas.pq_sort_writes(n, p.M, p.B, k),
    runner=_run_registry_sort("heapsort"),
)

declare_contract(
    "selection",
    entry="repro.core.selection_sort:selection_sort",
    theorem="Lemma 4.2",
    kind=EXACT,
    takes_k=False,
    reads_bound=lambda n, p, k: formulas.selection_sort_reads(n, p.M, p.B),
    writes_bound=lambda n, p, k: formulas.selection_sort_writes(n, p.B),
    runner=_run_registry_sort("selection"),
)

declare_contract(
    "em2way",
    entry="repro.core.em_utils:em_two_way_mergesort",
    theorem="Section 4.2 (2-way EM mergesort)",
    kind=EXACT,
    takes_k=False,
    reads_bound=lambda n, p, k: formulas.em2way_transfers(n, p.M, p.B),
    writes_bound=lambda n, p, k: formulas.em2way_transfers(n, p.M, p.B),
    runner=_run_em2way,
)

declare_contract(
    "parallel-samplesort",
    entry="repro.core.parallel_samplesort:parallel_samplesort",
    theorem="Theorem 4.5",
    kind=FITTED,
    reads_bound=lambda n, p, k: formulas.samplesort_reads(n, p.M, p.B, k),
    writes_bound=lambda n, p, k: formulas.samplesort_writes(n, p.M, p.B, k),
    runner=_run_parallel_samplesort,
)

declare_contract(
    "shardmerge",
    entry="repro.core.shard_merge:shard_merge",
    theorem="Section 4.1 (k-way shard merge)",
    kind=EXACT,
    reads_bound=lambda n, p, k: formulas.shard_merge_reads(n, p.B, k),
    writes_bound=lambda n, p, k: formulas.shard_merge_writes(n, p.B),
    runner=_run_shard_merge,
)

declare_contract(
    "buffer-tree",
    entry="repro.core.buffer_tree:BufferTree",
    theorem="Theorem 4.10",
    kind=FITTED,
    reads_bound=lambda n, p, k: formulas.pq_sort_reads(n, p.M, p.B, k),
    writes_bound=lambda n, p, k: formulas.pq_sort_writes(n, p.M, p.B, k),
    runner=_run_buffer_tree,
)


# --------------------------------------------------------------------------- #
# certification
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class SampleCheck:
    """One (kernel, machine, n) measurement against its envelope."""

    n: int
    k: int | None
    measured_reads: int
    measured_writes: int
    bound_reads: float  # closed form, unit constant
    bound_writes: float
    envelope_reads: float  # fitted (or exact) envelope center, floor-clamped
    envelope_writes: float
    floor: int  # ceil(n/B) — the scan lower bound, both currencies
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclasses.dataclass(frozen=True)
class MachineCertificate:
    params: MachineParams
    read_constant: float
    write_constant: float
    samples: tuple[SampleCheck, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.samples)


@dataclasses.dataclass(frozen=True)
class KernelCertificate:
    kernel: str
    theorem: str
    kind: str
    iosan: bool
    seed: int
    machines: tuple[MachineCertificate, ...]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.machines)


@dataclasses.dataclass(frozen=True)
class CertifyResult:
    certificates: tuple[KernelCertificate, ...]
    registry_errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.registry_errors and all(c.ok for c in self.certificates)

    def failures(self) -> list[str]:
        """Every failure across the run, rendered for the CLI."""
        out = list(self.registry_errors)
        for cert in self.certificates:
            for mach in cert.machines:
                for sample in mach.samples:
                    out.extend(
                        f"{cert.kernel} on {mach.params} at n={sample.n}: {msg}"
                        for msg in sample.failures
                    )
        return out


def _currency_failures(
    contract: CostContract,
    label: str,
    measured: int,
    bound: float,
    constant: float,
    floor: int,
    external: bool,
) -> tuple[float, list[str]]:
    """Check one currency of one sample; return (envelope, failures)."""
    eps = 1e-9
    fails: list[str] = []
    if measured < floor:
        fails.append(
            f"{label}: measured {measured} below the scan floor {floor} — "
            "the kernel cannot have touched its whole input"
        )
    if contract.kind == EXACT:
        envelope = max(bound, float(floor))
        if measured > envelope + eps:
            fails.append(
                f"{label}: measured {measured} exceeds the exact "
                f"{contract.theorem} bound {bound:g}"
            )
        return envelope, fails
    center = constant * bound
    envelope = max(center, float(floor))
    if measured > contract.hi * envelope + eps:
        fails.append(
            f"{label}: measured {measured} above {contract.hi}x the fitted "
            f"{contract.theorem} envelope {envelope:g}"
        )
    if external and measured < contract.lo * center - eps:
        fails.append(
            f"{label}: measured {measured} below {contract.lo}x the fitted "
            f"{contract.theorem} envelope {center:g} — the bound is not "
            "tracking the implementation's shape"
        )
    return envelope, fails


def certify_kernel(
    contract: CostContract,
    machines: Sequence[MachineParams] = DEFAULT_MACHINES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 1,
    use_iosan: bool = True,
) -> KernelCertificate:
    """Measure one contracted kernel across the sweep and check envelopes."""
    from ..planner.calibration import ls_through_origin  # lazy: import-discipline
    from .iosan import iosan

    machine_certs = []
    for params in machines:
        raw = []
        for n in sorted(set(sizes)):
            k = choose_k(params, n=n) if contract.takes_k else None
            if use_iosan:
                with iosan():
                    reads, writes = contract.runner(params, n, k, seed)
            else:
                reads, writes = contract.runner(params, n, k, seed)
            kb = k if k is not None else 1
            raw.append(
                (
                    n,
                    k,
                    reads,
                    writes,
                    float(contract.reads_bound(n, params, kb)),
                    float(contract.writes_bound(n, params, kb)),
                )
            )
        if contract.kind == EXACT:
            cr = cw = 1.0
        else:
            # fit over external samples only: n <= M degenerates to a
            # one-scan base case and would drag the constant off the
            # asymptotic shape the theorem states
            ext = [entry for entry in raw if entry[0] > params.M]
            fit_from = ext if ext else raw
            cr = ls_through_origin([(r, rb) for (_, _, r, _, rb, _) in fit_from])
            cw = ls_through_origin([(w, wb) for (_, _, _, w, _, wb) in fit_from])
        samples = []
        for n, k, reads, writes, rb, wb in raw:
            floor = math.ceil(n / params.B)
            external = n > params.M
            renv, rfail = _currency_failures(
                contract, "reads", reads, rb, cr, floor, external
            )
            wenv, wfail = _currency_failures(
                contract, "writes", writes, wb, cw, floor, external
            )
            samples.append(
                SampleCheck(
                    n=n,
                    k=k,
                    measured_reads=reads,
                    measured_writes=writes,
                    bound_reads=rb,
                    bound_writes=wb,
                    envelope_reads=renv,
                    envelope_writes=wenv,
                    floor=floor,
                    failures=tuple(rfail + wfail),
                )
            )
        machine_certs.append(
            MachineCertificate(
                params=params,
                read_constant=cr,
                write_constant=cw,
                samples=tuple(samples),
            )
        )
    return KernelCertificate(
        kernel=contract.kernel,
        theorem=contract.theorem,
        kind=contract.kind,
        iosan=use_iosan,
        seed=seed,
        machines=tuple(machine_certs),
    )


def registry_errors() -> list[str]:
    """Every contract whose ``entry`` does not resolve to a callable."""
    errors = []
    for name, contract in sorted(CONTRACTS.items()):
        module, _, symbol = contract.entry.partition(":")
        try:
            target = getattr(importlib.import_module(module), symbol, None)
        except ImportError:
            target = None
        if not callable(target):
            errors.append(
                f"cost contract {name!r}: entry {contract.entry!r} does not "
                "resolve to a callable"
            )
    return errors


def certify(
    kernels: Sequence[str] | None = None,
    machines: Sequence[MachineParams] | None = None,
    sizes: Sequence[int] | None = None,
    quick: bool = False,
    seed: int = 1,
    use_iosan: bool = True,
) -> CertifyResult:
    """Run the full certification: entry check + per-kernel sweep."""
    if machines is None:
        machines = QUICK_MACHINES if quick else DEFAULT_MACHINES
    if sizes is None:
        sizes = QUICK_SIZES if quick else DEFAULT_SIZES
    errors = registry_errors()
    if kernels is None:
        selected = sorted(CONTRACTS)
    else:
        unknown = sorted(set(kernels) - set(CONTRACTS))
        if unknown:
            raise KeyError(f"no cost contract for kernel(s): {unknown}")
        selected = list(kernels)
    certificates = tuple(
        certify_kernel(CONTRACTS[name], machines, sizes, seed=seed, use_iosan=use_iosan)
        for name in selected
    )
    return CertifyResult(certificates=certificates, registry_errors=tuple(errors))


# --------------------------------------------------------------------------- #
# certificate records
# --------------------------------------------------------------------------- #
_SAMPLE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "n", "k", "measured_reads", "measured_writes", "bound_reads",
        "bound_writes", "envelope_reads", "envelope_writes", "floor",
        "passed", "failures",
    ],
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "k": {"type": ["integer", "null"]},
        "measured_reads": {"type": "integer", "minimum": 0},
        "measured_writes": {"type": "integer", "minimum": 0},
        "bound_reads": {"type": "number", "minimum": 0},
        "bound_writes": {"type": "number", "minimum": 0},
        "envelope_reads": {"type": "number", "minimum": 0},
        "envelope_writes": {"type": "number", "minimum": 0},
        "floor": {"type": "integer", "minimum": 0},
        "passed": {"type": "boolean"},
        "failures": {"type": "array", "items": {"type": "string"}},
    },
}

#: the schema every emitted CERT_<kernel>.json must satisfy
CERT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "cert", "theorem", "kind", "iosan", "seed", "passed",
        "generated_utc", "machines",
    ],
    "properties": {
        "cert": {"type": "string"},
        "theorem": {"type": "string"},
        "kind": {"enum": [EXACT, FITTED]},
        "iosan": {"type": "boolean"},
        "seed": {"type": "integer"},
        "passed": {"type": "boolean"},
        "generated_utc": {"type": "string"},
        "machines": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": [
                    "M", "B", "omega", "read_constant", "write_constant",
                    "passed", "samples",
                ],
                "properties": {
                    "M": {"type": "integer", "minimum": 1},
                    "B": {"type": "integer", "minimum": 1},
                    "omega": {"type": "number", "minimum": 1},
                    "read_constant": {"type": "number", "minimum": 0},
                    "write_constant": {"type": "number", "minimum": 0},
                    "passed": {"type": "boolean"},
                    "samples": {"type": "array", "items": _SAMPLE_SCHEMA},
                },
            },
        },
    },
}

#: the schema of CERT_summary.json
CERT_SUMMARY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["cert", "passed", "generated_utc", "registry_errors", "kernels"],
    "properties": {
        "cert": {"enum": ["summary"]},
        "passed": {"type": "boolean"},
        "generated_utc": {"type": "string"},
        "registry_errors": {"type": "array", "items": {"type": "string"}},
        "kernels": {
            "type": "object",
            "additionalProperties": {"type": "boolean"},
        },
    },
}


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def certificate_record(cert: KernelCertificate) -> dict:
    """The machine-readable form of one kernel certificate."""
    return {
        "cert": cert.kernel,
        "theorem": cert.theorem,
        "kind": cert.kind,
        "iosan": cert.iosan,
        "seed": cert.seed,
        "passed": cert.ok,
        "generated_utc": _utcnow(),
        "machines": [
            {
                "M": mach.params.M,
                "B": mach.params.B,
                "omega": mach.params.omega,
                "read_constant": round(mach.read_constant, 6),
                "write_constant": round(mach.write_constant, 6),
                "passed": mach.ok,
                "samples": [
                    {
                        "n": s.n,
                        "k": s.k,
                        "measured_reads": s.measured_reads,
                        "measured_writes": s.measured_writes,
                        "bound_reads": round(s.bound_reads, 6),
                        "bound_writes": round(s.bound_writes, 6),
                        "envelope_reads": round(s.envelope_reads, 6),
                        "envelope_writes": round(s.envelope_writes, 6),
                        "floor": s.floor,
                        "passed": s.ok,
                        "failures": list(s.failures),
                    }
                    for s in mach.samples
                ],
            }
            for mach in cert.machines
        ],
    }


def write_certificates(result: CertifyResult, out_dir: str) -> list[str]:
    """Emit CERT_<kernel>.json per certificate plus CERT_summary.json,
    each validated against its schema before writing; returns the paths.

    A file that already holds its new record apart from the
    ``generated_utc`` stamp is left untouched (same bytes, same mtime), so
    a rerun that changes no result leaves a checkout clean."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for cert in result.certificates:
        record = certificate_record(cert)
        validate(record, CERT_SCHEMA)
        path = os.path.join(out_dir, f"CERT_{cert.kernel}.json")
        _write_record(path, record)
        paths.append(path)
    summary = {
        "cert": "summary",
        "passed": result.ok,
        "generated_utc": _utcnow(),
        "registry_errors": list(result.registry_errors),
        "kernels": {c.kernel: c.ok for c in result.certificates},
    }
    validate(summary, CERT_SUMMARY_SCHEMA)
    path = os.path.join(out_dir, "CERT_summary.json")
    _write_record(path, summary)
    paths.append(path)
    return paths


def _record_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _write_record(path: str, record: dict) -> None:
    """Write ``record`` to ``path`` unless the file's bytes already equal
    the record written with the file's own ``generated_utc`` stamp."""
    try:
        with open(path, encoding="utf-8") as fh:
            old = fh.read()
        stamp = json.loads(old)["generated_utc"]
    except (OSError, ValueError, TypeError, KeyError):
        stamp = None
    if stamp is not None and _record_text({**record, "generated_utc": stamp}) == old:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_record_text(record))


# --------------------------------------------------------------------------- #
# static charge-site map
# --------------------------------------------------------------------------- #
#: every CostCounter charge method
CHARGE_METHODS = (
    "charge_read",
    "charge_write",
    "charge_block_read",
    "charge_block_write",
    "charge_reads",
    "charge_writes",
)
#: the block-granularity subset — the ones cost certificates exercise and
#: the orphan-charge rule polices (element charges are the RAM-model surface)
BLOCK_CHARGE_METHODS = (
    "charge_block_read",
    "charge_block_write",
    "charge_reads",
    "charge_writes",
)

#: the real files the charge map covers: every core kernel module, the
#: machine model whose primitives they charge through, and this module,
#: whose contract table seeds the entry points (and holds no charge site)
_CHARGE_SCOPE_DIR = "src/repro/core"
_CHARGE_SCOPE_EXTRA_FILES = (
    "src/repro/models/external_memory.py",
    "src/repro/analysis/boundcheck.py",
)


@dataclasses.dataclass(frozen=True)
class ChargeSite:
    """One ``charge_*`` call site."""

    path: str
    line: int
    col: int
    function: str  # enclosing "Class.method" / "fn" / "<module>"
    method: str  # the charge method name


@dataclasses.dataclass(frozen=True)
class _DefSummary:
    name: str
    qualname: str
    cls: str | None
    calls: frozenset[str]
    sites: tuple[ChargeSite, ...]


@dataclasses.dataclass(frozen=True)
class ModuleChargeSummary:
    """Per-module facts the reachability pass needs (cacheable per file)."""

    path: str
    defs: tuple[_DefSummary, ...]
    #: (kernel_name, entry_symbol) pairs from declare_contract calls
    entries: tuple[tuple[str, str], ...]
    #: charge sites at module level (import-time code; always "reached")
    module_sites: tuple[ChargeSite, ...]


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _entry_pairs(call: ast.Call) -> Iterable[tuple[str, str]]:
    """The (kernel, symbol) pair of one declare_contract call, when its
    name and ``entry=`` are literals."""
    if not (call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)):
        return
    for kw in call.keywords:
        if kw.arg == "entry" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str) and ":" in kw.value.value:
            yield call.args[0].value, kw.value.value.rsplit(":", 1)[1]


def summarize_source(path: str, tree: ast.AST) -> ModuleChargeSummary:
    """Extract defs, call edges, charge sites and kernel entries from one
    parsed module."""
    defs: list[_DefSummary] = []
    entries: list[tuple[str, str]] = []
    module_sites: list[ChargeSite] = []

    def walk(node: ast.AST, cls: str | None, fn_calls, fn_sites, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, fn_calls, fn_sites, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls: set[str] = set()
                sites: list[ChargeSite] = []
                inner_qual = f"{cls}.{child.name}" if cls else child.name
                walk(child, cls, calls, sites, inner_qual)
                defs.append(
                    _DefSummary(
                        name=child.name,
                        qualname=inner_qual,
                        cls=cls,
                        calls=frozenset(calls),
                        sites=tuple(sites),
                    )
                )
                continue
            if isinstance(child, ast.Call):
                callee = _callee_name(child)
                if callee is not None:
                    if fn_calls is not None:
                        fn_calls.add(callee)
                    if callee == "declare_contract":
                        entries.extend(_entry_pairs(child))
                    if callee in CHARGE_METHODS:
                        site = ChargeSite(
                            path=path,
                            line=child.lineno,
                            col=child.col_offset,
                            function=qual,
                            method=callee,
                        )
                        (fn_sites if fn_sites is not None else module_sites).append(site)
            walk(child, cls, fn_calls, fn_sites, qual)

    walk(tree, None, None, None, "<module>")
    return ModuleChargeSummary(
        path=path,
        defs=tuple(defs),
        entries=tuple(dict.fromkeys(entries)),
        module_sites=tuple(module_sites),
    )


@dataclasses.dataclass(frozen=True)
class ChargeMap:
    """The charge-site map: per-kernel reachable sites plus orphans."""

    #: kernel name -> entry seed symbols
    entries: dict[str, tuple[str, ...]]
    #: kernel name -> every charge site reachable from its entry points
    sites_by_kernel: dict[str, tuple[ChargeSite, ...]]
    #: block-granularity sites in core code reachable from NO kernel
    orphans: tuple[ChargeSite, ...]


def _reachable_names(summaries: Sequence[ModuleChargeSummary],
                     seeds: Iterable[str]) -> set[str]:
    """Name-based flow-insensitive reachability over the def call graph.

    Seeding a class name seeds every method of every class with that name
    (entry classes are driven from outside the scope); calling a class name
    from reached code likewise pulls in its methods.  Over-approximate by
    construction — the orphan rule must never flag live accounting.
    """
    defs_by_name: dict[str, list[_DefSummary]] = {}
    methods_by_class: dict[str, set[str]] = {}
    for summary in summaries:
        for d in summary.defs:
            defs_by_name.setdefault(d.name, []).append(d)
            if d.cls is not None:
                methods_by_class.setdefault(d.cls, set()).add(d.name)

    reached: set[str] = set()
    stack: list[str] = []

    def add(name: str) -> None:
        if name in reached:
            return
        reached.add(name)
        if name in defs_by_name:
            stack.append(name)
        for method in methods_by_class.get(name, ()):
            if method not in reached:
                reached.add(method)
                stack.append(method)

    for seed in seeds:
        add(seed)
    while stack:
        for d in defs_by_name.get(stack.pop(), ()):
            for callee in d.calls:
                if callee in defs_by_name or callee in methods_by_class:
                    add(callee)
    return reached


def analyze_summaries(summaries: Sequence[ModuleChargeSummary]) -> ChargeMap:
    """Reachability + orphan detection over prebuilt module summaries."""
    entries: dict[str, list[str]] = {}
    for summary in summaries:
        for kernel, symbol in summary.entries:
            seeds = entries.setdefault(kernel, [])
            if symbol not in seeds:
                seeds.append(symbol)

    sites_by_kernel: dict[str, tuple[ChargeSite, ...]] = {}
    reached_union: set[str] = set()
    for kernel, seeds in sorted(entries.items()):
        reached = _reachable_names(summaries, seeds)
        reached_union |= reached
        sites = [
            site
            for summary in summaries
            for d in summary.defs
            if d.name in reached
            for site in d.sites
        ]
        sites.sort(key=lambda s: (s.path, s.line, s.col))
        sites_by_kernel[kernel] = tuple(sites)

    orphans = [
        site
        for summary in summaries
        for d in summary.defs
        if d.name not in reached_union
        for site in d.sites
        if site.method in BLOCK_CHARGE_METHODS
        and site.path.startswith(_CHARGE_SCOPE_DIR + "/")
    ]
    orphans.sort(key=lambda s: (s.path, s.line, s.col))
    return ChargeMap(
        entries={k: tuple(v) for k, v in sorted(entries.items())},
        sites_by_kernel=sites_by_kernel,
        orphans=tuple(orphans),
    )


def charge_scope_files(root: str = ".") -> list[str]:
    """Repo-relative paths of the modules the charge map covers."""
    paths = []
    core = os.path.join(root, _CHARGE_SCOPE_DIR)
    if os.path.isdir(core):
        paths += sorted(
            f"{_CHARGE_SCOPE_DIR}/{fn}"
            for fn in os.listdir(core)
            if fn.endswith(".py")
        )
    paths += [
        rel for rel in _CHARGE_SCOPE_EXTRA_FILES
        if os.path.isfile(os.path.join(root, rel))
    ]
    return paths


def charge_site_map(
    root: str = ".",
    extra_sources: Mapping[str, str] | None = None,
) -> ChargeMap:
    """The full static charge-site map of the repo at ``root``.

    ``extra_sources`` maps virtual paths to source text and *overlays* the
    real tree (replacing a real file on path collision).
    """
    sources: dict[str, str] = {}
    for rel in charge_scope_files(root):
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as fh:
                sources[rel] = fh.read()
        except OSError:
            continue
    if extra_sources:
        sources.update(extra_sources)
    summaries = []
    for rel in sorted(sources):
        try:
            tree = ast.parse(sources[rel], filename=rel)
        except SyntaxError:
            continue
        summaries.append(summarize_source(rel, tree))
    return analyze_summaries(summaries)
