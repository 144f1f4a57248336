"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED REP TRACE SPAWNED_AT

``REP`` numbers the repetitions of one kind (plain or traced) in a run; the
op order is drawn from ``(SEED, REP)``, so a run covers several orders and
plain and traced repetition ``REP`` run the same order.

The process pins itself to the CPU named by ``PERFBENCH_CPU``, if set.
``SPAWNED_AT`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start-up plus the imports of
numpy, scipy.linalg and the blockade layers.  With ``WORKLOAD`` set to
``setup`` the process stops after the imports.  The timed section (the ops,
not their checks) is reported as wall time and as this process's CPU time,
``cpu_s``, which is the one to compare when another worker shares the CPU.
The result is one JSON line on standard output.  `run.py` starts this
script; it is not meant to be run by hand.
"""

import os
import sys
import time

if int(os.environ.get("PERFBENCH_CPU", "-1")) >= 0:
    os.sched_setaffinity(0, {int(os.environ["PERFBENCH_CPU"])})

_t0 = time.perf_counter()
import numpy  # noqa: E402

_t1 = time.perf_counter()
import scipy.linalg  # noqa: E402,F401

_t2 = time.perf_counter()
import blockade.bounds  # noqa: E402,F401
import blockade.dynamics  # noqa: E402,F401

_t3 = time.perf_counter()
_IMPORTED_AT = time.time()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def load_references() -> dict:
    return {
        p.stem: json.loads(p.read_text())["ops"] for p in sorted(REFERENCE_DIR.glob("*.json"))
    }


def environment() -> dict:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blockade_file": blockade.__file__,
    }


def layer_metrics(tracer, ops, imports: dict) -> dict:
    """Per-layer metrics of one traced repetition (``.s`` is self time)."""
    st = tracer.stats

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    c = tracer.counters
    out = {
        "words.commutator_H.s": self_s("words.commutator_H"),
        "words.commutator_H.calls": calls("words.commutator_H"),
        "words.commutator_H.terms_out": c.get("words.commutator_H.terms_out", 0),
        "words.terms_max": c.get("words.terms_max", 0),
        "basis.build_basis.dim_max": c.get("basis.build_basis.dim_max", 0),
        "basis.build_basis.peak_mb": tracer.peak_mb(lambda n: n == "basis.build_basis"),
        "basis.hamiltonian_matrix.nnz_max": c.get("basis.hamiltonian_matrix.nnz_max", 0),
        "basis.matvec_int.calls": calls("basis.matvec_int"),
        "basis.observable_matrix.calls": calls("basis.observable_matrix"),
        "dynamics.eigh.calls": calls("dynamics.eigh"),
        "dynamics.eigh.dim_max": c.get("dynamics.eigh.dim_max", 0),
        "dynamics.evolve.points": c.get("dynamics.evolve.points", 0),
        "dynamics.taylor_oracle.bits_max": c.get("dynamics.taylor_oracle.bits_max", 0),
        "dynamics.refusal.s": sum(st.get(f"op.{op.name}", (0, 0.0))[1] for op in ops if op.refuses),
        "dynamics.peak_mb": tracer.peak_mb(lambda n: n.startswith("dynamics.")),
        "bounds.log_error_envelope.calls": calls("bounds.log_error_envelope"),
        "bounds.kappa.calls": calls("bounds.kappa"),
        "bounds.kappa.s": self_s("bounds.kappa"),
        "bounds.peak_mb": tracer.peak_mb(lambda n: n.startswith("bounds.")),
    }
    for name in (
        "series.density_coefficients",
        "series.correlation_coefficients",
        "series.boundary_deficits",
        "basis.build_basis",
        "basis.hamiltonian_matrix",
        "basis.matvec_int",
        "basis.observable_matrix",
        "dynamics.eigh",
        "dynamics.evolve",
        "dynamics.g2",
        "dynamics.spectral_checks",
        "dynamics.universal_window",
        "dynamics.taylor_oracle",
        "bounds.log_error_envelope",
    ):
        out[f"{name}.s"] = self_s(name)
    out.update(imports)
    return out


def run(workload: str, seed: int, rep: int, trace: bool, setup_s: float) -> dict:
    import workloads
    from blockade.dynamics import DimensionBudgetError
    from tracer import Tracer

    references = load_references()
    ops = workloads.ops_for(workload, references)
    random.Random(seed * 1000 + rep).shuffle(ops)
    # Refusals run first: the basis a refusal builds stays cached (it slows
    # later ops and adds ~110 MB to the oracle peak), and a fixed position
    # makes that cost show in every repetition, not in half of them.
    ops.sort(key=lambda op: not op.refuses)
    reference = references[workload]

    tracer = Tracer(f"{workload}-seed{seed}-rep{rep}")
    if trace:
        tracer.install(workloads)
        tracer.start()
    results: dict = {}
    errors: dict = {}
    op_s: dict = {}
    start = time.perf_counter()
    cpu_start = time.process_time()
    for op in ops:
        with tracer.span(f"op.{op.name}"):
            op_start = time.perf_counter()
            try:
                results[op.name] = op.run()
            except DimensionBudgetError as exc:
                if op.refuses:
                    results[op.name] = exc
                else:
                    errors[op.name] = repr(exc)
            except Exception as exc:  # an op that should not raise counts as failed
                errors[op.name] = repr(exc)
            op_s[op.name] = time.perf_counter() - op_start
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start  # steady when another worker shares the CPU
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.stop()

    failures: dict = {}
    digests: dict = {}
    for op in ops:
        if op.name in errors:
            failures[op.name] = [errors[op.name]]
            continue
        result = results[op.name]
        if op.refuses and not isinstance(result, DimensionBudgetError):
            failures[op.name] = ["refusal expected, op returned"]
            continue
        try:
            out = op.output(result)
            bad = op.compare(out, reference.get(op.name))
            if op.check is not None:
                bad += op.check(result, results)
        except Exception as exc:  # a check that crashes is a failed op
            out, bad = None, [f"check raised {exc!r}"]
        digests[op.name] = hashlib.sha256(repr(out).encode()).hexdigest()
        if bad:
            failures[op.name] = bad

    record = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "trace": trace,
        "order": [op.name for op in ops],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": op_s,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
    }
    if trace:
        imports = {
            "import.numpy.s": _t1 - _t0,
            "import.scipy.s": _t2 - _t1,
            "import.blockade.s": _t3 - _t2,
        }
        record["layers"] = layer_metrics(tracer, ops, imports)
        record["stats"] = tracer.stats
        record["spans"] = tracer.spans
    return record


def main() -> int:
    workload, seed, rep, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    setup_s = _IMPORTED_AT - float(sys.argv[5])
    if workload == "setup":
        record = {"setup_s": setup_s, "environment": environment()}
    else:
        record = run(workload, seed, rep, trace == "1", setup_s)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
