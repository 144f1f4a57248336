"""Benchmark of the blockade package: four workloads, each rep in a fresh process.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28

Run from the repository root.  Each repetition of a workload runs in a new
interpreter (`worker.py`), so the package's caches start cold, as they do for
a command-line user.  Repetitions come in pairs that run the same op order
at the same time on one CPU: the package in ``src/`` and the frozen copy of
it in ``perfbench/baseline/``.  Pairs continue until ``--seconds`` have
passed (at least `MIN_PAIRS`); no pair starts that would end after them.
Before the first pair, after each one, and in the time left at the end,
pairs of processes only import the package and the copy, one after the
other, for set-up samples.  Medians are reported; ``cpu_ratio`` and
``setup_ratio`` are medians over pairs of the package's time over the
baseline's, which cancels the machine's drift.

Both sides are imported from copies under ``perfbench/out/import/``, each
compiled to bytecode once when the run starts, so that set-up never depends
on which ``__pycache__`` files something else left in the checkout.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` pairs plain and traced repetitions of the package and reports
the per-layer metrics, with ``trace.overhead_s`` the traced minus the plain
wall time.  The last line of standard output is one JSON object; the lines
before it are a readable summary.  A full record of the run, with per-rep
results and the spans of the traced reps, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline"  # frozen copy of the layers: see baseline/README.md
MIN_PAIRS = 2
PROBES_PER_PAIR = 2
HARD_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
BLAS_THREADS = 1  # one thread: steadier timings on a shared machine


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "blockade" / "__init__.py").is_file():
        raise BenchError(f"no blockade sources under {root / 'src'}; run from the repository root")
    if not (root / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json in {root}")
    return root


def child_env(src: Path) -> dict:
    """Worker environment that imports blockade from ``src``."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PERFBENCH_CPU"] = str(worker_cpu())
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # workers read the bytecode of `import_copies`
    return env


def import_copies(root: Path) -> tuple[Path, Path]:
    """Fresh copies of the package and of the baseline, compiled to bytecode.

    Returns the two directories to put on ``PYTHONPATH``.  Nothing but this
    function writes there, so both sides load the same kind of bytecode on
    every run, whatever ran in the checkout before."""
    out = HERE / "out" / "import"
    shutil.rmtree(out, ignore_errors=True)
    dirs = []
    for side, package in (("package", root / "src" / "blockade"), ("baseline", BASELINE / "blockade")):
        shutil.copytree(package, out / side / "blockade", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(out / side)],
            env=child_env(out / side), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"could not compile the {side}: {proc.stdout.strip()}")
        dirs.append(out / side)
    return dirs[0], dirs[1]


def worker_cpu() -> int:
    """The one CPU every worker runs on.  The two CPUs of a shared virtual
    machine can differ in speed by 30% at a time; a worker that lands on
    either would add that to the spread."""
    try:
        return max(os.sched_getaffinity(0))
    except AttributeError:
        return -1  # no affinity control: workers run where they land


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def launch(env: dict, workload: str, seed: int, rep: int, trace: bool) -> subprocess.Popen:
    """Start one worker process."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(rep),
         "1" if trace else "0", repr(time.time())],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen, workload: str, deadline: float) -> dict:
    """Wait for a worker and return its JSON record (raises on failure)."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker for {workload} exited with {proc.returncode}: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def spawn(env: dict, workload: str, seed: int, rep: int, trace: bool, deadline: float) -> dict:
    """Run one worker process and return its JSON record (raises on failure)."""
    return finish(launch(env, workload, seed, rep, trace), workload, deadline)


def spawn_together(env_a: dict, env_b: dict, workload: str, seed: int, rep: int,
                   deadline: float) -> tuple[dict, dict]:
    """Run two plain workers at the same time on the one worker CPU.

    The kernel interleaves them every few milliseconds, so both run through
    the same spells of a fast or slow CPU, and the ratio of their CPU times
    cancels them; run one after the other, the pairs of a run differed by
    about 15%.  Wall times are not comparable here: the halves share the
    CPU until the faster one ends."""
    procs = [launch(env_a, workload, seed, rep, False), launch(env_b, workload, seed, rep, False)]
    try:
        return finish(procs[0], workload, deadline), finish(procs[1], workload, deadline)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def spawn_pair(first: tuple, second: tuple, swap: bool, workload: str, seed: int, rep: int,
               deadline: float) -> tuple[dict, dict]:
    """Run two workers, each given as ``(env, trace)``, back to back; ``second``
    goes first when ``swap`` is set, so that a steady drift cancels too.
    Returns their records in argument order."""

    def one(side: tuple) -> dict:
        return spawn(side[0], workload, seed, rep, side[1], deadline)

    if swap:
        b = one(second)
        return one(first), b
    a = one(first)
    return a, one(second)


def run_workload(root: Path, sides: tuple[Path, Path], workload: str, seed: int, seconds: int,
                 trace: bool, hard_deadline: float) -> dict:
    """All probes and reps of one workload; returns the aggregated run record.

    Reps come in pairs that run the same op order: the package under test
    and, with ``trace`` off, the frozen baseline copy at the same time (see
    `spawn_together`); with ``trace`` on, a plain and a traced rep of the
    package back to back, so that span times are not shared.  Set-up probes
    (package and baseline, back to back) run before the first pair,
    `PROBES_PER_PAIR` times after each pair, and until ``seconds`` are up."""
    env = child_env(sides[0])
    base_env = child_env(sides[1])
    began = time.monotonic()
    stop_at = began + seconds
    probes: list[tuple[dict, dict]] = []  # (package, baseline) set-up probes

    def probe_pair() -> None:
        k = len(probes)
        probes.append(spawn_pair((env, False), (base_env, False), k % 2 == 1,
                                 "setup", seed, k, hard_deadline))

    probe_pair()
    probe_s = time.monotonic() - began
    imported_from = probes[0][0]["environment"]["blockade_file"]
    if not imported_from.startswith(str(sides[0])):
        raise BenchError(f"blockade was imported from {imported_from}")
    plain: list[dict] = []
    second: list[dict] = []  # baseline reps, or traced reps with ``trace``
    errors: list[str] = []
    last_pair_s = 0.0
    while len(second) < MIN_PAIRS or time.monotonic() + last_pair_s <= stop_at:
        if time.monotonic() + 1.5 * last_pair_s > hard_deadline:
            break
        t0 = time.monotonic()
        k = len(plain)
        try:
            if trace:
                a, b = spawn_pair((env, False), (env, True), False, workload, seed, k, hard_deadline)
            else:
                a, b = spawn_together(env, base_env, workload, seed, k, hard_deadline)
                for _ in range(PROBES_PER_PAIR):
                    probe_pair()
        except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
            errors.append(str(exc))
            break
        plain.append(a)
        second.append(b)
        last_pair_s = time.monotonic() - t0
    # the time left until ``stop_at`` holds no pair of reps; fill it with probes
    while not trace and not errors and time.monotonic() + probe_s <= min(stop_at, hard_deadline):
        t0 = time.monotonic()
        try:
            probe_pair()
        except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
            errors.append(str(exc))
        probe_s = time.monotonic() - t0

    if not plain:
        raise BenchError(f"{workload}: no repetition finished: {'; '.join(errors)}")
    reps = plain + second if trace else plain  # the package under test
    n_ops = reps[0]["attempted"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # every rep of the package, traced or not, must render every op to the same bytes
    for r in reps[1:]:
        for name, digest in r["digests"].items():
            if name not in r["failures"] and digest != reps[0]["digests"].get(name):
                failed += 1
                r["failures"][name] = ["output differs from the first repetition"]
    if errors:  # the pair that did not finish fails all its ops
        attempted += n_ops
        failed += n_ops
    setup = [p["setup_s"] for p, _ in probes]  # reps that share the CPU start slower
    e2e = {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median([r["cpu_s"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }
    layers = {}
    if trace:
        for name in second[0]["layers"]:
            layers[name] = statistics.median([r["layers"][name] for r in second])
        layers["trace.overhead_s"] = statistics.median(
            [t["wall_s"] - p["wall_s"] for p, t in zip(plain, second)]
        )
    else:
        e2e["cpu_ratio"] = statistics.median(
            [p["cpu_s"] / b["cpu_s"] for p, b in zip(plain, second)]
        )
        e2e["setup_ratio"] = statistics.median([p["setup_s"] / b["setup_s"] for p, b in probes])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "nproc": nproc(),
        "blas_threads": min(BLAS_THREADS, nproc()),
        "worker_cpu": worker_cpu(),
        "environment": probes[0][0]["environment"],
        "src_lines": src_lines(root),
        "elapsed_s": time.monotonic() - began,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": e2e,
        "per_layer": layers,
        "setup_samples": setup,
        "baseline_setup_samples": [b["setup_s"] for _, b in probes],
        "reps": reps,
        "baseline_reps": [] if trace else second,
    }


def summary(rec: dict, units: dict) -> str:
    e2e = "  ".join(f"{k} {v:.4g} {units[k]}" for k, v in rec["end_to_end"].items())
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else float("nan")
    plain = sum(1 for r in rec["reps"] if not r["trace"])
    return (
        f"{rec['workload']:8s} seed {rec['seed']}  {e2e}  fail_ratio {ratio:.4g} "
        f"({rec['failed']}/{rec['attempted']} ops)  pairs {plain}  src_lines {rec['src_lines']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        root = checkout_root()
        spec = json.loads((root / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        names = workloads if args.workload == "all" else [args.workload]
        for w in names:
            if w not in workloads:
                raise BenchError(f"unknown workload {w!r}; choose from {', '.join(workloads)}")
            if not (HERE / "reference" / f"{w}.json").is_file():
                raise BenchError(f"missing reference outputs for {w}")
        sides = import_copies(root)
        records = []
        for w in names:
            deadline = time.monotonic() + HARD_LIMIT_S
            records.append(
                run_workload(root, sides, w, args.seed, args.seconds, bool(args.trace), deadline)
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["cpu_s"] = "s"  # printed, not gated: it drifts with the machine
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    metrics = {}
    for rec in records:
        print(summary(rec, units))
        if rec["errors"]:
            print(f"  errors: {rec['errors']}")
        for r in rec["reps"]:
            for name, why in r["failures"].items():
                kind = "traced rep" if r["trace"] else "rep"
                print(f"  FAILED {rec['workload']} {kind} {r['rep']} {name}: {'; '.join(why)}")
        path = out_dir / f"{rec['workload']}-seed{rec['seed']}-trace{int(args.trace)}.json"
        path.write_text(json.dumps(rec) + "\n")
        values = rec["per_layer"] if args.trace else rec["end_to_end"]
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for m in wanted:
            if m["name"] not in values:
                print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
                return 2
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
