"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.  Each workload runs twice in fresh worker
processes, so the file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def env():
    return run.child_env(ROOT / "src")


def test_references_cover_every_op():
    references = worker.load_references()
    for name in workloads.WORKLOADS:
        ops = [op.name for op in workloads.ops_for(name, references)]
        assert len(set(ops)) == len(ops)
        assert set(ops) == set(references[name])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_identical_with_tracing_on_and_off(workload, env):
    deadline = time.monotonic() + 160
    plain = run.spawn(env, workload, 7, 0, False, deadline)
    traced = run.spawn(env, workload, 7, 0, True, deadline)
    assert plain["failures"] == {} and traced["failures"] == {}
    assert plain["order"] == traced["order"]
    assert plain["digests"] == traced["digests"]
    assert set(traced["layers"]) >= {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    } - {"trace.overhead_s"}


def test_seed_changes_only_the_order(env):
    deadline = time.monotonic() + 100
    a = run.spawn(env, "certify", 1, 0, False, deadline)
    b = run.spawn(env, "certify", 2, 0, False, deadline)
    assert a["order"] != b["order"]
    assert a["digests"] == b["digests"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
