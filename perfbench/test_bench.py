"""Tests of the benchmark itself: its verification, tracing and refusal paths.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from freechaos import chaos  # noqa: E402
from freechaos.errors import IdentityMismatchError, SizeLimitError  # noqa: E402
from freechaos.partitions import nc0_classes  # noqa: E402


def _causes(ops, refs):
    return [workloads.failure_cause(op, workloads.run_engine(op), ref) for op, ref in zip(ops, refs)]


def test_engine_ops_verify_and_a_corrupted_reference_is_counted():
    ops = workloads.diagram_wide(7)
    refs = [op.reference() for op in ops]
    assert workloads.count_failures(_causes(ops, refs)) == dict.fromkeys(workloads.CAUSES, 0)

    refs[4] *= 1 + 1e-6
    failed = workloads.count_failures(_causes(ops, refs))
    assert failed["mismatch"] == 1
    assert sum(failed.values()) / len(ops) == pytest.approx(1 / len(ops))


def test_references_come_from_another_route():
    for op in workloads.diagram_many(1) + workloads.contraction_chains(1):
        if op.reference is not None:
            assert op.reference.func is not op.call.func


def test_raised_errors_are_counted_by_cause():
    def raising(exc):
        raise exc

    cases = {SizeLimitError("x"): "size-limit", IdentityMismatchError("x"): "identity-mismatch", KeyError(1): "crash"}
    for exc, cause in cases.items():
        op = workloads.EngineOp("raises", partial(raising, exc), None)
        assert workloads.failure_cause(op, workloads.run_engine(op), None) == cause


def test_cli_output_is_checked_against_frozen_literals():
    op = workloads.cold_classes(1)[1]  # nc --classes m=10 q=1
    outcome = worker.CliRunner()(op)
    assert outcome[1] == 0
    assert workloads.failure_cause(op, outcome, None) is None
    corrupted = dataclasses.replace(op, expect=partial(workloads._expect_classes, 42, 71, 604))
    assert workloads.failure_cause(corrupted, outcome, None) == "mismatch"


def test_cli_exit_codes_are_counted_by_cause():
    op = workloads.CliOp("bad", ("no-such-command",), lambda out: True)
    outcome = worker.CliRunner()(op)
    assert outcome[1] == 2
    assert workloads.failure_cause(op, outcome, None) == "crash"
    assert workloads.check_cli(op, 1, "", "error:size-limit: too big\n") == "size-limit"


def test_reference_laws_match_frozen_counts():
    assert sum(workloads.riordan_closed(10).values()) == 603
    assert sum(workloads.riordan_closed(11).values()) == 1585
    assert workloads.poisson_law(2.0, 4) == chaos.free_poisson_moment(2.0, 4)
    assert workloads.semicircle_law(3.0, 6) == chaos.semicircular_moment(3.0, 6)


def test_path_flops_match_numpy_report():
    f = workloads.hermitian_kernel(2, 3, workloads.rng_for(0, 0))
    for sigma in nc0_classes(4, 2)[2]:
        label = sigma.block_index()
        operands = []
        for j in range(4):
            operands += [f.values, [label[p] for p in range(2 * j + 1, 2 * j + 3)]]
        operands.append([])
        flops = tracer.einsum_flops(f, 4, sigma)
        for opt, got in zip((False, "greedy"), flops):
            path, text = np.einsum_path(*operands, optimize=opt)
            printed = float(re.search(r"Optimized FLOP count:\s*(\S+)", text).group(1))
            assert got + 1 == pytest.approx(printed, rel=1e-3)


def test_tracer_counts_spans_and_restores_the_library():
    f = workloads.hermitian_kernel(1, 3, workloads.rng_for(0, 1))
    original = chaos.moment_diagram
    tr = tracer.Tracer()
    tr.install()
    try:
        chaos.moment_diagram(f, 6)
    finally:
        tr.uninstall()
    assert chaos.moment_diagram is original
    classes = len(nc0_classes(6, 1)[2])
    metrics = tracer.layer_metrics(tr, 1)
    assert metrics["kernels.diagram_integral.calls"][0] == classes
    assert metrics["partitions.nc0_classes.kept"][0] == classes
    calls, self_s, total_s = tr.spans["chaos.moment_diagram"]
    assert calls == 1 and 0 <= self_s <= total_s


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cold-classes", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
