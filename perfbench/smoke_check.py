"""Smoke test of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/smoke_check.py

Runs one pass of each workload, checks the certificate logic against the
outcomes ROADMAP item 1 records for the seed program, and checks run.py's
output contract, including its failure without a source tree.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import certify
import child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_pass(workload: str, seed: int, tmp_path) -> dict:
    """Verdict per operation label ("energy-gap1e-08", ...) or id."""
    import nemprism.cli as cli

    ops = workloads.build(workload, seed, str(tmp_path))
    _, results = child.run_pass(cli, ops)
    return {
        op["id"].split("-", 2)[2]: certify.classify(op, code, out, err, child.flux_certificate)
        for op, (_, code, out, err) in zip(ops, results)
    }


@pytest.mark.parametrize("workload", ["energy", "scan", "topology"])
def test_workload_certifies(workload, tmp_path):
    verdicts = one_pass(workload, 7, tmp_path)
    assert {v for v, _ in verdicts.values()} == {certify.CERTIFIED}, verdicts


def test_stress_runs_without_failures(tmp_path):
    verdicts = one_pass("stress", 7, tmp_path)
    assert len(verdicts) == 12
    assert certify.FAILED not in {v for v, _ in verdicts.values()}, verdicts
    assert verdicts["energy-tol1e-16"][0] == certify.REFUSED


class _NoWriter:
    """Stands in for the spec-file writer when no command is run."""

    def spec(self, spec):
        return "unused.json"


def _gap_energy_op(g: float) -> dict:
    """The stress workload's energy probe at gap g, at the default tol."""
    return workloads._energy_op(_NoWriter(), workloads.gap_spec(g), [1.0, 1.0, 1.0])


def _artifact(energy: float, err: float) -> str:
    om = workloads.omega0(workloads.gap_spec(1e-8))
    return json.dumps({
        "lower": 8.0 * om, "upper": 8.0 * math.sqrt(3.0) * om, "ratio": math.sqrt(3.0),
        "exact": energy, "exact_err": err, "scaled": energy,
    })


def test_seed_gap_energy_is_marked_wrong():
    # what the seed program prints for gap 1e-8: the identity-map energy
    op = _gap_energy_op(1e-8)
    om = workloads.omega0(op["expect"]["spec"])
    exact_flux = lambda spec, prism, tol: (om, 1e-9)  # noqa: E731
    verdict, detail = certify.classify(op, 0, _artifact(15.348247541084767, 2.4e-7), "", exact_flux)
    assert verdict == certify.WRONG and "outside" in detail


def test_flux_certificate_catches_an_energy_inside_the_bounds():
    # gap 1e-7 on the seed: E = 204.49 sits inside the bounds, the flux does not
    op = _gap_energy_op(1e-7)
    om = workloads.omega0(op["expect"]["spec"])
    artifact = _artifact(204.48579236080627, 7.7e-7)
    seed_flux = lambda spec, prism, tol: (1.5707952195250792, 2.4e-7)  # noqa: E731
    right_flux = lambda spec, prism, tol: (om, 1e-7)  # noqa: E731
    assert certify.classify(op, 0, artifact, "", seed_flux)[0] == certify.WRONG
    assert certify.classify(op, 0, artifact, "", right_flux)[0] == certify.CERTIFIED


def test_exit_codes_map_to_verdicts():
    op = _gap_energy_op(1e-8)
    assert certify.classify(op, 2, "", "accuracy failure", None)[0] == certify.REFUSED
    assert certify.classify(op, 1, "", "error", None)[0] == certify.FAILED
    assert certify.classify(op, None, "", "Traceback", None)[0] == certify.FAILED


def _run(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topology", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
