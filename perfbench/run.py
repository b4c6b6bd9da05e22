"""nemprism benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload energy|scan|topology|stress \\
        --seed N --seconds S --trace 0|1

Drives the public CLI entry point ``nemprism.cli.run`` in-process from one
child process (closed loop, one client, one thread, BLAS threads pinned
to 1) over operations generated from the seed, certifies every artifact,
and prints one line per metric (name, value, unit), the run's facts, and
as its last line a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones.

The program is the source tree in ``src/`` beside this directory; without
it the benchmark exits 1 and prints no result.  Scratch inputs, the full
result and the traced spans go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import certify
import workloads
from child import calibration_sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

# The timings are reported at a reference host speed: each operation's
# measured seconds times REFERENCE_S over the median time of the
# calibration samples around it (child.Calibrator; the kernel,
# child.calibration_sample, uses nothing of nemprism).  The hosts this runs
# on change speed by up to 2x within a minute, and by a third between
# samples a second apart, as neighbours load the shared cores and caches;
# the kernel slows with them.  REFERENCE_S is the kernel's time on a quiet
# 2-vCPU Xeon at 2.1 GHz, so on such a host the two readings agree.
# Operations marked "batch_bound" (workloads.py) are reported as measured.
REFERENCE_S = 0.0055


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


# Timed inside the fresh interpreter: on the hosts this was built on, the
# start and exit of a bare `python -c pass` alone take 60 or 125 ms, in
# steps, which would hide the import behind that noise.
_IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import nemprism.cli; "
    "print(time.perf_counter() - start)"
)


def measure_setup(env: dict):
    """Median time for a fresh interpreter to import nemprism.cli (the whole
    package and numpy): at the reference speed, each import scaled by the
    mean speed just before and after it (each the median of four
    calibration samples), and as measured."""
    def speed_sample():
        return statistics.median(calibration_sample() for _ in range(4))

    scaled, measured = [], []
    before = speed_sample()
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        after = speed_sample()
        # the first import may compile bytecode, which users pay once
        if i:
            measured.append(float(out))
            scaled.append(float(out) * REFERENCE_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(measured)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the git checkout at ROOT, if ROOT is one."""
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    return head if Path(top).resolve() == ROOT else "unknown"


def percentile_report(latencies):
    """p50 and p90 of the pooled per-operation latencies, with tail sizes."""
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    p50, p90 = cuts[4], cuts[8]
    beyond = sum(1 for v in latencies if v > p90)
    return p50, p90, beyond


def speed_factor(result: dict) -> float:
    """Median multiplier from measured seconds to seconds at the reference
    speed, over the child's calibration samples."""
    return REFERENCE_S / statistics.median(result["calibration"])


def scaled_latencies(result: dict) -> list:
    """Latencies of the untraced passes, in op order, at the reference speed."""
    return [
        t if reference is None else t * REFERENCE_S / reference
        for t, reference in zip(result["latencies"], result["references"])
    ]


def end_to_end(result: dict, ops: list, setup_s: float, verdicts: dict) -> dict:
    """End-to-end metrics of the untraced passes."""
    n = len(ops)
    latencies = scaled_latencies(result)
    passes = [sum(latencies[k:k + n]) for k in range(0, len(latencies), n)]
    p50, p90, _ = percentile_report(latencies)
    wrong_or_failed = verdicts[certify.WRONG] + verdicts[certify.FAILED]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(passes),
        "op_s.p50": p50,
        "op_s.p90": p90,
        "certified_frac": verdicts[certify.CERTIFIED] / n,
        "trusted_frac": 1.0 - wrong_or_failed / n,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, counts):
    """Median of each layer metric over the traced passes, and the counts
    that differ between passes (they are deterministic, so none should)."""
    passes = result["layer_passes"]
    values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    unstable = [name for name in counts if len({p[name] for p in passes}) != 1]
    values.update((name, passes[0][name]) for name in counts)
    traced = statistics.median(result["traced_walls"])
    untraced = statistics.median(result["walls"])
    gaps = [w - p["layers.self_s"] for w, p in zip(result["traced_walls"], passes)]
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.unattributed_s"] = statistics.median(gaps)
    return values, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "nemprism" / "cli.py").is_file():
        print(f"perfbench: no nemprism source tree at {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix=f"tmp-{tag}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, scratch)
        ops_path = os.path.join(scratch, "ops.json")
        result_path = os.path.join(scratch, "result.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        env = bench_env()
        setup_s, setup_measured = measure_setup(env) if not args.trace else (None, None)
        cmd = [
            sys.executable, str(HERE / "child.py"), ops_path, result_path,
            "--src", str(SRC), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans", str(OUT / f"spans-{tag}.json")]
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.SubprocessError as exc:
            print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(result["outcomes"])
    verdicts = {v: 0 for v in (certify.CERTIFIED, certify.WRONG, certify.REFUSED, certify.FAILED)}
    for outcome in result["outcomes"]:
        verdicts[outcome["verdict"]] += 1
    # A wrong answer is a measured outcome (trusted_frac); a run is
    # incorrect when an operation crashes, exits with a code other than 0
    # or 2, or gives a different artifact on repetition.
    failed = verdicts[certify.FAILED]

    # names and units as BENCHMARK.json declares them; a missing one is a bug
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unstable = []
    if args.trace:
        values, unstable = per_layer(result, [m["name"] for m in declared if m["unit"] == "count"])
        for name in unstable:
            print(f"count {name} differs between traced passes")
    else:
        values = end_to_end(result, ops, setup_s, verdicts)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        f"outcomes: {attempted} operations: " + ", ".join(f"{n} {k}" for k, n in verdicts.items())
        + f"; fail_frac {(verdicts[certify.WRONG] + verdicts[certify.FAILED]) / attempted:.4g}"
        + f"; refused_frac {verdicts[certify.REFUSED] / attempted:.4g}"
    )
    for outcome in result["outcomes"]:
        if outcome["verdict"] != certify.CERTIFIED or outcome["detail"]:
            print(f"  {outcome['verdict']} {outcome['id']}: {outcome['detail']}")
    p50, p90, beyond = percentile_report(result["latencies"])
    print(
        f"passes: {len(result['walls'])} untraced, {len(result['traced_walls'])} traced; "
        f"{len(result['latencies'])} latency samples, {beyond} beyond p90"
    )
    print(
        f"measured: wall_s {statistics.median(result['walls']):.6g} s, op_s.p50 {p50:.6g} s, "
        f"op_s.p90 {p90:.6g} s"
        + (f", setup_s {setup_measured:.6g} s" if setup_measured is not None else "")
        + f"; calibration {statistics.median(result['calibration']):.6g} s "
        f"over {len(result['calibration'])} samples, median speed factor {speed_factor(result):.4g}"
    )
    if args.trace:
        print(
            f"layer self times sum to {values['layers.self_s']:.6g} s of traced wall "
            f"{values['trace.wall_s']:.6g} s; outside every span "
            f"{values['trace.unattributed_s']:.3g} s, tracing overhead "
            f"{values['trace.overhead_s']:.3g} s"
        )
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": result["python"], "numpy": result["numpy"],
        "commit": commit(), "src": source_digest(),
    }
    print("run: " + " ".join(f"{k} {v}" for k, v in facts.items()))
    full = dict(result, facts=facts, metrics=values, verdicts=verdicts)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh)
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
