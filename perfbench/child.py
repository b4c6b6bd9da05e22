"""Run one workload's operations in-process against ``nemprism.cli.run``.

Closed loop, one client: each operation starts when the previous one has
returned.  Usage (normally started by run.py with BLAS threads pinned):

    python3 perfbench/child.py OPS_JSON RESULT_JSON --src SRC --seconds S --trace 0|1 [--spans FILE]

Order of work: one warm-up pass (its artifacts are the ones certified),
then whole passes for about ``--seconds`` (the loop stops when the next
pass would end more than half a pass past it).  With ``--trace 1``
untraced and traced passes alternate, so the tracing overhead is the
difference of their medians.  Between the operations of the untraced
passes, outside their timing, the calibration kernel samples the
host's speed (see Calibrator).  Peak RSS is read before the
certificates run, and the certificates run outside every timed region,
once per operation.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

import certify
import layers

# After each operation, one calibration sample per CALIBRATE_EVERY_S of
# operation time since the last sample, and at least one after an
# operation of CALIBRATE_OP_S or longer.
CALIBRATE_OP_S = 0.04
CALIBRATE_EVERY_S = 0.1
_CAL_W = np.linspace(0.0, 1.0, 450) * (0.6 + 0.4j) + 0.05j
_CAL_ONE = np.ones_like(_CAL_W)


def run_op(cli, op):
    """(seconds, exit code or None on a crash, stdout, stderr) of one operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(op["argv"])
        except Exception:  # a crash is an outcome to record, not to raise
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def digest(code, out: str) -> str:
    """Identity of an artifact.  stderr is left out: Python prints a given
    warning only the first time, so it may differ between repetitions."""
    return hashlib.sha256(f"{code}\0{out}".encode()).hexdigest()


def run_pass(cli, ops, tracer=None, calibrator=None):
    """(seconds, results) of one pass over ``ops``.  With a calibrator, its
    samples are taken between operations and their time is left out."""
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        if calibrator is not None:
            calibrator.before_op(op)
        results.append(run_op(cli, op))
        if calibrator is not None:
            calibrator.after_op(results[-1][0])
    wall = time.perf_counter() - start
    return wall - (calibrator.take_spent() if calibrator is not None else 0.0), results


def calibration_sample() -> float:
    """Seconds for a fixed piece of work that uses nothing of nemprism.

    It mixes what the workloads spend their time on: arithmetic on small
    complex arrays driven from a Python loop (a projective density on 450
    points, as in one quadrature cell), a heap of tuples with a dict beside
    it (as in adaptive refinement), and exact fractions and float formatting
    in pure Python (as in the LP and the CSV output).  Its time, about 5 ms,
    tracks how fast this host runs such work at the moment of measurement;
    it is kept short so that it can run often.
    """
    start = time.perf_counter()
    for _ in range(38):
        p, q = _CAL_W ** 3, _CAL_ONE
        for r2 in (0.09, 0.25, 0.49):
            w2 = _CAL_W * _CAL_W
            p, q = p * (w2 - r2), q * (r2 * w2 - 1.0)
        scale = np.maximum(np.abs(p), np.abs(q))
        float(np.sum((np.abs(p / scale) ** 2 + np.abs(q / scale) ** 2) ** 2))
    heap, values = [], {}
    for k in range(1500):
        heapq.heappush(heap, (-((k * 7919) % 1009) / 1009.0, k, (0.0, 1.0, 0.0, 1.0)))
        values[k] = float(k)
        if len(heap) > 64:
            _, order, _ = heapq.heappop(heap)
            del values[order]
    for k in range(1, 200):
        x = Fraction(k, 3 * k + 1) * Fraction(k * 0.1)
        f"{k * 0.12345:.12g},{x.numerator % 97}"
    return time.perf_counter() - start


class Calibrator:
    """Calibration samples taken between the timed operations.

    ``samples`` are the kernel times in the order taken.  ``references``
    gives, for each timed operation, the median kernel time around it: of
    the k samples before it and the k after it, where k is its duration in
    CALIBRATE_EVERY_S (at least 1).  Operations marked "batch_bound" get
    None: their time is reported as measured.
    """

    def __init__(self):
        self.samples = []
        self._ops = []  # per timed operation: [seconds, samples before it, batch_bound]
        self._pending = 0.0
        self._spent = 0.0

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self.samples.append(calibration_sample())
        self._spent += time.perf_counter() - start
        self._pending = 0.0

    def before_op(self, op: dict) -> None:
        self._ops.append([None, len(self.samples), bool(op.get("batch_bound"))])

    def after_op(self, seconds: float) -> None:
        self._ops[-1][0] = seconds
        self._pending += seconds
        count = int(self._pending / CALIBRATE_EVERY_S) or int(seconds >= CALIBRATE_OP_S)
        if count:
            self.sample(count)

    def take_spent(self) -> float:
        spent, self._spent = self._spent, 0.0
        return spent

    def references(self) -> list:
        out = []
        for seconds, mark, batch_bound in self._ops:
            k = max(1, int(seconds / CALIBRATE_EVERY_S))
            window = self.samples[max(0, mark - k):mark + k]
            out.append(None if batch_bound else statistics.median(window))
        return out


def flux_certificate(spec: dict, prism, tol: float):
    from nemprism import RationalMapSpec, face_flux, make_prism

    res = face_flux(make_prism(*prism), RationalMapSpec.from_dict(spec), "interior", tol=tol)
    return res.value, res.error_estimate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import nemprism
    import nemprism.cli as cli

    src = os.path.realpath(args.src)
    if os.path.commonpath([src, os.path.realpath(nemprism.__file__)]) != src:
        print(f"nemprism was imported from {nemprism.__file__}, not {src}", file=sys.stderr)
        return 1

    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    _, first = run_pass(cli, ops)
    reference = [digest(code, out) for _, code, out, _ in first]
    mismatches = [0] * len(ops)

    def check(results):
        for i, (_, code, out, _) in enumerate(results):
            if digest(code, out) != reference[i]:
                mismatches[i] += 1

    walls, latencies, traced_walls, layer_passes, span_passes, rounds = [], [], [], [], [], []
    tracer = layers.Tracer() if args.trace else None
    calibrator = Calibrator()
    calibrator.sample()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, results = run_pass(cli, ops, calibrator=calibrator)
        check(results)
        walls.append(wall)
        latencies.extend(r[0] for r in results)
        if tracer is not None:
            tracer.install()
            try:
                wall, results = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
            check(results)
            spans, counts = tracer.take()
            traced_walls.append(wall)
            layer_passes.append(layers.summarize(spans, counts))
            span_passes.append(spans)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - start + 0.5 * statistics.median(rounds) >= args.seconds:
            break
    calibrator.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = []
    for op, (_, code, out, err), bad in zip(ops, first, mismatches):
        if bad:
            verdict, detail = certify.FAILED, f"artifact differs in {bad} repetition(s)"
        else:
            verdict, detail = certify.classify(op, code, out, err, flux_certificate)
        outcomes.append({"id": op["id"], "verdict": verdict, "detail": detail})

    if args.spans and span_passes:
        layers.write_spans(args.spans, span_passes)

    result = {
        "walls": walls,
        "latencies": latencies,
        "traced_walls": traced_walls,
        "calibration": calibrator.samples,
        "references": calibrator.references(),
        "layer_passes": layer_passes,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
