"""Seeded operation lists for the four benchmark workloads.

Every operation is one ``nemprism`` command line.  ``build`` writes the
spec files it needs into a scratch directory and returns plain dicts:

    {"id": ..., "kind": command name, "argv": [...], "expect": {...}}

plus ``"batch_bound": True`` on operations whose time run.py reports
unscaled (see REFERENCE_S there).

``expect`` carries what the certificates need: the spec as generated, the
prism, the tolerance and, where a command's outcome is fixed by
construction, that outcome.  The program sees only the argv and the spec
files; nothing in ``expect`` is passed to it.
"""
from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List

WORKLOADS = ("energy", "scan", "topology", "stress")

# Every factor structure (n, real count, imag count, complex count) of
# degree |n| + 2(a + b) + 4c <= 9.  The energy pass visits each
# ENERGY_VISITS times, so only the positions, signs and prisms change with
# the seed and the cost of a pass stays close to constant across seeds.
STRUCTURES = [
    (sign * m, a, b, c)
    for m in (1, 3)
    for sign in (1, -1)
    for c in range(3)
    for a in range(5)
    for b in range(5)
    if m + 2 * (a + b) + 4 * c <= 9
]

ENERGY_TOL = 1e-7
# With two visits, the energy latency percentiles spread 8% over ten seeds
# against 3% over five runs of one seed: the inputs, not the host, set
# most of it.  Four visits average more inputs per pass.
ENERGY_VISITS = 4
# --tol of `energy`, `invariants` and `sweep` when the flag is not given
CLI_DEFAULT_TOL = 1e-6
MAX_ASPECT = 8.0


def degree(spec: dict) -> int:
    """Topological degree of a spec dict, computed here, not by the program."""
    return (
        abs(spec["n"])
        + 2 * (len(spec["real"]) + len(spec["imag"]))
        + 4 * len(spec["complex"])
    )


def omega0(spec: dict) -> float:
    """Trapped solid angle degree * pi / 2, negated for anticonformal maps."""
    value = 0.5 * degree(spec) * math.pi
    return -value if spec["orientation"] == "anticonformal" else value


def _random_spec(rng: random.Random, structure) -> dict:
    n, a, b, c = structure
    spec = {
        "epsilon": rng.choice((-1, 1)),
        "n": n,
        "real": [[rng.uniform(0.08, 0.92), rng.choice((-1, 1))] for _ in range(a)],
        "imag": [[rng.uniform(0.08, 0.92), rng.choice((-1, 1))] for _ in range(b)],
        "complex": [],
        "orientation": rng.choice(("conformal", "anticonformal")),
    }
    for _ in range(c):
        m = rng.uniform(0.15, 0.85)
        th = rng.uniform(0.15, 0.5 * math.pi - 0.15)
        spec["complex"].append([m * math.cos(th), m * math.sin(th), rng.choice((-1, 1))])
    return spec


def _prisms(rng: random.Random, count: int) -> List[List[float]]:
    """Boxes with Lz = 1 and Lx / Lz stratified log-uniformly over [1, 8]."""
    strata = list(range(count))
    rng.shuffle(strata)
    out = []
    for k in strata:
        lx = MAX_ASPECT ** ((k + rng.random()) / count)
        ly = lx ** rng.random()
        out.append([lx, ly, 1.0])
    return out


def _prism_arg(prism) -> str:
    return ",".join(repr(float(v)) for v in prism)


class _Writer:
    """Writes spec files into the scratch directory, one per spec."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def spec(self, spec: dict) -> str:
        path = os.path.join(self.directory, f"spec{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path


def _energy_op(w: _Writer, spec: dict, prism, tol=None) -> dict:
    argv = ["energy", "--prism", _prism_arg(prism), "--spec", w.spec(spec)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    return {
        "kind": "energy",
        "argv": argv,
        "expect": {"spec": spec, "prism": prism, "tol": CLI_DEFAULT_TOL if tol is None else tol},
    }


def _invariants_op(w: _Writer, spec: dict) -> dict:
    return {
        "kind": "invariants",
        "argv": ["invariants", "--spec", w.spec(spec)],
        "expect": {"spec": spec, "tol": CLI_DEFAULT_TOL},
    }


def _energy(rng: random.Random, w: _Writer) -> List[dict]:
    structures = STRUCTURES * ENERGY_VISITS
    prisms = _prisms(rng, len(structures))
    return [
        _energy_op(w, _random_spec(rng, s), p, ENERGY_TOL)
        for s, p in zip(structures, prisms)
    ]


def _imag1_family_op(command: str, prism, extra, expect) -> dict:
    return {
        "kind": command,
        "argv": [command, "--family", "imag1", "--prism", _prism_arg(prism)] + extra,
        "expect": dict(expect, prism=prism, omega0=1.5 * math.pi),
    }


def _scan(rng: random.Random, w: _Writer) -> List[dict]:
    ops = [
        _imag1_family_op("minimize", [1.0, 1.0, 1.0], [], {"classification": "edge-singular"}),
        _imag1_family_op("minimize", [20.0, 10.0, 1.0], [], {"classification": "smooth"}),
        _imag1_family_op(
            "sweep", [20.0, 10.0, 1.0], ["--steps", "19"],
            {"range": [0.05, 0.95], "steps": 19, "tol": CLI_DEFAULT_TOL},
        ),
    ]
    # The list is fixed; the seed only sets the order.
    rng.shuffle(ops)
    return ops


def _topology(rng: random.Random, w: _Writer) -> List[dict]:
    ops = []
    # every third structure, so each pass spans low to high degree
    for structure in STRUCTURES[::3]:
        ops.append(_invariants_op(w, _random_spec(rng, structure)))
    for k, prism in enumerate(_prisms(rng, 10)):
        # each odd degree up to 9 twice; the exact simplex's cost depends on it
        om = rng.choice((-1, 1)) * 0.5 * (2 * (k % 5) + 1) * math.pi
        for constraints in ("all-pairs", "edges"):
            ops.append({
                "kind": "bounds",
                "argv": [
                    "bounds", "--prism", _prism_arg(prism),
                    "--omega0", repr(om), "--lp-constraints", constraints,
                ],
                "expect": {"prism": prism, "omega0": om},
            })
    spec = _random_spec(rng, rng.choice(STRUCTURES))
    prism = _prisms(rng, 1)[0]
    ops.append({
        "kind": "field",
        "argv": ["field", "--prism", _prism_arg(prism), "--spec", w.spec(spec), "--grid", "24"],
        "expect": {"spec": spec, "prism": prism, "grid": 24},
    })
    return ops


def gap_spec(g: float) -> dict:
    """Unit-cube probe of a close zero/pole pair on every axis (gap g)."""
    return {
        "epsilon": 1,
        "n": 1,
        "real": [[0.5, 1], [0.5 + g, -1], [0.3, 1], [0.3 + g, -1]],
        "imag": [[0.4, 1], [0.4 + g, -1]],
        "complex": [],
        "orientation": "conformal",
    }


def imag1_spec(s: float) -> dict:
    return {
        "epsilon": 1, "n": 1, "real": [], "imag": [[s, 1]], "complex": [],
        "orientation": "conformal",
    }


def _stress(rng: random.Random, w: _Writer) -> List[dict]:
    cube = [1.0, 1.0, 1.0]
    ops = []
    for g in (1e-4, 1e-6, 1e-7, 1e-8):
        spec = gap_spec(g)
        ops.append(dict(_energy_op(w, spec, cube), label=f"gap{g:.0e}"))
        # The trapped-area oracle rates thousands of root cells (millions of
        # points) in one call here; that is bound by memory bandwidth, which
        # run.py's speed calibration does not track, so its time is
        # reported as measured.
        ops.append(dict(_invariants_op(w, spec), label=f"gap{g:.0e}", batch_bound=True))
    for s in (0.99, 1.0 - 1e-4, 1.0 - 1e-8):
        ops.append(dict(_energy_op(w, imag1_spec(s), cube), label=f"imag1-{s!r}"))
    ops.append(dict(_energy_op(w, imag1_spec(0.5), cube, 1e-16), label="tol1e-16"))
    # The probes are fixed; the seed only sets the order they run in.
    rng.shuffle(ops)
    return ops


_BUILDERS = {"energy": _energy, "scan": _scan, "topology": _topology, "stress": _stress}


def build(workload: str, seed: int, directory: str) -> List[Dict]:
    """Operation list of one pass of ``workload``; spec files go to ``directory``."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, _Writer(directory))
    for index, op in enumerate(ops):
        label = op.pop("label", None)
        op["id"] = f"{workload}-{index:03d}-{op['kind']}" + (f"-{label}" if label else "")
    return ops
