"""Command-line front end: flag parsing, JSON/CSV emission, exit codes.

Every command reads its inputs, the job fields ``_COMMANDS`` gives it, from
flags (or from a JSON job file via ``--job``), runs one computation, and
writes a single JSON or CSV artifact to stdout or to ``--out``.  Output
bytes are deterministic for fixed inputs and tolerances.  Exit codes: 0
success, 1 invalid input (the message names the offending flag or field), 2
numerical-accuracy failure.  A ``sweep`` with failed rows still writes
every row, names each failed ``s`` on stderr and exits 2; so does a
``minimize`` with failed points, unless every point of its scan failed
(then it writes nothing), and an ``invariants`` whose numeric cross-checks
disagree with the closed forms (a kink number, or omega0 beyond ``tol``).
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from functools import cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._json import Record
from .conformal import RationalMapSpec, _director_many
from .energy import (
    ElasticConstants,
    EnergyReport,
    bound_ratio,
    energy_report,
    lower_bound_prism,
    prism_lp_certificate,
    upper_bound_prism,
)
from .errors import AccuracyError
from .geometry import make_prism
from .invariants import invariants_report
from .sweep import builtin_family, minimize_family, sweep_energy

__all__ = ["Job", "run", "main"]


@dataclass(frozen=True)
class Job(Record):
    """One fully described unit of work, JSON round-trippable."""

    _json_name = "job"

    command: str
    prism: Optional[Tuple[float, float, float]] = None
    spec: Optional[dict] = None
    family: Optional[str] = None
    K: float = 1.0
    K1: Optional[float] = None
    K2: Optional[float] = None
    K3: Optional[float] = None
    tol: Optional[float] = None  # None: the command's default in _COMMANDS, if any
    quad_tol: float = 1e-5
    omega0: Optional[float] = None
    range: Tuple[float, float] = (0.05, 0.95)
    steps: int = 19
    grid: int = 16
    lp_constraints: str = "all-pairs"
    out: Optional[str] = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(
                f"command must be one of {', '.join(_COMMANDS)}, got {self.command!r}"
            )
        _, _, required, optional, tol, _ = _COMMANDS[self.command]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"command {self.command!r} requires {name!r}")
        for f in fields(self)[1:]:  # every field after 'command'
            if f.name not in required + optional + ("out",) and getattr(self, f.name) != f.default:
                takes = ", ".join(map(repr, required + optional))
                raise ValueError(f"command {self.command!r} takes {takes}, not {f.name!r}")
        if self.tol is None:
            object.__setattr__(self, "tol", tol)
        if self.lp_constraints not in ("all-pairs", "edges"):
            raise ValueError(
                f"lp_constraints must be 'all-pairs' or 'edges', got {self.lp_constraints!r}"
            )


# ----------------------------------------------------------------------
# Flag parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on bad input (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _prism_arg(text: str) -> Tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated side lengths, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"side lengths must be decimals, got {text!r}")


def _range_arg(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range bounds must be decimals, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range must satisfy lo < hi, got {text!r}")
    return lo, hi


# argparse keywords of each job field's flag ('spec' names a file); --tol
# takes its help from _COMMANDS
_FLAGS = {
    "out": dict(metavar="FILE", help="write the artifact here instead of stdout"),
    "prism": dict(type=_prism_arg, metavar="LX,LY,LZ"),
    "spec": dict(metavar="FILE", help="rational-map JSON file"),
    "family": dict(help="built-in family name (for example imag1)"),
    "omega0": dict(type=float, help="trapped solid angle in radians"),
    "K": dict(type=float, help="one-constant elastic modulus"),
    "K1": dict(type=float, help="splay constant (give all three for a min-constant bound)"),
    "K2": dict(type=float, help="twist constant"),
    "K3": dict(type=float, help="bend constant"),
    "tol": dict(type=float),
    "quad_tol": dict(type=float, help="energy tolerance inside the search"),
    "range": dict(type=_range_arg, metavar="LO:HI"),
    "steps": dict(type=int, help="number of parameter values"),
    "grid": dict(type=int, help="subdivisions per axis; samples sit at the grid nodes, "
                 "the singular vertex excluded"),
    "lp_constraints": dict(choices=("all-pairs", "edges"),
                           help="vertex pairs constrained in the LP certificate"),
}


@cache
def _build_parser() -> _Parser:
    """The flag parser, built once per process and reused by every run()."""
    parser = _Parser(
        prog="nemprism",
        description="Tangent unit-vector configurations on a box: "
        "invariants, energy bounds, exact energies, and parameter sweeps.",
    )
    parser.add_argument(
        "--job",
        metavar="FILE",
        help="run a JSON job file instead of passing flags",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_, about, required, optional, _, tol_help) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for field in ("out",) + required + optional:
            flag = dict(_FLAGS[field], required=field in required)
            if field == "tol":
                flag["help"] = tol_help
            p.add_argument("--" + field.replace("_", "-"), **flag)
    return parser


def _read_json(flag: str, path: str):
    """The JSON value in the file ``path`` named by ``flag``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{flag}: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag}: {path!r} is not valid JSON: {exc}") from exc


def _job_from_args(args: argparse.Namespace) -> Job:
    # each Job field but 'spec' (a file name here) is the flag of that name
    kwargs = {
        f.name: getattr(args, f.name)
        for f in fields(Job)
        if f.name != "spec" and getattr(args, f.name, None) is not None
    }
    if getattr(args, "spec", None) is not None:
        kwargs["spec"] = _read_json("--spec", args.spec)
    try:
        return Job(**kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid flags: {exc}") from exc


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------

class _PartialArtifact(Exception):
    """A complete artifact of which some parts missed their tolerance.

    The artifact is still written, each problem goes to stderr, and the
    command exits 2.
    """

    def __init__(self, payload: str, problems: List[str]):
        super().__init__(payload)
        self.payload = payload
        self.problems = problems


# printf-style format of every float in a CSV artifact; "%.12g" % x and
# f"{x:.12g}" give the same text for every float (-0, nan and inf included)
_FLOAT_FORMAT = "%.12g"

# the director nx, ny, nz ending a row of the field CSV (x, y, z, nx, ny,
# nz); _run_field writes x, y and z from strings formatted once per grid
# value, and fills the director triples of a block of rows with one %
_FIELD_TRIPLE = ",".join([_FLOAT_FORMAT] * 3) + "\n"

# field rows formatted per block: bounds the Python floats and strings alive
# at once, so the peak memory is the text's, not the table's as Python floats
_FIELD_BLOCK = 4096


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % x


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _prism(job: Job):
    try:
        return make_prism(*job.prism)
    except ValueError as exc:
        raise ValueError(f"--prism: {exc}") from exc


def _run_invariants(job: Job) -> str:
    spec = RationalMapSpec.from_dict(job.spec)
    report = invariants_report(spec, tol=job.tol)
    payload = _emit_json(report)
    problems = [
        f"{k}_numeric {report[k + '_numeric']} != {k} {report[k]}"
        for k in ("kx", "ky", "kz") if report[k + "_numeric"] != report[k]
    ]
    miss = abs(report["omega0_numeric"] - report["omega0"])
    if not miss <= job.tol:
        problems.append(f"omega0_numeric {report['omega0_numeric']!r} misses omega0 "
                        f"{report['omega0']!r} by {miss:.3e} > tol {job.tol:.3e}")
    if problems:
        raise _PartialArtifact(payload, problems)
    return payload


def _run_bounds(job: Job) -> str:
    prism = _prism(job)
    constants = ElasticConstants(job.K, job.K1, job.K2, job.K3)
    # Every bound printed is at most 8 k |diagonal| |omega0| for k = 1 (the LP
    # objective before scaling by K), K or the min constant.
    for k in (1.0, job.K, constants.min_constant()):
        upper = upper_bound_prism(prism, job.omega0, k)
        if not math.isfinite(upper):
            raise ValueError(
                f"--omega0 {job.omega0!r} with K={k!r} gives the bound "
                f"8 K |diagonal| |omega0| = {upper!r}, which must be finite"
            )
    report = EnergyReport(
        lower=lower_bound_prism(prism, job.omega0, job.K),
        upper=upper_bound_prism(prism, job.omega0, job.K),
        ratio=bound_ratio(prism),
    )
    payload = report.to_dict()
    cert = prism_lp_certificate(prism, job.omega0, job.K, constraints=job.lp_constraints)
    payload["lp"] = cert.to_dict()
    if constants.min_constant() != job.K:
        payload["lower_min_constant"] = lower_bound_prism(
            prism, job.omega0, constants.min_constant()
        )
    return _emit_json(payload)


def _run_energy(job: Job) -> str:
    prism = _prism(job)
    spec = RationalMapSpec.from_dict(job.spec)
    report = energy_report(prism, spec, K=job.K, tol=job.tol)
    return _emit_json(report.to_dict())


def _run_sweep(job: Job) -> str:
    prism = _prism(job)
    family = builtin_family(job.family)
    if family.has_parameter:
        if job.steps < 1:
            raise ValueError(f"--steps must be at least 1, got {job.steps}")
        try:
            values = np.linspace(job.range[0], job.range[1], job.steps)
        except (MemoryError, ValueError):  # ValueError: past numpy's own size limits
            raise ValueError(f"--steps {job.steps} needs more memory than can be allocated") from None
    else:
        values = []
    rows = sweep_energy(family, prism, values, K=job.K, tol=job.tol)
    lines = ["s,E,E_err,eps_scaled,lower,upper"]
    problems: List[str] = []
    for row in rows:
        s = "" if row.s is None else _fmt(row.s)
        lines.append(
            ",".join(
                [s] + [_fmt(v) for v in (row.energy, row.energy_err, row.scaled, row.lower, row.upper)]
            )
        )
        if row.accuracy_failed:
            where = f"s={s}" if s else f"of {job.family}"
            problems.append(
                f"sweep row {where}: error estimate {row.energy_err:.3e} > tol {job.tol:.3e}"
            )
    payload = "\n".join(lines) + "\n"
    if problems:
        raise _PartialArtifact(payload, problems)
    return payload


def _run_minimize(job: Job) -> str:
    prism = _prism(job)
    family = builtin_family(job.family)
    result, classification = minimize_family(
        family, prism, K=job.K, tol=job.tol, quad_tol=job.quad_tol
    )
    payload = result.to_dict()
    payload["classification"] = classification
    payload = _emit_json(payload)
    if result.failures:
        raise _PartialArtifact(payload, [
            f"minimize point s={_fmt(s)}: error estimate {exc.error_estimate:.3e} "
            f"> quad-tol {job.quad_tol:.3e}, counted as +inf"
            for s, exc in result.failures
        ])
    return payload


def _run_field(job: Job) -> str:
    if job.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {job.grid}")
    prism = _prism(job)
    spec = RationalMapSpec.from_dict(job.spec)
    try:
        n = job.grid + 1
        axes = [np.linspace(0.0, h, n) for h in prism.octant.half_lengths]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([X.reshape(-1), Y.reshape(-1), Z.reshape(-1)], axis=-1)
        kept = np.flatnonzero(np.sum(pts * pts, axis=-1) > 0.0)  # drop the singular vertex
        directors = _director_many(spec, pts[kept])
        # node (i, j, l) is row i n^2 + j n + l, z fastest: its text starts
        # with the "x,y," of node (i, j) and goes on with "z," + _FIELD_TRIPLE
        xs, ys, zs = ([_FLOAT_FORMAT % v + "," for v in axis.tolist()] for axis in axes)
        xy = [x + y for x in xs for y in ys]
        z_rows = [z + _FIELD_TRIPLE for z in zs]
        blocks = ["x,y,z,nx,ny,nz\n"]
        for i in range(0, len(kept), _FIELD_BLOCK):
            ij, l = np.divmod(kept[i:i + _FIELD_BLOCK], n)
            rows = "".join(map(operator.add, map(xy.__getitem__, ij.tolist()), map(z_rows.__getitem__, l.tolist())))
            blocks.append(rows % tuple(directors[i:i + _FIELD_BLOCK].ravel().tolist()))
        return "".join(blocks)
    except (MemoryError, ValueError):  # ValueError: past numpy's own size limits
        raise ValueError(f"--grid {job.grid} needs more memory than can be allocated") from None


# Per command: handler, help line, the job fields it requires, the others
# it takes (its flags follow this order), and its default 'tol' and --tol
# help, both None if it takes no 'tol' (minimize's is a parameter
# resolution, the others' an absolute quadrature tolerance).  A field a
# command does not take must keep its Job default, the only default there
# is: the flags have none, so a job file and its flags give one artifact.
_COMMANDS = {
    "invariants": (_run_invariants, "closed-form invariants with numeric cross-checks",
                   ("spec",), ("tol",), 1e-6, "quadrature tolerance for the numeric solid angle"),
    "bounds": (_run_bounds, "topological bounds from a trapped solid angle",
               ("prism", "omega0"), ("K", "K1", "K2", "K3", "lp_constraints"), None, None),
    "energy": (_run_energy, "exact energy with bounds",
               ("prism", "spec"), ("K", "tol"), 1e-6, "absolute energy tolerance"),
    "sweep": (_run_sweep, "energy across a family parameter, as CSV", ("family", "prism"),
              ("range", "steps", "K", "tol"), 1e-6, "absolute energy tolerance per value"),
    "minimize": (_run_minimize, "minimize scaled energy over a family",
                 ("family", "prism"), ("K", "tol", "quad_tol"), 1e-3, "parameter resolution"),
    "field": (_run_field, "director samples on an octant grid, as CSV",
              ("spec", "prism"), ("grid",), None, None),
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse flags (or a job file), execute, emit the artifact.

    Returns the process exit code; all error text goes to stderr.
    """
    parser = _build_parser()
    code = 0
    try:
        args = parser.parse_args(argv)
        if args.job is not None:
            if args.command is not None:
                raise ValueError("--job: give either a job file or a command, not both")
            job = Job.from_dict(_read_json("--job", args.job))
        elif args.command is None:
            parser.error("a command or --job is required")
        else:
            job = _job_from_args(args)

        payload = _COMMANDS[job.command][0](job)
    except _PartialArtifact as exc:
        for problem in exc.problems:
            print(f"nemprism: accuracy failure: {problem}", file=sys.stderr)
        payload, code = exc.payload, 2
    except SystemExit as exc:
        # argparse --help exits 0; flag errors exit 1 via _Parser.error.
        return int(exc.code) if exc.code else 0
    except (ValueError, LookupError) as exc:
        print(f"nemprism: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        detail = ""
        if isinstance(exc, AccuracyError) and exc.evaluations > 0:
            detail = f"; best estimate {exc.value!r}"
        print(f"nemprism: accuracy failure: {exc}{detail}", file=sys.stderr)
        return 2

    if job.out is not None:
        try:
            with open(job.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"nemprism: error: --out: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
