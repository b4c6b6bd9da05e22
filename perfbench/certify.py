"""Outcome of one operation, judged against the paper's certificates.

Every closed form used here (degree, omega0, the flux and diagonal bounds)
is computed from the generated inputs by this file, not read back from the
program.  The one numeric certificate that needs the program is the
interior flux of an energy input, which the caller supplies as ``flux``.

Verdicts:

* ``certified`` - exit 0 and every certificate holds,
* ``wrong``     - exit 0 but a certificate fails (a silent wrong answer),
* ``refused``   - exit 2: the program declined to answer,
* ``failed``    - a crash, any other exit code, or an artifact that
                  differs between repetitions of the same input.
"""
from __future__ import annotations

import json
import math
from typing import Callable, List, Tuple

from workloads import omega0

CERTIFIED = "certified"
WRONG = "wrong"
REFUSED = "refused"
FAILED = "failed"

# Artifacts print floats with 12 significant digits (CSV) or full repr
# (JSON); 1e-9 relative covers both and is far below any real defect.
REL = 1e-9

# An adaptive quadrature's error estimate is not a bound.  A result that
# misses its closed form by more than QUAD_SLACK tolerances is wrong; a
# smaller miss beyond one tolerance certifies, with a note in the detail.
# The defects these certificates exist for (a bump hidden between nodes)
# miss by a fraction of omega0, many orders of magnitude more.
QUAD_SLACK = 10.0

# (spec dict, prism, tol) -> (interior flux, its error estimate); raises
# RuntimeError when the program cannot reach tol.
FluxFn = Callable[[dict, list, float], Tuple[float, float]]


def _close(value: float, expected: float, rel: float = REL) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


def _box(prism) -> Tuple[float, float, float]:
    """(Lz, space diagonal, volume) of a generated prism."""
    lx, ly, lz = prism
    return lz, math.sqrt(lx * lx + ly * ly + lz * lz), lx * ly * lz


def _quadrature_check(what: str, value: float, exact: float, tol: float, problems, notes):
    miss = abs(value - exact) / tol
    if not miss <= QUAD_SLACK:
        problems.append(f"{what} {value!r} != {exact!r}")
    elif miss > 1.0:
        notes.append(f"{what} misses {exact!r} by {miss:.3g} tol")


def _check_bounds_fields(rep: dict, prism, om: float) -> List[str]:
    lz, diag, _ = _box(prism)
    problems = []
    if not _close(rep["lower"], 8.0 * lz * abs(om)):
        problems.append(f"lower {rep['lower']!r} != 8 Lz |omega0|")
    if not _close(rep["upper"], 8.0 * diag * abs(om)):
        problems.append(f"upper {rep['upper']!r} != 8 diag |omega0|")
    return problems


def check_energy(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    rep = json.loads(out)
    spec, prism, tol = expect["spec"], expect["prism"], expect["tol"]
    om = omega0(spec)
    problems = _check_bounds_fields(rep, prism, om)
    energy, err = rep["exact"], rep["exact_err"]
    if not err <= tol:
        problems.append(f"error estimate {err!r} above tol {tol!r}")
    if not rep["lower"] - err <= energy <= rep["upper"] + err:
        problems.append(f"E {energy!r} outside [{rep['lower']!r}, {rep['upper']!r}]")
    try:
        value, value_err = flux(spec, prism, tol)
    except RuntimeError as exc:
        problems.append(f"interior flux not computable at tol {tol!r}: {exc}")
    else:
        _quadrature_check("interior flux", value, om, max(value_err, tol), problems, notes)
    return problems


def check_invariants(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    rep = json.loads(out)
    om = omega0(expect["spec"])
    problems = []
    for k in ("kx", "ky", "kz"):
        if rep[k] != rep[k + "_numeric"]:
            problems.append(f"{k} {rep[k]} != numeric {rep[k + '_numeric']}")
    if not _close(rep["omega0"], om):
        problems.append(f"omega0 {rep['omega0']!r} != degree * pi / 2 = {om!r}")
    _quadrature_check("omega0_numeric", rep["omega0_numeric"], om, expect["tol"], problems, notes)
    floor = 2.0 * math.pi * (abs(rep["kx"]) + abs(rep["ky"]) + abs(rep["kz"]) + 0.25)
    if not _close(rep["omega_min"], floor):
        problems.append(f"omega_min {rep['omega_min']!r} != {floor!r}")
    return problems


def check_bounds(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    rep = json.loads(out)
    prism, om = expect["prism"], expect["omega0"]
    lz, diag, _ = _box(prism)
    problems = _check_bounds_fields(rep, prism, om)
    if not _close(rep["ratio"], diag / lz):
        problems.append(f"ratio {rep['ratio']!r} != diag / Lz")
    if rep["lp"]["feasible"] is not True:
        problems.append("LP certificate not feasible")
    if not _close(rep["lp"]["objective"], 8.0 * lz * abs(om)):
        problems.append(f"LP objective {rep['lp']['objective']!r} != 8 Lz |omega0|")
    return problems


def check_field(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    lines = out.splitlines()
    grid = expect["grid"]
    problems = []
    if lines[0] != "x,y,z,nx,ny,nz":
        problems.append(f"header {lines[0]!r}")
    if len(lines) - 1 != (grid + 1) ** 3 - 1:
        problems.append(f"{len(lines) - 1} rows, expected {(grid + 1) ** 3 - 1}")
    bad_norm = bad_tangent = 0
    for line in lines[1:]:
        x, y, z, nx, ny, nz = (float(v) for v in line.split(","))
        if abs(nx * nx + ny * ny + nz * nz - 1.0) > REL:
            bad_norm += 1
        # tangent boundary condition on the coordinate planes
        if (x == 0.0 and abs(nx) > REL) or (y == 0.0 and abs(ny) > REL) or (
            z == 0.0 and abs(nz) > REL
        ):
            bad_tangent += 1
    if bad_norm:
        problems.append(f"{bad_norm} rows are not unit vectors")
    if bad_tangent:
        problems.append(f"{bad_tangent} rows are not tangent on a coordinate plane")
    return problems


def check_sweep(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    lines = out.splitlines()
    lo_s, hi_s = expect["range"]
    steps, tol, om = expect["steps"], expect["tol"], expect["omega0"]
    lz, diag, volume = _box(expect["prism"])
    lower, upper = 8.0 * lz * abs(om), 8.0 * diag * abs(om)
    problems = []
    if lines[0] != "s,E,E_err,eps_scaled,lower,upper":
        problems.append(f"header {lines[0]!r}")
    if len(lines) - 1 != steps:
        problems.append(f"{len(lines) - 1} rows, expected {steps}")
    for i, line in enumerate(lines[1:]):
        s, energy, err, scaled, row_lower, row_upper = (float(v) for v in line.split(","))
        where = f"row {i} (s={s!r})"
        if not _close(s, lo_s + i * (hi_s - lo_s) / (steps - 1)):
            problems.append(f"{where}: unexpected parameter")
        if not (_close(row_lower, lower) and _close(row_upper, upper)):
            problems.append(f"{where}: bounds differ from the closed forms")
        if not err <= tol * (1.0 + REL):
            problems.append(f"{where}: error estimate {err!r} above tol")
        if not lower * (1.0 - REL) - err <= energy <= upper * (1.0 + REL) + err:
            problems.append(f"{where}: E {energy!r} outside [{lower!r}, {upper!r}]")
        if not _close(scaled, energy / volume ** (1.0 / 3.0)):
            problems.append(f"{where}: scaled energy inconsistent")
    return problems


def check_minimize(expect: dict, out: str, flux: FluxFn, notes: List[str]) -> List[str]:
    rep = json.loads(out)
    lz, diag, volume = _box(expect["prism"])
    om = expect["omega0"]
    scale = volume ** (1.0 / 3.0)
    # minimize runs its energies at --quad-tol 1e-5
    slack = 1e-5 / scale
    problems = []
    if rep["classification"] != expect["classification"]:
        problems.append(
            f"classification {rep['classification']!r}, expected {expect['classification']!r}"
        )
    if not 8.0 * lz * abs(om) / scale - slack <= rep["min_value"] <= 8.0 * diag * abs(om) / scale + slack:
        problems.append(f"min_value {rep['min_value']!r} outside the scaled bounds")
    if not 1e-3 <= rep["argmin"] <= 1.0 - 1e-3:
        problems.append(f"argmin {rep['argmin']!r} outside the search interval")
    return problems


CHECKS = {
    "energy": check_energy,
    "invariants": check_invariants,
    "bounds": check_bounds,
    "field": check_field,
    "sweep": check_sweep,
    "minimize": check_minimize,
}


def classify(op: dict, code, out: str, err: str, flux: FluxFn) -> Tuple[str, str]:
    """Verdict and a one-line reason (or notes, when certified) for one artifact."""
    if code == 2:
        return REFUSED, err.strip().splitlines()[-1] if err.strip() else "exit 2"
    if code != 0:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        return FAILED, f"exit {code}: {tail}"
    notes: List[str] = []
    try:
        problems = CHECKS[op["kind"]](op["expect"], out, flux, notes)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable artifact: {exc!r}"]
    if problems:
        return WRONG, "; ".join(problems)
    return CERTIFIED, "; ".join(notes)
