"""Topological invariants of a tangent map: closed forms and numeric oracles.

The closed forms read the invariants straight off the factor data of the
rational map.  Each has an independent numeric counterpart: the trapped
solid angle is recovered by adaptive quadrature of the area density over
the quarter disc, and the kink numbers by tracking the director angle along
the three boundary paths of the projected octant (the arc |w| = 1 between
the x and y edge directions, the imaginary segment between the z and y
edges, and the real segment between the z and x edges).

Winding sign convention: every oracle returns

    -(total angle change - shortest endpoint-to-endpoint change) / 2 pi,

the one sign choice consistent with the closed forms on the anchor cases
(the identity map, all kinks zero, and the single-imaginary-zero map with
k_z = -1, whose boundary phase runs 3 pi / 2 against a shortest path of
-pi / 2).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ._json import Record
from .conformal import (
    RationalMapSpec,
    _accumulate,
    _density,
    _lift,
    _parts,
    area_density,
    bracket,
    check_rounding_floor,
    factor_scales,
    ladder,
)
from .errors import PathResolutionError
from .numerics import QuadratureResult, quad2d

__all__ = [
    "TopologicalInvariants",
    "trapped_area",
    "edge_orientations",
    "kink_numbers",
    "omega_min",
    "invariants_of",
    "invariants_report",
    "numeric_trapped_area",
    "numeric_kink_x",
    "numeric_kink_y",
    "numeric_kink_z",
]


@dataclass(frozen=True)
class TopologicalInvariants(Record):
    """Edge orientations, kink numbers, and trapped solid angle data."""

    e_x: int = field(metadata={"json": "ex"})
    e_y: int = field(metadata={"json": "ey"})
    e_z: int = field(metadata={"json": "ez"})
    k_x: int = field(metadata={"json": "kx"})
    k_y: int = field(metadata={"json": "ky"})
    k_z: int = field(metadata={"json": "kz"})
    omega0: float
    omega_min: float


def _parity(m: int) -> int:
    return 1 if m % 2 == 0 else -1


def trapped_area(spec: RationalMapSpec) -> float:
    """Trapped solid angle at the origin vertex: (degree / 2) * pi, signed.

    Anticonformal orientation reverses the sphere map and negates the value.
    """
    omega = 0.5 * spec.degree * math.pi
    return -omega if spec.is_anticonformal else omega


def edge_orientations(spec: RationalMapSpec) -> Tuple[int, int, int]:
    """Director signs on the x, y, z edges.

    For conformal orientation these are eps*(-1)^a, eps*(-1)^b*(-1)^((n-1)/2)
    and sgn n.  The anticonformal configuration is the conformal one with
    n_y reflected pointwise, so only e_y flips.
    """
    e_x = spec.epsilon * _parity(spec.a)
    e_y = spec.epsilon * _parity(spec.b) * _parity((spec.n - 1) // 2)
    e_z = 1 if spec.n > 0 else -1
    if spec.is_anticonformal:
        e_y = -e_y
    return (e_x, e_y, e_z)


def kink_numbers(spec: RationalMapSpec) -> Tuple[int, int, int]:
    """Winding counts of the director along the three face paths.

    Factor sums run over the factors sorted by distance from the origin,
    nearest first; the alternating signs below depend on that order.  The
    n_y reflection of the anticonformal configuration negates k_x and k_z
    and leaves k_y alone.
    """
    e_x, e_y, e_z = edge_orientations(spec)
    if spec.is_anticonformal:
        e_y = -e_y  # the factor sums below take the conformal e_y

    rhos = [sign for _, sign in sorted(spec.real_factors, key=lambda f: f[0])]
    sigmas = [sign for _, sign in sorted(spec.imag_factors, key=lambda f: f[0])]
    taus = [sign for _, sign in spec.complex_factors]

    # k_x, doubled to stay in integers: the odd-count correction adds e_z.
    alt_sig = sum(_parity(k) * s for k, s in enumerate(sigmas, start=1))
    two_kx = -_parity(spec.b) * e_y * (alt_sig + (0 if spec.b % 2 == 0 else e_z))
    alt_rho = sum(_parity(j) * s for j, s in enumerate(rhos, start=1))
    two_ky = -_parity(spec.a) * e_x * (alt_rho + (0 if spec.a % 2 == 0 else e_z))
    four_kz = (e_x * e_y - spec.n) - 2 * sum(rhos) - 2 * sum(sigmas) - 4 * sum(taus)
    if two_kx % 2 or two_ky % 2 or four_kz % 4:
        raise AssertionError(
            f"non-integer kink numbers for {spec!r}: {two_kx}/2 {two_ky}/2 {four_kz}/4"
        )
    k_x, k_y, k_z = two_kx // 2, two_ky // 2, four_kz // 4
    if spec.is_anticonformal:
        k_x, k_z = -k_x, -k_z
    return (k_x, k_y, k_z)


def omega_min(kinks: Tuple[int, int, int]) -> float:
    """Homotopy lower bound 2 pi (|k_x| + |k_y| + |k_z| + 1/4) on |omega0|."""
    k_x, k_y, k_z = kinks
    return 2.0 * math.pi * (abs(k_x) + abs(k_y) + abs(k_z) + 0.25)


def invariants_of(spec: RationalMapSpec) -> TopologicalInvariants:
    """All closed-form invariants bundled together."""
    e = edge_orientations(spec)
    k = kink_numbers(spec)
    return TopologicalInvariants(
        e[0], e[1], e[2], k[0], k[1], k[2], trapped_area(spec), omega_min(k)
    )


def invariants_report(spec: RationalMapSpec, tol: float = 1e-6) -> dict:
    """Closed-form invariants plus numeric cross-checks, as a flat dict.

    The numeric fields recompute omega0 by quadrature and the kink numbers
    by phase tracking, so disagreement with the closed forms is visible in
    the serialized output (``nemprism invariants`` exits 2 on it).
    """
    data = invariants_of(spec).to_dict()
    data["omega0_numeric"] = numeric_trapped_area(spec, tol=tol).value
    data["kx_numeric"] = numeric_kink_x(spec)
    data["ky_numeric"] = numeric_kink_y(spec)
    data["kz_numeric"] = numeric_kink_z(spec)
    return data


# ----------------------------------------------------------------------
# Quadrature oracle for the trapped solid angle
# ----------------------------------------------------------------------

_TRAPPED_EVALS = 1_000_000  # the budget of numeric_trapped_area


def _trapped_area(spec: RationalMapSpec, tol: float, max_evals: int) -> QuadratureResult:
    """Trapped solid angle by quadrature of the area density within
    ``max_evals`` evaluations: ``numeric_trapped_area`` at 1,000,000 and
    the interior ``energy.face_flux`` at 3,000,000.

    Integrates the pulled-back density over the quarter disc in polar
    coordinates (Jacobian rho); the orientation sign is structural (the
    anticonformal map reverses the sphere orientation).  Cell boundaries are
    seeded from ``factor_scales``, the one source of bump scales: at the
    radius and angle of each factor's first-quadrant point, bracketing it
    (``bracket``, the radius in units of the modulus), so mirrored
    positions give the same cells, since a close zero/pole pair or a
    factor's own |f| = 1 bubble carries its covering mass in a bump narrow
    enough to slip between the nodes of an unseeded cell; and, when listed,
    at the radius b of the origin bubble and ``ladder(4 b, 0.5)`` beyond it,
    where its tail decays.

    A ``tol`` below four times the rounding floor of the narrowest bump
    raises AccuracyError before any evaluation (``check_rounding_floor``;
    near the unit circle delta = (1 - s^2) / s, and s = 1 - 1e-10 missed by
    2e-6).
    """
    scales = factor_scales(spec)
    check_rounding_floor(scales, tol)

    def integrand(rho, theta):
        w = rho * np.exp(1j * theta)
        return area_density(spec, w) * rho

    # cuts on or past the domain edges are dropped
    rho_cuts, theta_cuts = [], []
    for w0, delta in scales:
        if w0:
            rho_cuts += [abs(w0) * c for c in bracket(1.0, delta, 0.5 * math.pi)]
            theta_cuts += bracket(cmath.phase(w0), delta, 0.5 * math.pi)
        else:  # the origin bubble, of radius delta
            rho_cuts += [delta] + ladder(4.0 * delta, 0.5)
    res = quad2d(
        integrand,
        (0.0, 1.0, 0.0, 0.5 * math.pi),
        tol=tol,
        max_evals=max_evals,
        initial_splits=(rho_cuts, theta_cuts),
    )
    sign = -1.0 if spec.is_anticonformal else 1.0
    return QuadratureResult(sign * res.value, res.error_estimate, res.evaluations)


def numeric_trapped_area(spec: RationalMapSpec, tol: float = 1e-6) -> QuadratureResult:
    """Trapped solid angle by quadrature of the area density over the
    quarter disc (``_trapped_area``), within 1,000,000 evaluations.

    Its one caller in the package is ``invariants_report``, the numeric
    cross-check of ``nemprism invariants``; the small budget lets it refuse
    a spec whose root cells alone would overrun it at once, from their cut
    counts.
    """
    return _trapped_area(spec, tol, _TRAPPED_EVALS)


# ----------------------------------------------------------------------
# Winding oracles for the kink numbers
# ----------------------------------------------------------------------

_INITIAL_SAMPLES = 512
_MAX_PATH_SAMPLES = 1 << 21


def _wrap(delta):
    """Wrap angle differences to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(delta)))


def _track_winding(spec: RationalMapSpec, path, t0: float, t1: float, comps, seeds) -> int:
    """Count extra full turns of the director along a parametrized path.

    ``path`` maps parameter arrays to w values; ``comps`` picks the two
    director components spanning the face plane, angle = atan2(first,
    second).  Sampling starts on a floor of 512 uniform intervals, plus
    ``bracket(center, width, t1 - t0)`` for each (center, width) of
    ``seeds``, the parameter value and width of a factor's bump on the path
    (``factor_scales``), and midpoint-refines any interval whose wrapped
    angle step reaches pi/2.  Each round samples only its new midpoints and
    splices them in, so every parameter reaches ``path`` once; the kernel
    is pointwise, so the result is the one of re-sampling every point.

    A wrapped step alone can hide a full turn: a near-cancelling zero/pole
    pair sweeps the angle by almost 2 pi inside an arbitrarily narrow
    window.  The director moves along a great circle, so its angular speed
    is exactly sqrt(area density) |dw/dt|; intervals whose estimated swept
    arc reaches pi/2 are refined as well, which makes such sweeps visible.
    An interval to refine that is one float spacing wide, so that its
    midpoint is one of its ends, raises PathResolutionError at once.
    """
    i, j = comps
    cuts = [t for c, width in seeds for t in bracket(c, width, t1 - t0) if t0 <= t <= t1]
    params = np.unique(np.concatenate([np.linspace(t0, t1, _INITIAL_SAMPLES + 1), cuts]))

    def sample(ts):
        w = path(ts)
        acc = _accumulate(spec, w)
        e = _lift(*_parts(spec, acc)[:2])
        return np.arctan2(e[i], e[j]), np.sqrt(_density(spec, acc, sphere=False)), w

    alpha, speed, w = sample(params)
    while True:
        steps = _wrap(np.diff(alpha))
        arc = 0.5 * (speed[:-1] + speed[1:]) * np.abs(np.diff(w))
        bad = (np.abs(steps) >= 0.5 * math.pi) | (arc >= 0.5 * math.pi)
        if not bad.any():
            break
        if params.size * 2 > _MAX_PATH_SAMPLES:
            raise PathResolutionError(
                f"could not resolve the winding path within "
                f"{_MAX_PATH_SAMPLES} samples (step or arc >= pi/2 persists)"
            )
        lo, hi = params[:-1][bad], params[1:][bad]
        mids = 0.5 * (lo + hi)
        narrow = (mids <= lo) | (mids >= hi)
        if narrow.any():
            raise PathResolutionError(
                f"winding path interval [{float(lo[narrow][0])!r}, {float(hi[narrow][0])!r}] cannot be "
                f"bisected: it is one float spacing wide (step or arc >= pi/2 persists)"
            )
        at = np.flatnonzero(bad) + 1
        params = np.insert(params, at, mids)
        alpha, speed, w = (np.insert(old, at, new) for old, new in zip((alpha, speed, w), sample(mids)))

    total = float(steps.sum())
    shortest = float(_wrap(alpha[-1] - alpha[0]))
    raw = (total - shortest) / (2.0 * math.pi)
    if abs(raw - round(raw)) > 0.05:
        raise PathResolutionError(
            f"winding count did not settle on an integer (got {raw!r})"
        )
    return -int(round(raw))


def _segment_winding(spec: RationalMapSpec, path, axis: int, comps) -> int:
    """Winding along the real (``axis`` 0) or imaginary (1) unit segment.

    Each factor point of ``factor_scales`` off the other axis seeds the
    sampling at its modulus |w0|, with width delta |w0|.  The path starts
    at most 1e-6 from the vertex direction, below half of every on-path
    position (|w0| of a point on this axis, the position itself) and, when
    ``factor_scales`` lists the origin bubble, inside it (below b / 64):
    a path starting outside it would miss its crossing of |f| = 1.
    """
    scales = factor_scales(spec)
    seeds = [(abs(w0), delta * abs(w0)) for w0, delta in scales if (w0.real, w0.imag)[axis]]
    # the points on this path, and w = 0
    t0 = min([1e-6] + [0.5 * abs(w0) if w0 else delta / 64.0 for w0, delta in scales if not (w0.imag, w0.real)[axis]])
    return _track_winding(spec, path, t0, 1.0, comps, seeds)


def numeric_kink_x(spec: RationalMapSpec) -> int:
    """k_x from the director winding along the imaginary segment [0, i].

    On the x = 0 face the director lies in the (y, z) plane; the path runs
    from just off the z edge (``_segment_winding``) to the y edge.
    """
    return _segment_winding(spec, lambda t: 1j * t, 1, (1, 2))


def numeric_kink_y(spec: RationalMapSpec) -> int:
    """k_y from the director winding along the real segment [0, 1]."""
    return _segment_winding(spec, lambda t: t + 0.0j, 0, (0, 2))


def numeric_kink_z(spec: RationalMapSpec) -> int:
    """k_z from the director winding along the arc w = exp(i theta).

    Factors approaching the unit circle pinch the arc; each first-quadrant
    point of ``factor_scales`` (angle 0 for real, pi/2 for imaginary, the
    first-quadrant arg t for complex) seeds the sampling at its angle, with
    its width delta.
    """
    seeds = [(cmath.phase(w0), delta) for w0, delta in factor_scales(spec) if w0]
    return _track_winding(spec, lambda t: np.exp(1j * t), 0.0, 0.5 * math.pi, (1, 0), seeds)
