"""Elastic energy of a tangent configuration: bounds and exact values.

With a one-constant elastic density K (grad n)^2 and a radially constant
conformal (or anticonformal) configuration, the energy over the whole box
is an exact flux integral

    E = 16 K * sum over interior octant faces of  integral r (D . nhat) dA,

because (grad n)^2 = 2 |D| pointwise for these fields and D is radial; the
exterior faces (the coordinate planes through the vertex) carry no flux.
Bounds need only the trapped solid angle omega0:

    lower = 8 K L_z |omega0|,   upper = 8 K sqrt(Lx^2+Ly^2+Lz^2) |omega0|,

so upper/lower = sqrt(a_xz^2 + a_yz^2 + 1) depends on shape alone.  A
sharper certificate comes from the small linear program over per-vertex
potentials with difference bounds given by vertex distances.

``conformal_energy`` integrates one configuration; ``conformal_energies``
integrates many of one structure (a family scan) in one batched
quadrature with identical results.  ``energy_report`` refuses, with
AccuracyError, an energy that falls outside its bounds by more than its
error estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ._json import Record
from .conformal import (
    RationalMapSpec,
    _project,
    _spec_points,
    bracket_offsets,
    factor_scales,
    sphere_density,
)
from .errors import AccuracyError, DomainError, SumRuleError
from .geometry import Prism, edge_length
from .invariants import trapped_area
from .numerics import QuadratureResult, appell_f2_restricted, lp_solve, quad2d, quad2d_many

__all__ = [
    "ElasticConstants",
    "EnergyReport",
    "LowerBoundCertificate",
    "lower_bound_prism",
    "upper_bound_prism",
    "bound_ratio",
    "lower_bound_lp",
    "prism_lp_certificate",
    "conformal_energy",
    "conformal_energies",
    "face_flux",
    "unwrapped_energy",
    "scaled_energy",
    "energy_report",
]

@dataclass(frozen=True)
class ElasticConstants:
    """One-constant modulus K, with optional splay/twist/bend values.

    When all three anisotropic constants are present, min_constant() gives
    the modulus that keeps the lower bounds valid for the full energy.
    """

    K: float = 1.0
    K1: Optional[float] = None
    K2: Optional[float] = None
    K3: Optional[float] = None

    def __post_init__(self):
        for name in ("K", "K1", "K2", "K3"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")

    def min_constant(self) -> float:
        ks = [k for k in (self.K1, self.K2, self.K3) if k is not None]
        if len(ks) == 3:
            return min(ks)
        return self.K


@dataclass(frozen=True)
class EnergyReport(Record):
    """Bounds and, when computed, the exact energy of one configuration."""

    lower: float
    upper: float
    ratio: float
    exact: Optional[float] = None
    exact_err: Optional[float] = None
    scaled: Optional[float] = None


@dataclass(frozen=True)
class LowerBoundCertificate(Record):
    """Feasible potentials certifying the LP lower bound 2K sum xi_a Omega_a."""

    objective: float
    xi: Tuple[float, ...]
    points: Tuple[Tuple[float, float, float], ...]
    feasible: bool


def lower_bound_prism(prism: Prism, omega0: float, K: float = 1.0) -> float:
    """Shape-aware topological lower bound 8 K L_z |omega0|."""
    return 8.0 * K * prism.Lz * abs(omega0)


def upper_bound_prism(prism: Prism, omega0: float, K: float = 1.0) -> float:
    """Closed-form upper bound 8 K sqrt(Lx^2 + Ly^2 + Lz^2) |omega0|."""
    return 8.0 * K * prism.diagonal * abs(omega0)


def bound_ratio(prism: Prism) -> float:
    """upper/lower = sqrt(a_xz^2 + a_yz^2 + 1); sqrt(3) for a cube."""
    axz = prism.aspect("x", "z")
    ayz = prism.aspect("y", "z")
    return math.sqrt(axz * axz + ayz * ayz + 1.0)


# ----------------------------------------------------------------------
# Linear-program lower bound
# ----------------------------------------------------------------------

def lower_bound_lp(
    vertex_data: Sequence[Tuple[Sequence[float], float]],
    K: float = 1.0,
    pairs: Union[str, Sequence[Tuple[int, int]]] = "all",
) -> LowerBoundCertificate:
    """Best potential-based lower bound 2 K max sum xi_a Omega_a.

    ``vertex_data`` holds (point, solid angle) pairs; the potentials obey
    |xi_a - xi_b| <= |point_a - point_b| for every selected pair ("all", the
    default, constrains every pair; otherwise pass explicit index pairs).
    The solid angles must sum to zero within 1e-9 (they are centred exactly
    before solving) and the gauge min xi = 0 holds on output.
    """
    if len(vertex_data) < 2:
        raise DomainError("at least two vertices are required")
    points = [tuple(float(v) for v in p) for p, _ in vertex_data]
    omegas = [float(o) for _, o in vertex_data]
    total = math.fsum(omegas)
    if abs(total) > 1e-9:
        raise SumRuleError(
            f"vertex solid angles must sum to zero (got {total!r}); "
            f"the configuration cannot satisfy the boundary conditions"
        )
    exact = [Fraction(o) for o in omegas]
    mean = sum(exact) / len(exact)
    costs = [o - mean for o in exact]

    if isinstance(pairs, str):
        if pairs != "all":
            raise DomainError(f"pairs must be 'all' or explicit index pairs, got {pairs!r}")
        index_pairs = [
            (i, j) for i in range(len(points)) for j in range(i + 1, len(points))
        ]
    else:
        index_pairs = [(int(i), int(j)) for i, j in pairs]

    constraints = []
    for i, j in index_pairs:
        d = math.dist(points[i], points[j])
        constraints.append((i, j, d))

    xi, raw = lp_solve(costs, constraints)
    if min(xi) != 0.0:
        raise AssertionError(f"gauge min xi = 0 violated: {xi!r}")
    feasible = all(
        abs(xi[i] - xi[j]) <= d * (1.0 + 1e-12) + 1e-12 for i, j, d in constraints
    )
    return LowerBoundCertificate(
        objective=2.0 * K * raw,
        xi=tuple(xi),
        points=tuple(points),
        feasible=feasible,
    )


def prism_lp_certificate(
    prism: Prism,
    omega0: float,
    K: float = 1.0,
    constraints: str = "all-pairs",
) -> LowerBoundCertificate:
    """LP certificate for a box with parity-alternating vertex angles.

    ``constraints`` selects "all-pairs" (every vertex pair, the default) or
    "edges" (box edges only).
    """
    vertices = prism.vertices
    data = [(v.coords, v.parity * omega0) for v in vertices]
    if constraints == "all-pairs":
        pairs: Union[str, List[Tuple[int, int]]] = "all"
    elif constraints == "edges":
        pairs = [
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if edge_length(prism, vertices[i], vertices[j]) is not None
        ]
    else:
        raise DomainError(
            f"constraints must be 'all-pairs' or 'edges', got {constraints!r}"
        )
    return lower_bound_lp(data, K=K, pairs=pairs)


# ----------------------------------------------------------------------
# Exact energy by face quadrature
# ----------------------------------------------------------------------

def _face_cuts(
    spec: RationalMapSpec, k: int, value: float, free, limits
) -> Tuple[List[float], List[float]]:
    """Face coordinates of the rays through the factor directions.

    The sphere density peaks around the factor positions; where such a ray
    pierces the face, the integrand carries a bump that can be narrower than
    the node spacing of a large quadrature cell, so cell boundaries are
    seeded there.
    """
    cuts_u: List[float] = []
    cuts_v: List[float] = []
    for w0, delta in factor_scales(spec):
        a = abs(w0) ** 2
        d = (2.0 * w0.real / (1.0 + a), 2.0 * w0.imag / (1.0 + a), (1.0 - a) / (1.0 + a))
        if d[k] <= 1e-12:
            continue
        t = value / d[k]
        u0, v0 = t * d[free[0]], t * d[free[1]]
        if 0.0 < u0 < limits[0] and 0.0 < v0 < limits[1]:
            # the spot subtends an angle ~delta seen from the vertex, so
            # its footprint at distance t has radius ~delta * t
            cuts_u.append(u0)
            cuts_v.append(v0)
            for off in bracket_offsets(delta * t, max(limits)):
                cuts_u.extend((u0 - off, u0 + off))
                cuts_v.extend((v0 - off, v0 + off))
    return cuts_u, cuts_v


# All three octant faces go to one quadrature, each face in its own
# quadrant of the (u, v) plane: face x in (+, +), face y in (-, +), face z
# in (-, -).  The integrand recovers the face from the signs and uses |u|,
# |v|; negation is exact, so every node is a node of the unmirrored face.
_FACE_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))


def _faces_domain(
    prism: Prism, spec: RationalMapSpec, values: Tuple[float, float, float]
) -> Tuple[List[Tuple[float, float, float, float]], list]:
    """The three octant faces as quadrature rectangles with their cuts.

    Face k lies in the plane where coordinate k equals ``values[k]``; its
    free coordinates range over the other two half-sides.
    """
    half = prism.octant.half_lengths
    rects = []
    splits = []
    for k, (su, sv) in enumerate(_FACE_SIGNS):
        free = [m for m in range(3) if m != k]
        limits = (half[free[0]], half[free[1]])
        (u0, u1), (v0, v1) = sorted((0.0, su * limits[0])), sorted((0.0, sv * limits[1]))
        rects.append((u0, u1, v0, v1))
        if values[k] > 0.0:
            cuts_u, cuts_v = _face_cuts(spec, k, values[k], free, limits)
            splits.append(([su * c for c in cuts_u], [sv * c for c in cuts_v]))
        else:
            splits.append(None)
    return rects, splits


def _faces_density(spec, values, energy_weight: Optional[float], u, v):
    """The flux integrand at face points (u, v) of ``_faces_domain``.

    With an ``energy_weight`` it is energy_weight * r (D . nhat) =
    energy_weight * value * density / r^2 (16 K for the energy); without
    one it is the signed flux D . nhat = value * density / r^3.  ``spec``
    may be a per-point view from ``_spec_points``.
    """
    on_x = u > 0.0  # face x; v < 0 is face z, the rest face y
    on_z = v < 0.0
    value = np.where(on_x, values[0], np.where(on_z, values[2], values[1]))
    au = np.abs(u)
    av = np.abs(v)
    x = np.where(on_x, value, au)
    y = np.where(on_x, au, np.where(on_z, av, value))
    z = np.where(on_z, value, av)
    w, r2, r = _project(x, y, z)
    dens = sphere_density(spec, w)
    if energy_weight is not None:
        return energy_weight * value * dens / r2
    sign = -1.0 if spec.is_anticonformal else 1.0
    return sign * value * dens / (r2 * r)


def _faces_integral(
    prism: Prism,
    spec: RationalMapSpec,
    values: Tuple[float, float, float],
    energy_weight: Optional[float],
    tol: float,
    max_evals: int,
) -> QuadratureResult:
    """Quadrature of ``_faces_density`` over the three octant faces at once;
    ``tol`` and ``max_evals`` are shared by the three faces."""
    rects, splits = _faces_domain(prism, spec, values)
    return quad2d(
        lambda u, v: _faces_density(spec, values, energy_weight, u, v),
        rects, tol=tol, max_evals=max_evals, initial_splits=splits,
    )


def _check_modulus(K: float) -> None:
    if not (math.isfinite(K) and K > 0):
        raise DomainError(f"K must be positive and finite, got {K!r}")


def conformal_energy(
    prism: Prism,
    spec: RationalMapSpec,
    K: float = 1.0,
    tol: float = 1e-6,
    max_evals_per_face: int = 1_000_000,
) -> QuadratureResult:
    """Exact elastic energy of the configuration over the whole box.

    Sums 16 K r (D . nhat) over the three interior octant faces in one
    adaptive quadrature: the absolute tolerance ``tol`` and a budget of
    3 * ``max_evals_per_face`` evaluations are shared by the faces, so
    refinement goes wherever the error is, whichever face holds it.  The
    exterior faces contribute nothing: D is radial, so its normal component
    vanishes on any plane through the vertex.  Raises AccuracyError if the
    faces cannot reach ``tol`` within the budget, or at once when ``tol``
    lies below the round-off floor (see ``quad2d``); a budget that is not a
    non-negative integer (nan included) raises DomainError.
    """
    _check_modulus(K)
    return _faces_integral(prism, spec, prism.octant.half_lengths, 16.0 * K, tol, 3 * max_evals_per_face)


def conformal_energies(
    prism: Prism,
    specs: Sequence[RationalMapSpec],
    K: float = 1.0,
    tol: float = 1e-6,
    max_evals_per_face: int = 1_000_000,
) -> List[Union[QuadratureResult, AccuracyError]]:
    """``conformal_energy`` of many specs in one batched quadrature.

    The specs must share one structure (epsilon, n, orientation, factor
    counts and signs; DomainError otherwise), as the members of a family
    do.  Each spec is one problem of ``quad2d_many`` with the faces, cuts,
    tolerance and budget that ``conformal_energy`` gives it, and one kernel
    call per integrand call evaluates every spec in it.  Returns, in input
    order, the QuadratureResult of each spec, or the AccuracyError that
    ``conformal_energy`` would raise for it; every entry equals the
    serial call's (value, error estimate and evaluations).
    """
    _check_modulus(K)
    if not specs:
        return []
    at = _spec_points(specs)
    half = prism.octant.half_lengths
    weight = 16.0 * K
    return quad2d_many(
        lambda u, v, k: _faces_density(at(k), half, weight, u, v),
        [_faces_domain(prism, spec, half) for spec in specs],
        tol=tol,
        max_evals=3 * max_evals_per_face,
    )


def face_flux(
    prism: Prism,
    spec: RationalMapSpec,
    which: str = "interior",
    tol: float = 1e-8,
    max_evals_per_face: int = 1_000_000,
) -> QuadratureResult:
    """Signed flux of D through the interior (or exterior) octant faces.

    Over the interior faces the total equals the trapped solid angle; over
    an exterior face the integrand vanishes identically.  One adaptive
    quadrature covers the three faces, sharing the absolute tolerance
    ``tol`` and a budget of 3 * ``max_evals_per_face`` evaluations.
    """
    if which not in ("interior", "exterior"):
        raise DomainError(f"which must be 'interior' or 'exterior', got {which!r}")
    values = prism.octant.half_lengths if which == "interior" else (0.0, 0.0, 0.0)
    return _faces_integral(prism, spec, values, None, tol, 3 * max_evals_per_face)


# ----------------------------------------------------------------------
# Closed-form energy of the identity-map configuration
# ----------------------------------------------------------------------

def unwrapped_energy(prism: Prism, K: float = 1.0, tol: float = 1e-10) -> float:
    """Exact energy of the identity-map configuration on a box.

    Cyclic sum of 8 a_ji a_ki K L_i F2(1,1/2,1/2;3/2,3/2; -a_ji^2, -a_ki^2)
    over i in (x, y, z); about 15.35 K on the unit cube, a fifth above the
    4 pi K lower bound.  ``tol`` bounds the relative error of the energy:
    each F2 is computed to relative tolerance ``tol``, and the terms are
    positive.
    """
    L = {"x": prism.Lx, "y": prism.Ly, "z": prism.Lz}
    total = 0.0
    for i, j, k in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        aji = L[j] / L[i]
        aki = L[k] / L[i]
        f2 = appell_f2_restricted(aji * aji, aki * aki, tol=tol)
        total += 8.0 * aji * aki * K * L[i] * f2
    return total


def scaled_energy(energy: float, prism: Prism) -> float:
    """Energy per unit cube-root volume, the shape-comparison normalization."""
    return energy / prism.volume ** (1.0 / 3.0)


def energy_report(
    prism: Prism,
    spec: RationalMapSpec,
    K: float = 1.0,
    tol: float = 1e-6,
) -> EnergyReport:
    """Bounds plus the exact quadrature energy for one configuration.

    The bounds certify the quadrature: an energy E with error estimate err
    outside lower - err <= E <= upper + err is wrong (a bump the cells
    missed), so AccuracyError is raised instead of a report.
    """
    omega0 = trapped_area(spec)
    lower = lower_bound_prism(prism, omega0, K)
    upper = upper_bound_prism(prism, omega0, K)
    exact = conformal_energy(prism, spec, K, tol)
    err = exact.error_estimate
    if not (lower - err <= exact.value <= upper + err):
        raise AccuracyError(
            f"energy {exact.value!r} (error estimate {err:.3e}) lies outside "
            f"the bounds [{lower!r}, {upper!r}]",
            exact.value,
            err,
            exact.evaluations,
        )
    return EnergyReport(
        lower=lower,
        upper=upper,
        ratio=bound_ratio(prism),
        exact=exact.value,
        exact_err=exact.error_estimate,
        scaled=scaled_energy(exact.value, prism),
    )
