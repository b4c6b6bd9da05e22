"""Elastic energy of a tangent configuration: bounds and exact values.

With a one-constant elastic density K (grad n)^2 and a radially constant
conformal (or anticonformal) configuration f = P/Q, the energy over the
whole box is 16 K times the integral of rho Delta phi over the octant's
directions, where rho is the ray length from the vertex to the far faces
and phi = log(|P|^2 + |Q|^2) is the Fubini-Study potential of f, whose
Laplacian is the pulled-back area density.  Green's second identity moves
the Laplacian onto rho:

    E / (16 K) = d A + sum_k (2/h_k) int_{face k} phi du dv
                     - sum_{i<j} c_ij int_{edge ij} phi dt,

with h the octant's half sides and d the degree.  The terms:

* d A is the boundary term on the equator z = 0, where the normal
  derivative of phi is d (by f(w) f(1/w) = 1); on the other two coordinate
  planes it vanishes, and so does that of rho on all three.  A is the
  integral of rho along the equator, h_x asinh(h_y/h_x) + h_y asinh(h_x/h_y).
* On the region of face k, rho = h_k / omega_k and Delta rho dOmega =
  (2/h_k) du dv in the face's own coordinates.
* rho has a kink over each far box edge, where faces i and j meet; the jump
  of its normal derivative gives the edge term with c_ij = (h_i^2 +
  h_j^2)/(h_i h_j).  The edge runs along the third axis from 0 to its half
  side.

A constant added to phi cancels exactly, since sum_k (2/h_k) area_k =
sum c_ij length_ij.  phi has no bumps: a zero/pole pair a distance g apart
adds a term of mass O(g^2 log g) to it, where the area density carries a
bump of mass 8 pi in an area of about g^2, so the faces need no cuts.

On a flat box or a needle a face term is large and cancels against the
edges beside it: face z's, of size h_x h_y / h_z, against the parts
h_x/h_z and h_y/h_z of c_ij on its two far edges, so the round-off floor
of the sum grows with the aspect ratio.  The divergence theorem on face k
with the field (u, v) phi / 2 in its own coordinates, and phi's invariance
along rays (u d/du + v d/dv = -h_k d/dx_k on the face), turn that
difference into

    (2/h_k) int_{face k} phi - sum_{far edges e of face k} (h_e/h_k) int_e phi
        = int_{face k} d phi/dx_k,

where the far edge at x_j = h_j has h_e = h_j, and nothing is left to
cancel.
Face k takes this slope form when h_i h_j > 256 h_k^2 (i, j the other
axes): face z on a flat box, faces y and z on a needle.  It needs the
derivatives of P and Q, and the edges lose the parts of their c_ij that
face k took; on other faces phi alone is the cheaper.

Bounds need only the trapped solid angle omega0:

    lower = 8 K L_z |omega0|,   upper = 8 K sqrt(Lx^2+Ly^2+Lz^2) |omega0|,

so upper/lower = sqrt(a_xz^2 + a_yz^2 + 1) depends on shape alone.  A
sharper certificate comes from the small linear program over per-vertex
potentials with difference bounds given by vertex distances.

``conformal_energies`` integrates many configurations of one structure (a
family scan) in one batched quadrature, and ``conformal_energy`` is its
one-spec case.  ``face_flux`` gives the flux D . nhat of the area density
through the interior faces, which subtend the whole octant of directions:
the trapped solid angle, by the polar quadrature of
``numeric_trapped_area`` at a budget of 3,000,000 evaluations; through the
exterior faces, planes through the vertex, the radial D gives 0.
``energy_report`` refuses, with AccuracyError, an energy that falls outside
its bounds by more than its error estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ._json import Record
from .conformal import (
    RationalMapSpec,
    _accumulate,
    _log_norm,
    _log_norm_gradient,
    _potential,
    _project,
    _spec_points,
    ladder,
)
from .errors import AccuracyError, DomainError, SumRuleError
from .geometry import Prism, edge_length
from .invariants import _trapped_area, trapped_area
from .numerics import _CELL_EVALS, _SEGMENT_EVALS, QuadratureResult, appell_f2_restricted, lp_solve, quad2d_many

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
# Exact energy by Green's identity
# ----------------------------------------------------------------------

# All three octant faces go to one quadrature, each face in its own
# quadrant of the (u, v) plane: face x in (+, +), face y in (-, +), face z
# in (-, -).  The integrand recovers the face from the signs and uses |u|,
# |v|; negation is exact, so every node is a node of the unmirrored face.
# The energy adds the three far box edges in the free quadrant (+, -): the
# edge along axis m is the segment v = -(m + 1) L, 0 <= u <= h_m, where
# L = 1 + h_x + h_y + h_z lies below every point of face z.
_FACE_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))

# A face side or edge at least _LONG times its short side gets root cuts at
# _LONG, 4 _LONG, 16 _LONG, ... times the short side (``ladder``).  phi
# varies on the scale of the short side near the vertex end (u = 0) and is
# nearly constant beyond it; a long root cell puts no node there, so its
# error estimate misses that variation and the quadrature can converge to
# a wrong value.  Cells that grow by 4 from 64 short sides keep an aspect
# ratio of at most 64 near the vertex.
_LONG = 64.0


def _faces_domain(half: Tuple[float, float, float]):
    """(rectangles, initial splits) of the three octant faces, face k
    spanning half sides i along u and j along v in its quadrant of
    ``_FACE_SIGNS``: each side cut at ``ladder(64 * the other side, side)``.
    The faces carry no cuts at density bumps: phi, the energy's face
    integrand, has none (see the module docstring)."""
    rects, splits = [], []
    for k, (su, sv) in enumerate(_FACE_SIGNS):
        i, j = [m for m in range(3) if m != k]
        u, v = su * half[i], sv * half[j]
        rects.append((min(0.0, u), max(0.0, u), min(0.0, v), max(0.0, v)))
        splits.append(([su * c for c in ladder(_LONG * half[j], half[i])],
                       [sv * c for c in ladder(_LONG * half[i], half[j])]))
    return rects, splits


def _layout(u, v, level: float) -> List[List[int]]:
    """The runs of an integrand call at points (u, v) of ``_green_domain``,
    laid out as ``quad2d_many`` lays out a call: its rectangles' 225 points
    each, then its segments' 15 points each.  A run [start, stop, k] is a
    stretch of consecutive cells on one part k: face x, y or z (0, 1, 2),
    read from the signs of each rectangle's first point, as every cell lies
    in its face's quadrant of ``_FACE_SIGNS``, or the far box edge along
    axis m (k = 3 + m), read from each segment's level v = -(m + 1)
    ``level``."""
    runs: List[List[int]] = []
    end = len(u)
    for a, u0, v0 in zip(range(0, end, _CELL_EVALS), u[::_CELL_EVALS].tolist(), v[::_CELL_EVALS].tolist()):
        if v0 <= -level:  # the first segment
            end = a
            break
        k = 0 if u0 > 0.0 else 2 if v0 < 0.0 else 1
        if runs and runs[-1][2] == k:
            runs[-1][1] += _CELL_EVALS
        else:
            runs.append([a, a + _CELL_EVALS, k])
    for a, y in zip(range(end, len(u), _SEGMENT_EVALS), v[end::_SEGMENT_EVALS].tolist()):
        k = 3 if y > -1.5 * level else 4 if y > -2.5 * level else 5
        if runs and runs[-1][2] == k:
            runs[-1][1] += _SEGMENT_EVALS
        else:
            runs.append([a, a + _SEGMENT_EVALS, k])
    return runs


# Face k takes the slope form when h_i h_j > _SLOPE_RATIO h_k^2 (see the
# module docstring).
_SLOPE_RATIO = 256.0


def _edge_level(half: Tuple[float, float, float]) -> float:
    """L = 1 + h_x + h_y + h_z: the edge along axis m lies at v = -(m + 1) L."""
    return 1.0 + sum(half)


def _green_domain(half: Tuple[float, float, float]):
    """(rectangles, initial splits) of the face rectangles of
    ``_faces_domain`` and, as segments, the far box edges, each edge cut at
    ``ladder(64 * the shorter of the other two half sides, edge)``."""
    level = _edge_level(half)
    rects, splits = _faces_domain(half)
    for m, h in enumerate(half):
        y = -(m + 1) * level
        rects.append((0.0, h, y, y))
        splits.append((ladder(_LONG * min(half[n] for n in range(3) if n != m), h), None))
    return rects, splits


def _slope_faces(half: Tuple[float, float, float]) -> Tuple[bool, bool, bool]:
    """Which faces take the slope form: face k does when h_i h_j > 256 h_k^2
    (i, j the other axes), i.e. its phi term outweighs 2 h_k by 256."""
    return tuple(half[i] * half[j] > _SLOPE_RATIO * half[k] ** 2 for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))


def _green_density(half: Tuple[float, float, float], weight: float):
    """``density(spec, u, v)``: ``weight`` times the integrand of Green's
    second identity at points (u, v) of ``_green_domain``, laid out as
    ``quad2d_many`` lays out an integrand call (``_layout``): (2/h_k) phi on
    face k and -c_ij phi on the edge where the faces i and j meet, c_ij =
    h_i/h_j + h_j/h_i, with phi = 2 log |(P, Q)|; a face in the slope form
    (``_slope_faces``) has d phi/dx_k instead, and the edges lose its parts
    of their c_ij (see the module docstring).  ``spec`` may be a per-point
    view from ``_spec_points``.  What depends on the box alone is computed
    here, once per quadrature; each run of cells on one face or edge takes
    that part's coordinates and scale at once.  phi comes from the fused
    kernel ``conformal._potential``, or, in a call that holds a slope-form
    face, from the one ``_accumulate`` pass whose derivatives that face
    needs."""
    hx, hy, hz = half
    slope = _slope_faces(half) + (False,) * 3  # and the edges never
    level = _edge_level(half)
    sloped = any(slope)
    if sloped:  # the edge between faces i and j keeps h_j/h_i unless face i takes it
        c = [sum(half[j] / half[i] for i, j in ((a, b), (b, a)) if not slope[i])
             for a, b in ((1, 2), (0, 2), (0, 1))]
    else:  # c_ij of the edges along x, y and z
        c = [(hy * hy + hz * hz) / (hy * hz), (hx * hx + hz * hz) / (hx * hz), (hx * hx + hy * hy) / (hx * hy)]
    # the scales of faces x, y, z and of the edges along x, y, z carry
    # phi's factor 2 over log |(P, Q)|
    # (0-d arrays, which numpy multiplies by faster than Python floats)
    scales = [np.array(s) for s in [4.0 * weight / h for h in half] + [-2.0 * weight * ci for ci in c]]
    corner = np.array(half)[:, None]
    # face k's point moves by dw = (e_k - w (h_k/r + [k = z])) / (r + z)
    # along x_k, with e = (1, i, 0); the kernel evaluates anticonformal maps
    # at conj(w)
    units = (1.0 + 0j, 1j, 0j)

    def density(spec, u, v):
        runs = _layout(u, v, level)
        points = np.empty((3, len(u)))
        x, y, z = points[0], points[1], points[2]
        for a, b, k in runs:  # face x at (h_x, u, v), face y at (-u, h_y, v), face z at (-u, -v, h_z)
            if k == 0:
                x[a:b] = hx
                y[a:b] = u[a:b]
                z[a:b] = v[a:b]
            elif k == 1:
                np.negative(u[a:b], out=x[a:b])
                y[a:b] = hy
                z[a:b] = v[a:b]
            elif k == 2:
                np.negative(u[a:b], out=x[a:b])
                np.negative(v[a:b], out=y[a:b])
                z[a:b] = hz
            else:  # the edge along axis m = k - 3 at half, coordinate m replaced by u
                points[:, a:b] = corner
                points[k - 3, a:b] = u[a:b]
        w, _, r = _project(x, y, z)
        if sloped and any(slope[k] for _, _, k in runs):  # one pass with derivatives gives phi and its gradient
            acc = _accumulate(spec, w)
            out = _log_norm(spec, acc)
            grad = _log_norm_gradient(spec, acc)
        else:
            out = _potential(spec, w)
        for a, b, k in runs:
            if not slope[k]:
                out[a:b] *= scales[k]
                continue
            t = half[k] / r[a:b]
            if k == 2:
                t += 1.0
            dw = (units[k] - w[a:b] * t) / (r[a:b] + z[a:b])
            if spec.is_anticonformal:
                dw = np.conj(dw)
            out[a:b] = 2.0 * weight * (grad[a:b] * dw).real
        return out

    return density


def _check_modulus(K: float) -> None:
    if not (math.isfinite(K) and K > 0):
        raise DomainError(f"K must be positive and finite, got {K!r}")


_ENERGY_EVALS = 3_000_000  # the budget of each spec's energy, shared by its faces and edges


def conformal_energy(
    prism: Prism,
    spec: RationalMapSpec,
    K: float = 1.0,
    tol: float = 1e-6,
) -> QuadratureResult:
    """Exact elastic energy of the configuration over the whole box.

    By Green's second identity (see the module docstring) the energy is
    16 K d A in closed form plus one adaptive quadrature of the potential
    phi over the three interior octant faces and the three far box edges:
    the absolute tolerance ``tol`` and a budget of 3,000,000 evaluations
    are shared by the faces and edges, so refinement goes wherever the
    error is.  On a flat box or a needle the faces whose phi term would
    cancel against their edges take the slope form of the module
    docstring, and every face side or edge at least 64 times its short
    side gets root cuts at 64, 256, 1024, ... short sides from the vertex
    end (``ladder``), where phi varies.  Raises AccuracyError if the
    quadrature cannot reach ``tol`` within the budget, or at once when
    ``tol`` lies below the round-off floor (see ``quad2d``).  This is the
    one-spec case of ``conformal_energies``.
    """
    (result,) = conformal_energies(prism, [spec], K, tol)
    if isinstance(result, AccuracyError):
        raise result
    return result


def conformal_energies(
    prism: Prism,
    specs: Sequence[RationalMapSpec],
    K: float = 1.0,
    tol: float = 1e-6,
) -> List[Union[QuadratureResult, AccuracyError]]:
    """``conformal_energy`` of many specs in one batched quadrature.

    The specs must share one structure (epsilon, n, orientation, factor
    counts and signs; DomainError otherwise), as the members of a family
    do.  Each spec is one problem of ``quad2d_many`` (the faces and edges,
    the tolerance and the budget), and one kernel call per integrand call
    evaluates every spec in it.  Returns, in input order, the
    QuadratureResult of each spec, or the AccuracyError that
    ``conformal_energy`` raises for it; both carry the closed-form term in
    their value.  Every entry is that of the spec alone (value, error
    estimate and evaluations).
    """
    _check_modulus(K)
    if not specs:
        return []
    at = _spec_points(specs)
    half = prism.octant.half_lengths
    weight = 16.0 * K
    density = _green_density(half, weight)
    results = quad2d_many(
        lambda u, v, k: density(at(k), u, v),
        [_green_domain(half)] * len(specs),
        tol=tol,
        max_evals=_ENERGY_EVALS,
    )
    hx, hy, _ = half
    area = hx * math.asinh(hy / hx) + hy * math.asinh(hx / hy)
    out = []
    for spec, res in zip(specs, results):
        closed = weight * spec.degree * area
        if isinstance(res, AccuracyError):
            res.value += closed
        else:
            res = replace(res, value=res.value + closed)
        out.append(res)
    return out


_FLUX_EVALS = 3_000_000  # the budget of the interior face_flux


def face_flux(
    prism: Prism,
    spec: RationalMapSpec,
    which: str = "interior",
    tol: float = 1e-8,
) -> QuadratureResult:
    """Signed flux of D through the interior (or exterior) octant faces.

    The interior faces subtend the whole octant of directions, so their
    flux is the trapped solid angle for every box: the polar quadrature of
    the area density over the quarter disc of ``numeric_trapped_area``
    (``invariants._trapped_area``), to the absolute tolerance ``tol``
    within 3,000,000 evaluations, three times the oracle's budget, so that
    it answers close zero/pole gaps the oracle refuses from its cut counts.
    A ``tol`` below four times the rounding floor of the narrowest bump
    raises AccuracyError before any evaluation (``check_rounding_floor``).

    The exterior flux is QuadratureResult(0.0, 0.0, 0) without an
    evaluation: D is radial, so D . nhat = 0 on every plane through the
    vertex.  ``tol`` must be positive and finite (DomainError) either way.
    """
    if which not in ("interior", "exterior"):
        raise DomainError(f"which must be 'interior' or 'exterior', got {which!r}")
    if which == "exterior":
        if not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
        return QuadratureResult(0.0, 0.0, 0)
    return _trapped_area(spec, tol, _FLUX_EVALS)


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
    outside lower - err <= E <= upper + err contradicts the paper's bounds,
    so its error estimate is wrong, and AccuracyError is raised instead of
    a report.
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
