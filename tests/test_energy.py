import math

import numpy as np
import pytest

import nemprism.energy
from nemprism.conformal import _accumulate, _log_norm, _log_norm_gradient, _project, _spec_points
from nemprism.numerics import _rate_cells, _root_cells
from helpers import random_prism, random_spec

from nemprism import (
    AccuracyError,
    DomainError,
    ElasticConstants,
    EnergyReport,
    LowerBoundCertificate,
    QuadratureResult,
    RationalMapSpec,
    SumRuleError,
    UNWRAPPED_VARIANTS,
    bound_ratio,
    builtin_family,
    conformal_energies,
    conformal_energy,
    energy_report,
    face_flux,
    lower_bound_lp,
    lower_bound_prism,
    make_prism,
    numeric_trapped_area,
    prism_lp_certificate,
    scaled_energy,
    stereo_lift,
    trapped_area,
    unwrapped_energy,
    upper_bound_prism,
)

# frozen from a tol=1e-12 run; the coarse anchor is the window
# [15.25, 15.45] with ratio to 4 pi in [1.21, 1.23]
E0_CUBE = 15.348248444887467


def test_cube_bounds_closed_forms():
    cube = make_prism(1.0, 1.0, 1.0)
    assert lower_bound_prism(cube, math.pi / 2, 1.0) == pytest.approx(
        4 * math.pi, abs=1e-12
    )
    assert upper_bound_prism(cube, math.pi / 2, 1.0) == pytest.approx(
        4 * math.sqrt(3.0) * math.pi, abs=1e-12
    )
    assert bound_ratio(cube) == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_bound_scaling_laws():
    rng = np.random.default_rng(83)
    for _ in range(10):
        p = random_prism(rng)
        omega = float(rng.uniform(0.5, 20.0)) * float(rng.choice([-1, 1]))
        K = float(rng.uniform(0.1, 5.0))
        lo = lower_bound_prism(p, omega, K)
        assert lo == pytest.approx(8.0 * K * p.Lz * abs(omega), rel=1e-15)
        hi = upper_bound_prism(p, omega, K)
        assert hi == pytest.approx(8.0 * K * p.diagonal * abs(omega), rel=1e-15)
        assert hi / lo == pytest.approx(bound_ratio(p), rel=1e-14)


def test_bound_ratio_aspect_form():
    rng = np.random.default_rng(89)
    for _ in range(10):
        p = random_prism(rng)
        axz = p.aspect("x", "z")
        ayz = p.aspect("y", "z")
        assert bound_ratio(p) == pytest.approx(
            math.sqrt(axz**2 + ayz**2 + 1.0), abs=1e-12
        )


def test_lp_matches_closed_form():
    rng = np.random.default_rng(97)
    for _ in range(6):
        p = random_prism(rng)
        omega = float(rng.uniform(0.5, 10.0))
        K = float(rng.uniform(0.2, 3.0))
        for constraints in ("all-pairs", "edges"):
            cert = prism_lp_certificate(p, omega, K, constraints=constraints)
            assert cert.feasible
            assert cert.objective == pytest.approx(
                lower_bound_prism(p, omega, K), rel=1e-9
            )
            assert min(cert.xi) == 0.0  # gauge
            assert len(cert.xi) == len(cert.points) == 8


def test_lower_bound_lp_direct_data():
    p = make_prism(1.0, 1.0, 1.0)
    omega = math.pi / 2
    data = [(v.coords, v.parity * omega) for v in p.vertices]
    cert = lower_bound_lp(data, K=1.0)
    assert cert.objective == pytest.approx(4 * math.pi, rel=1e-12)


def test_lower_bound_lp_sum_rule():
    with pytest.raises(SumRuleError):
        lower_bound_lp([((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])


def test_unwrapped_energy_frozen_and_scaling():
    cube = make_prism(1.0, 1.0, 1.0)
    assert unwrapped_energy(cube) == pytest.approx(E0_CUBE, abs=1e-9)
    # energy is K times a length: doubling the box doubles it
    assert unwrapped_energy(make_prism(2.0, 2.0, 2.0)) == pytest.approx(
        2.0 * E0_CUBE, rel=1e-12
    )
    assert unwrapped_energy(cube, 2.5) == pytest.approx(2.5 * E0_CUBE, rel=1e-12)
    # coarse window: about 20 percent above the lower bound
    ratio = unwrapped_energy(cube) / (4 * math.pi)
    assert 1.21 <= ratio <= 1.23


def test_unwrapped_energy_tol_bounds_the_relative_error_on_a_wide_box():
    # reference: the 1-D reduction of each F2 term at 30 digits (mpmath);
    # the prefactor 8 a_ji a_ki K L_i reaches 8e8 here
    wide = make_prism(10000.0, 10000.0, 1.0)
    assert unwrapped_energy(wide) == pytest.approx(129.68954083794191, rel=1e-9)


def test_conformal_energy_matches_unwrapped():
    for prism in (make_prism(1.0, 1.0, 1.0), make_prism(20.0, 10.0, 1.0)):
        e0 = unwrapped_energy(prism, tol=1e-12)
        res = conformal_energy(prism, RationalMapSpec(1, 1), tol=1e-8)
        assert res.value == pytest.approx(e0, rel=1e-7)
        assert res.error_estimate <= 1e-7


def test_unwrapped_variants_share_energy():
    cube = make_prism(1.0, 1.0, 1.0)
    values = [
        conformal_energy(cube, builtin_family(name).instantiate(), tol=1e-8).value
        for name in UNWRAPPED_VARIANTS
    ]
    for v in values[1:]:
        assert v == pytest.approx(values[0], abs=1e-7)


def test_conformal_energy_K_scaling():
    cube = make_prism(1.0, 1.0, 1.0)
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    base = conformal_energy(cube, spec, 1.0, tol=1e-7)
    scaled = conformal_energy(cube, spec, 3.0, tol=3e-7)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-9)


def test_face_flux_interior_totals_trapped_area():
    p = make_prism(2.0, 1.5, 1.0)
    for orientation in ("conformal", "anticonformal"):
        spec = RationalMapSpec(
            1, 1, imag_factors=((0.5, 1),), orientation=orientation
        )
        interior = face_flux(p, spec, "interior", tol=1e-9)
        assert interior.value == pytest.approx(trapped_area(spec), abs=1e-8)
        exterior = face_flux(p, spec, "exterior", tol=1e-9)
        assert abs(exterior.value) <= 1e-8


def test_scaled_energy_volume_normalization():
    p = make_prism(2.0, 1.0, 0.5)
    assert scaled_energy(10.0, p) == pytest.approx(10.0, abs=1e-12)  # V = 1
    assert scaled_energy(10.0, make_prism(2.0, 2.0, 2.0)) == pytest.approx(5.0)


def test_energy_report_round_trip():
    rep = energy_report(
        make_prism(1.0, 1.0, 1.0), RationalMapSpec(1, 1), tol=1e-7
    )
    assert rep.lower == pytest.approx(4 * math.pi, abs=1e-12)
    assert rep.ratio == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rep.exact == pytest.approx(E0_CUBE, rel=1e-6)
    assert rep.scaled == pytest.approx(rep.exact, rel=1e-12)
    assert rep.lower <= rep.exact <= rep.upper
    assert EnergyReport.from_dict(rep.to_dict()) == rep


def test_lower_bound_certificate_round_trip():
    cert = prism_lp_certificate(make_prism(2.0, 1.0, 0.5), 1.5, K=2.0)
    data = cert.to_dict()
    assert data["feasible"] is True and len(data["points"]) == 8
    assert LowerBoundCertificate.from_dict(data) == cert
    with pytest.raises(ValueError, match="'feasible'"):
        LowerBoundCertificate.from_dict(dict(data, feasible=1))


def test_elastic_constants():
    assert ElasticConstants(K=3.0).min_constant() == 3.0
    assert ElasticConstants(K1=1.0, K2=2.0, K3=0.5).min_constant() == 0.5
    with pytest.raises(DomainError):
        ElasticConstants(K=0.0)
    with pytest.raises(DomainError):
        ElasticConstants(K1=1.0, K2=-2.0, K3=0.5)


def test_sandwich_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(8):
        spec = random_spec(rng)
        prism = random_prism(rng)
        omega = trapped_area(spec)
        res = conformal_energy(prism, spec, tol=1e-6)
        assert lower_bound_prism(prism, omega) <= res.value + res.error_estimate
        assert res.value - res.error_estimate <= upper_bound_prism(prism, omega)


def test_conformal_energy_budget_failure(monkeypatch):
    monkeypatch.setattr(nemprism.energy, "_ENERGY_EVALS", 60_000)
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    with pytest.raises(AccuracyError) as exc:
        conformal_energy(make_prism(1.0, 1.0, 1.0), spec, tol=1e-14)
    assert math.isfinite(exc.value.value)
    assert exc.value.error_estimate > 0.0


def test_fused_faces_match_unwrapped_within_tol():
    for prism in (make_prism(1.0, 1.0, 1.0), make_prism(20.0, 10.0, 1.0)):
        e0 = unwrapped_energy(prism, tol=1e-12)
        for tol in (1e-4, 1e-7):
            res = conformal_energy(prism, RationalMapSpec(1, 1), tol=tol)
            assert res.error_estimate <= tol
            assert abs(res.value - e0) <= tol


def test_faces_share_one_budget(monkeypatch):
    monkeypatch.setattr(nemprism.energy, "_ENERGY_EVALS", 60_000)
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    with pytest.raises(AccuracyError) as exc:
        conformal_energy(make_prism(1.0, 1.0, 1.0), spec, tol=1e-14)
    assert 0 < exc.value.evaluations <= 3 * 20000


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf])
def test_conformal_energy_rejects_a_modulus_that_is_not_positive_and_finite(K):
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    with pytest.raises(DomainError, match="K must be positive and finite"):
        conformal_energy(make_prism(1.0, 1.0, 1.0), spec, K)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_energy_and_flux_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    cube = make_prism(1.0, 1.0, 1.0)
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    with pytest.raises(DomainError, match="tolerance"):
        conformal_energy(cube, spec, tol=tol)
    with pytest.raises(DomainError, match="tolerance"):
        face_flux(cube, spec, tol=tol)
    with pytest.raises(DomainError, match="tolerance"):
        face_flux(cube, spec, "exterior", tol=tol)


def test_face_flux_rejects_an_unknown_face_set():
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    for which in ("Interior", "all", ""):
        with pytest.raises(DomainError, match="which"):
            face_flux(make_prism(1.0, 1.0, 1.0), spec, which)


def _serial_energy(prism, spec, **kwargs):
    try:
        res = conformal_energy(prism, spec, **kwargs)
    except AccuracyError as exc:
        return ("refused", str(exc), exc.value, exc.error_estimate, exc.evaluations)
    return (res.value, res.error_estimate, res.evaluations)


def _batched_entry(res):
    if isinstance(res, AccuracyError):
        return ("refused", str(res), res.value, res.error_estimate, res.evaluations)
    return (res.value, res.error_estimate, res.evaluations)


def _mixed_family(rng, count):
    """Anticonformal specs of one structure with real, imaginary and complex factors."""
    specs = []
    for a, b, c, d, e in rng.uniform(0.1, 0.7, (count, 5)):
        specs.append(RationalMapSpec(
            -1, -1,
            real_factors=((float(a), 1), (float(b) + 0.2, -1)),
            imag_factors=((float(c), -1),),
            complex_factors=((complex(float(d), float(e)), 1),),
            orientation="anticonformal",
        ))
    return specs


IMAG1 = builtin_family("imag1")
BATCHES = [
    (make_prism(1.0, 1.0, 1.0), [IMAG1.instantiate(float(s)) for s in np.linspace(1e-3, 0.999, 21)], 1e-5),
    (make_prism(20.0, 10.0, 1.0), [IMAG1.instantiate(float(s)) for s in np.linspace(1e-3, 0.999, 21)], 1e-5),
    (make_prism(3.0, 2.0, 1.0), _mixed_family(np.random.default_rng(17), 6), 1e-6),
]


@pytest.mark.parametrize("prism,specs,tol", BATCHES, ids=["imag1-cube", "imag1-slab", "anticonformal-mixed"])
def test_conformal_energies_equal_the_serial_energies_exactly(prism, specs, tol):
    batched = conformal_energies(prism, specs, tol=tol)
    assert [_batched_entry(res) for res in batched] == [
        _serial_energy(prism, spec, tol=tol) for spec in specs
    ]
    assert not any(isinstance(res, AccuracyError) for res in batched)


def test_conformal_energies_return_each_failure_in_place(monkeypatch):
    monkeypatch.setattr(nemprism.energy, "_ENERGY_EVALS", 60_000)
    cube = make_prism(1.0, 1.0, 1.0)
    specs = [IMAG1.instantiate(s) for s in (0.2, 0.5, 0.8)]
    batched = conformal_energies(cube, specs, tol=1e-14)
    serial = [_serial_energy(cube, spec, tol=1e-14) for spec in specs]
    assert [_batched_entry(res) for res in batched] == serial
    assert all(entry[0] == "refused" and entry[4] <= 3 * 20000 for entry in serial)


@pytest.mark.parametrize("other", [
    RationalMapSpec(1, 1, imag_factors=((0.5, -1),)),
    RationalMapSpec(-1, 1, imag_factors=((0.5, 1),)),
    RationalMapSpec(1, 3, imag_factors=((0.5, 1),)),
    RationalMapSpec(1, 1, imag_factors=((0.5, 1),), orientation="anticonformal"),
    RationalMapSpec(1, 1, real_factors=((0.5, 1),)),
    RationalMapSpec(1, 1, imag_factors=((0.5, 1), (0.7, 1))),
], ids=["sign", "epsilon", "n", "orientation", "kind", "count"])
def test_conformal_energies_refuse_specs_of_mixed_structure(other):
    specs = [RationalMapSpec(1, 1, imag_factors=((0.3, 1),)), other]
    with pytest.raises(DomainError, match="one structure"):
        conformal_energies(make_prism(1.0, 1.0, 1.0), specs)


def test_conformal_energies_of_no_specs_is_empty():
    assert conformal_energies(make_prism(1.0, 1.0, 1.0), []) == []


def _gap(g):
    """Unit-cube spec with a zero/pole pair g apart on each of three axis factors."""
    return RationalMapSpec(1, 1, real_factors=((0.5, 1), (0.5 + g, -1), (0.3, 1), (0.3 + g, -1)),
                           imag_factors=((0.4, 1), (0.4 + g, -1)))


def _bubble_limit(prism, points):
    """Energy limit as zero/pole pairs coalesce at the first-quadrant points
    ``points`` of an otherwise identity map: E_rest + 8 pi sum rho(omega)
    over the distinct mirror images omega of each bubble direction, with
    rho(omega) = min_k h_k / |omega_k| (the same for every image)."""
    total = unwrapped_energy(prism, tol=1e-12)
    for w0 in points:
        omega = stereo_lift(w0)
        axes = [k for k in range(3) if omega[k] != 0.0]
        rho = min(prism.octant.half_lengths[k] / abs(omega[k]) for k in axes)
        total += 8.0 * math.pi * 2 ** len(axes) * rho
    return total


CUBE = make_prism(1.0, 1.0, 1.0)
SLAB = make_prism(20.0, 10.0, 1.0)
# A limit is approached linearly in the distance delta of the pair: the gap
# spec's energy falls by 115 delta and the slab's by 235 delta, so 1e3 delta
# bounds the distance to the limit.
_LIMIT_SLOPE = 1e3
# The face-density references are the energy that ``conformal_energy``
# computed before it used Green's identity: the flux integral
# 16 K r (D . nhat) over the faces, each factor's bump seeded as a cell
# boundary, at the tolerance named; "edge-seeded" ones seed the bumps on
# face edges too, as the face quadrature of ``face_flux`` did before it
# became the polar one.  Each carries its own error estimate.
# (id, prism, spec, [(reference, its uncertainty)])
GREEN_TABLE = [
    ("identity-cube", CUBE, RationalMapSpec(1, 1), [(E0_CUBE, 1e-12)]),
    # face density, tol 1e-6
    ("gap-1e-6", CUBE, _gap(1e-6), [(207.80257210030666, 9.83149328994012e-07)]),
    # edge-seeded face density, tol 1e-6; face density, tol 1e-7 (at tol
    # 1e-6 it gave 204.48579, inside the bounds and wrong)
    ("gap-1e-7", CUBE, _gap(1e-7), [(207.80245728972181, 9.965149008024923e-07),
                                    (207.80245730709947, 9.735345003013137e-08)]),
    # edge-seeded face density, tol 1e-6; the bubble limit
    ("gap-1e-8", CUBE, _gap(1e-8), [(207.8024459411647, 9.780861867542975e-07),
                                    (_bubble_limit(CUBE, [0.5, 0.3, 0.4j]), _LIMIT_SLOPE * 1e-8)]),
    # the bubble limit; edge-seeded face density, tol 1e-7
    ("imag1-1e-8-cube", CUBE, RationalMapSpec(1, 1, imag_factors=((1.0 - 1e-8, 1),)),
     [(_bubble_limit(CUBE, [1j]), _LIMIT_SLOPE * 1e-8), (40.48098977085279, 9.083248053110382e-08)]),
    ("imag-2e-12-slab", SLAB, RationalMapSpec(1, 1, imag_factors=((1.0 - 2e-12, 1),)),
     [(_bubble_limit(SLAB, [1j]), _LIMIT_SLOPE * 2e-12)]),
    # the bubble limit with 8 images
    ("pair-1e-10", CUBE, RationalMapSpec(1, 1, complex_factors=((0.3 + 0.4j, 1), (0.3 + 1e-10 + 0.4j, -1))),
     [(_bubble_limit(CUBE, [0.3 + 0.4j]), _LIMIT_SLOPE * 1e-10)]),
    # face density, tol 1e-6
    ("n-3-degree-13", make_prism(3.0, 2.0, 0.5),
     RationalMapSpec(1, -3, real_factors=((0.4, 1),), complex_factors=((0.3 + 0.5j, 1), (0.6 + 0.2j, -1))),
     [(183.86578456658034, 8.465393464551774e-07)]),
    ("n-101", CUBE, RationalMapSpec(1, 101), [(1424.3571361226707, 4.994950508636248e-07)]),
    # the face density gave 46.3255 here and exited 0; the value quoted for
    # this spec (to 6 decimals), edge-seeded face density at tol 1e-6, and
    # the bubble limit
    ("imag-1e-8-slab", SLAB, RationalMapSpec(1, 1, imag_factors=((0.99999999, 1),)),
     [(297.652951, 5e-7), (297.65295153314366, 9.375535028709776e-07),
      (_bubble_limit(SLAB, [1j]), _LIMIT_SLOPE * 1e-8)]),
]


@pytest.mark.parametrize("prism,spec,references", [row[1:] for row in GREEN_TABLE],
                         ids=[row[0] for row in GREEN_TABLE])
def test_energy_matches_its_references_within_the_estimates(prism, spec, references):
    res = conformal_energy(prism, spec, tol=1e-7)
    assert res.error_estimate <= 1e-7
    for reference, uncertainty in references:
        assert abs(res.value - reference) <= res.error_estimate + uncertainty


def test_bubble_limits_match_the_closed_forms():
    # 2, 4 and 8 images: imag1 on the cube and the slab, a real pair at 0.5
    assert _bubble_limit(CUBE, [1j]) == pytest.approx(E0_CUBE + 8.0 * math.pi, rel=1e-15)
    assert _bubble_limit(SLAB, [1j]) == pytest.approx(46.32553650682567 + 16.0 * math.pi * 5.0, rel=1e-15)
    assert _bubble_limit(CUBE, [0.5]) == pytest.approx(E0_CUBE + 8.0 * math.pi * 4 * 0.625, rel=1e-15)
    assert _bubble_limit(CUBE, [0.3 + 0.4j]) == pytest.approx(E0_CUBE + 8.0 * math.pi * 8 * 0.78125, rel=1e-15)


@pytest.mark.parametrize("spec", [_gap(1e-6), _gap(1e-7), _gap(1e-8),
                                  RationalMapSpec(1, 1, imag_factors=((1.0 - 1e-8, 1),))],
                         ids=["gap-1e-6", "gap-1e-7", "gap-1e-8", "imag1-1e-8"])
def test_face_flux_equals_the_trapped_area_at_the_gaps(spec):
    # before the bumps on face edges were seeded, the gaps 1e-7 and 1e-8 and
    # imag1 gave a flux of 1.5708, against 20.42 and 4.712
    res = face_flux(CUBE, spec, "interior", tol=1e-6)
    assert abs(res.value - trapped_area(spec)) <= res.error_estimate


@pytest.mark.parametrize("prism,spec,tol,pinned", [
    (make_prism(1e50, 1.0, 1.0), RationalMapSpec(1, 1), 1e-8, (1.5707963267948966, 2.6347812820404215e-12, 1125)),
    (CUBE, _gap(1e-4), 1e-6, (20.420352248332204, 9.878991520218236e-07, 671175)),
], ids=["needle-1e50", "gap-1e-4"])
def test_face_flux_is_pinned(prism, spec, tol, pinned):
    # value, error estimate and evaluations, bit for bit: the polar
    # quadrature of the quarter disc, whatever the box.  As a quadrature of
    # the three face rectangles it gave (1.5707963267949123,
    # 9.363321700365582e-09, 42525) on the needle and (20.420352248335,
    # 9.816446458188915e-07, 385875) on the gap; while a bump's footprint
    # on a face was taken as delta t, not 2 delta |w0| t / (1 + |w0|^2),
    # the gap gave (20.42035224833563, 9.262825904473136e-07, 372825):
    # within the two estimates summed
    res = face_flux(prism, spec, "interior", tol=tol)
    assert (res.value, res.error_estimate, res.evaluations) == pinned
    if spec == _gap(1e-4):
        assert abs(res.value - 20.42035224833563) <= res.error_estimate + 9.262825904473136e-07


@pytest.mark.parametrize("sides", [(1.0, 1.0, 1.0), (1e50, 1.0, 1.0), (20.0, 10.0, 1.0)],
                         ids=["cube", "needle-1e50", "slab"])
def test_interior_flux_is_the_trapped_area_quadrature(sides):
    # the interior faces subtend the whole octant of directions, so their
    # flux is the quarter disc's trapped area on every box: criterion 04's
    # two named specs and its first three random draws give the oracle's
    # value, error estimate and evaluations
    rng = np.random.default_rng(1728)
    specs = [RationalMapSpec(1, 1), IMAG1.instantiate(0.5)] + [random_spec(rng, max_degree=9) for _ in range(3)]
    for spec in specs:
        assert face_flux(make_prism(*sides), spec, tol=1e-6) == numeric_trapped_area(spec, tol=1e-6)


def test_face_flux_answers_a_gap_the_trapped_area_oracle_refuses():
    # one quadrature at two budgets: the oracle's 1,000,000 evaluations
    # refuse the gap from its cut counts before any evaluation, and the
    # flux certificate's 3,000,000 answer it
    with pytest.raises(AccuracyError, match="root cells"):
        numeric_trapped_area(_gap(1e-6), tol=1e-6)
    res = face_flux(CUBE, _gap(1e-6), tol=1e-6)
    assert res.evaluations > 1_000_000
    assert abs(res.value - trapped_area(_gap(1e-6))) <= res.error_estimate <= 1e-6


@pytest.mark.parametrize("spec,references", [
    (_gap(1e-8), [(207.8024459411647, 9.780861867542975e-07)]),
    (RationalMapSpec(1, 1, imag_factors=((1.0 - 1e-8, 1),)), [(40.480989750375166, 8.263586859765847e-07)]),
], ids=["gap-1e-8", "imag1-coalescing"])
def test_energy_report_gives_the_coalescing_energies(spec, references):
    # the face-density energy missed these bumps, gave the identity energy
    # and was refused as outside the bounds; references: edge-seeded face
    # density at the same tol
    rep = energy_report(CUBE, spec, tol=1e-6)
    assert rep.lower <= rep.exact <= rep.upper
    for reference, uncertainty in references:
        assert abs(rep.exact - reference) <= rep.exact_err + uncertainty


@pytest.mark.parametrize("payload,calls", [
    ({"epsilon": 1, "n": -3, "real": [[0.4, 1]], "imag": [[0.7, -1]], "orientation": "anticonformal"},
     [720, 1380, 1830, 1380, 900, 900]),
    ({"epsilon": -1, "n": 1, "real": [[0.3, 1]], "imag": [[0.6, -1]], "complex": [[0.4, 0.5, 1]]},
     [720, 1410, 900, 900, 1350, 900, 900]),
    ({"epsilon": 1, "n": 1, "complex": [[0.35, 0.35, 1], [0.3, 0.4, -1]]},
     [720, 1440, 2310, 1380, 2250, 1350, 1830]),
], ids=["anticonformal-n-3", "degree-9", "19-root-cells"])
def test_energy_integrand_calls_are_pinned(monkeypatch, payload, calls):
    # the specs whose artifact bytes tests/test_cli.py pins, on the cube at
    # tol 1e-7: the points of every integrand call, in order, and the
    # evaluations; a faster refinement round must keep them all
    seen = []
    quad = nemprism.energy.quad2d_many

    def counted(f, problems, **kwargs):
        return quad(lambda x, y, k: seen.append(x.size) or f(x, y, k), problems, **kwargs)

    monkeypatch.setattr(nemprism.energy, "quad2d_many", counted)
    res = conformal_energy(CUBE, RationalMapSpec.from_dict(payload), tol=1e-7)
    assert seen == calls
    assert res.evaluations == sum(calls)


@pytest.mark.parametrize("value", [1.0, 1e3], ids=["below", "above"])
def test_energy_report_refuses_an_energy_outside_its_bounds(monkeypatch, value):
    # the identity map on the cube has bounds [4 pi, 4 sqrt(3) pi]
    monkeypatch.setattr(nemprism.energy, "conformal_energy", lambda *args: QuadratureResult(value, 1e-6, 225))
    with pytest.raises(AccuracyError, match="outside the bounds") as exc:
        energy_report(CUBE, RationalMapSpec(1, 1), tol=1e-6)
    assert (exc.value.value, exc.value.error_estimate, exc.value.evaluations) == (value, 1e-6, 225)


FLAT = make_prism(1e4, 1e4, 1.0)


@pytest.mark.parametrize("prism,tol", [(FLAT, 1e-6), (make_prism(1e3, 1e3, 1.0), 1e-7)],
                         ids=["1e4-to-1", "1e3-to-1"])
def test_flat_box_energy_matches_the_closed_form(prism, tol):
    # in the phi form the cancelling face z and long edge terms put the
    # round-off floor at 2.5e-5 on 1e4 x 1e4 x 1, and tol 1e-6 was refused
    res = conformal_energy(prism, RationalMapSpec(1, 1), tol=tol)
    reference = unwrapped_energy(prism, tol=1e-12)
    assert abs(res.value - reference) <= res.error_estimate + 1e-12 * reference


@pytest.mark.parametrize("spec,reference,uncertainty", [
    (RationalMapSpec(1, 1, real_factors=((0.5, 1),)), 1071.294226696103, 8.997801685950435e-07),
    (RationalMapSpec(1, 1, imag_factors=((0.9, 1),)), 2335.5304418531405, 9.422982594209373e-07),
    (RationalMapSpec(-1, -3, complex_factors=((0.3 + 0.4j, -1),), orientation="anticonformal"),
     5056.658607158672, 9.571842275587703e-07),
], ids=["real", "imag", "anticonformal-complex"])
def test_flat_box_energy_matches_the_face_density(spec, reference, uncertainty):
    # references: the face-density energy at tol 1e-6, with its estimate
    res = conformal_energy(FLAT, spec, tol=1e-6)
    assert abs(res.value - reference) <= res.error_estimate + uncertainty


NEEDLE = make_prism(1e4, 1.0, 1.0)


def test_needle_energies_match_the_closed_forms():
    # the needle's faces y and z take the slope form; the phi form refused
    # tol 1e-9 here, and the face density gave the identity energy 22.15
    # for the coalescing factor
    res = conformal_energy(NEEDLE, RationalMapSpec(1, 1), tol=1e-9)
    assert abs(res.value - unwrapped_energy(NEEDLE, tol=1e-12)) <= res.error_estimate + 1e-12 * res.value
    res = conformal_energy(NEEDLE, RationalMapSpec(1, 1, imag_factors=((1.0 - 1e-8, 1),)), tol=1e-7)
    assert abs(res.value - _bubble_limit(NEEDLE, [1j])) <= res.error_estimate + _LIMIT_SLOPE * 1e-8


@pytest.mark.parametrize("length", [1e6, 1e8, 1e12, 1e50, 1e150], ids=["1e6", "1e8", "1e12", "1e50", "1e150"])
def test_long_needle_energy_matches_the_closed_form(length):
    # a root cell as long as the needle has no node near the vertex, where
    # phi varies: 1e6 x 1 x 1 gave 20.1314 (estimate 5.9e-7) against 22.1513;
    # cuts passed as initial_splits still gave 20.1314 on 1e50 x 1 x 1 while
    # _breakpoints dropped those within 1e-12 of the side's length of its ends
    prism = make_prism(length, 1.0, 1.0)
    res = conformal_energy(prism, RationalMapSpec(1, 1), tol=1e-6)
    assert abs(res.value - unwrapped_energy(prism, tol=1e-12)) <= res.error_estimate


@pytest.mark.parametrize("spec,length", [
    *[(RationalMapSpec(1, 1), length) for length in (1e7, 1e8, 1e14, 1e50)],
    *[(RationalMapSpec(1, 1, imag_factors=((0.5, 1),)), length) for length in (1e7, 1e14)],
], ids=["identity-1e7", "identity-1e8", "identity-1e14", "identity-1e50", "imag-0.5-1e7", "imag-0.5-1e14"])
def test_needle_flux_equals_the_trapped_area(spec, length):
    # whole faces as root cells put no node near the vertex, where the flux
    # lives: the identity on 1e7 x 1 x 1 gave 2.98e-9 (estimate 2.90e-9)
    # against pi/2, and imag 0.5 on 1e14 x 1 x 1 gave 4.06 against 3 pi/2
    res = face_flux(make_prism(length, 1.0, 1.0), spec, tol=1e-8)
    assert abs(res.value - trapped_area(spec)) <= res.error_estimate


def test_needle_faces_are_cut_into_the_energy_face_cells():
    # root cells of the long sides at 64, 256, ... short sides, and the
    # energy's face cells are these
    half = NEEDLE.octant.half_lengths
    cells = _root_cells(*nemprism.energy._faces_domain(half))
    faces = [cell for cell in _root_cells(*nemprism.energy._green_domain(half)) if cell[2] != cell[3]]
    assert len(cells) > 3
    assert sorted(map(tuple, cells)) == sorted(map(tuple, faces))


def test_exterior_flux_is_zero_without_evaluations():
    # D is radial, so D . nhat vanishes on every plane through the vertex;
    # as a quadrature of the exterior faces it took 675 evaluations on
    # 1e50 x 1 x 1 (37,125 when cut into the interior faces' needle pieces)
    # to return 0.0
    res = face_flux(make_prism(1e50, 1.0, 1.0), RationalMapSpec(1, 1), "exterior")
    assert (res.value, res.evaluations) == (0.0, 0)


@pytest.mark.parametrize("spec", [RationalMapSpec(1, 3), RationalMapSpec(1, 1, imag_factors=((0.5, 1),))],
                         ids=["n3", "imag-0.5"])
def test_needle_energy_does_not_fall_as_the_needle_grows(spec):
    # a longer box holds the shorter one's configuration and more, so E
    # cannot fall; n = 3 fell from 88.66 at 1e4 to 86.62 at 1e8, and imag
    # 0.5 jumped from 71.13 at 1e8 to 77.57 at 1e10
    energies = [conformal_energy(make_prism(10.0 ** e, 1.0, 1.0), spec, tol=1e-6) for e in (2, 4, 6, 8, 10)]
    for short, long in zip(energies, energies[1:]):
        assert long.value >= short.value - short.error_estimate - long.error_estimate
    # and it approaches the needle's limit: each hundredfold longer box
    # adds less than the one before
    steps = [long.value - short.value for short, long in zip(energies, energies[1:])]
    slack = [2.0 * (a.error_estimate + b.error_estimate) for a, b in zip(energies, energies[1:])]
    for step, next_step, err, next_err in zip(steps, steps[1:], slack, slack[1:]):
        assert next_step <= step + err + next_err


@pytest.mark.parametrize("sides", [(1.0, 1.0, 1.0), (8.0, 8.0, 1.0), (8.0, 1.0, 1.0), (20.0, 10.0, 1.0),
                                   (63.0, 1.0, 1.0)])
def test_boxes_of_aspect_below_64_get_no_root_cuts(sides):
    # the cuts on long sides leave every benchmark box and the slab as they
    # were: three face rectangles and three edge segments
    half = make_prism(*sides).octant.half_lengths
    cells = _root_cells(*nemprism.energy._green_domain(half))
    assert len(cells) == 6
    assert [y0 == y1 for _, _, y0, y1 in cells] == [False] * 3 + [True] * 3


def test_needle_root_cuts_grow_by_four_from_64_short_sides():
    cells = _root_cells(*nemprism.energy._green_domain(make_prism(1e4, 1.0, 1.0).octant.half_lengths))
    ends = [0.0, 32.0, 128.0, 512.0, 2048.0, 5000.0]  # 64, 256, ... half sides of 0.5, below 5000
    mirrored = [(-b, -a) for a, b in zip(ends, ends[1:])][::-1]
    level = 1.0 + 5000.0 + 0.5 + 0.5
    # face x, then faces y and z (x along u, mirrored into the u < 0
    # quadrants), then the edges; only the edge along x is long
    assert [tuple(cell) for cell in cells] == (
        [(0.0, 0.5, 0.0, 0.5)]
        + [(u0, u1, 0.0, 0.5) for u0, u1 in mirrored]
        + [(u0, u1, -0.5, 0.0) for u0, u1 in mirrored]
        + [(a, b, -level, -level) for a, b in zip(ends, ends[1:])]
        + [(0.0, 0.5, -2.0 * level, -2.0 * level), (0.0, 0.5, -3.0 * level, -3.0 * level)]
    )


def test_unwrapped_energy_on_long_needles():
    # the 2-D rule missed the spike of width 1e-13 that F2(1, 1e26) puts at
    # b = 0 and returned 1.1e-9 on 1e13 x 1 x 1; the closed-form inner
    # integral leaves a smooth 1-D one, and E tends to its needle limit
    assert unwrapped_energy(make_prism(1e13, 1.0, 1.0)) == pytest.approx(22.151334288388643, rel=1e-12)
    assert unwrapped_energy(make_prism(1e15, 1.0, 1.0)) == pytest.approx(22.151334288389442, rel=1e-12)
    assert unwrapped_energy(make_prism(1e12, 1e12, 1.0)) == pytest.approx(361.17064201809814, rel=1e-12)


@pytest.mark.parametrize("prism", [CUBE, make_prism(64.0, 32.0, 1.0), make_prism(1e3, 1.0, 1.0)],
                         ids=["cube", "32-to-1", "needle"])
@pytest.mark.parametrize("spec", [
    RationalMapSpec(1, 1, real_factors=((0.5, 1),), complex_factors=((0.3 + 0.4j, -1),)),
    RationalMapSpec(-1, -3, imag_factors=((0.7, 1),), orientation="anticonformal"),
], ids=["conformal", "anticonformal"])
def test_slope_form_agrees_with_the_potential_form(monkeypatch, prism, spec):
    # the divergence theorem on a face is exact on any box, so both forms
    # must agree wherever both answer
    forms = []
    for ratio in (0.0, math.inf):  # every face in the slope form, then none
        monkeypatch.setattr(nemprism.energy, "_SLOPE_RATIO", ratio)
        forms.append(conformal_energy(prism, spec, tol=1e-8))
    slope, potential = forms
    assert abs(slope.value - potential.value) <= slope.error_estimate + potential.error_estimate


def test_energy_of_a_close_imag_pair_lies_within_its_estimate():
    # the close imag pair of benchmark energy op 60 (seed 5) at tol 1e-7,
    # against its value at tol 1e-10; a 3 x 3 pre-split of its face roots
    # returned 220.97638277558488 (estimate 6.5e-8), 2.44e-6 off and still
    # inside the bounds [113.1, 739.3], so only this reference catches it
    spec = RationalMapSpec.from_dict({
        "epsilon": -1, "n": -3, "orientation": "anticonformal",
        "imag": [[0.6903250706428383, -1], [0.2694447996007459, 1], [0.25167395314445073, -1]],
    })
    res = conformal_energy(make_prism(6.258439655406666, 1.6012005055646197, 1.0), spec, tol=1e-7)
    assert abs(res.value - 220.97638033382395) <= res.error_estimate <= 1e-7


# ----------------------------------------------------------------------
# The Green integrand by runs, bit for bit against a per-point decode
# ----------------------------------------------------------------------

def _reference_green_density(half, weight):
    """The energy integrand with a per-point decode: each face point's face
    from the signs of (u, v), each edge point's axis from rint(v / -L), the
    scales and slope data gathered per point by part, and the potential
    and slope forms over the whole call."""
    hx, hy, hz = half
    slope = tuple(half[i] * half[j] > 256.0 * half[k] ** 2 for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    level = 1.0 + hx + hy + hz
    derivatives = any(slope)
    if derivatives:
        c = [sum(half[j] / half[i] for i, j in ((a, b), (b, a)) if not slope[i])
             for a, b in ((1, 2), (0, 2), (0, 1))]
    else:
        c = [(hy * hy + hz * hz) / (hy * hz), (hx * hx + hz * hz) / (hx * hz), (hx * hx + hy * hy) / (hx * hy)]
    scales = np.array([4.0 * weight / h for h in half] + [-2.0 * weight * ci for ci in c])
    sides = np.array([hx, hy, hz, hy, hy, hy])
    unit = np.array([1.0, 1j, 0.0, 0.0, 0.0, 0.0])
    on_z = np.array([False, False, True, False, False, False])
    sloped = np.array(slope + (False,) * 3)

    def density(spec, u, v):
        on_x, on_zface = u > 0.0, v < 0.0
        x = np.where(on_x, hx, -u)
        y = np.where(on_x, u, np.where(on_zface, -v, hy))
        z = np.where(on_zface, hz, v)
        part = np.add(~on_x, on_zface, dtype=np.intp)
        edge = v <= -level
        if edge.any():
            n = np.count_nonzero(edge)
            axis = np.rint(v[-n:] / -level).astype(np.intp) - 1
            pts = np.asarray(half)[:, None].repeat(n, axis=1)
            pts[axis, np.arange(n)] = u[-n:]
            x[-n:], y[-n:], z[-n:] = pts
            part[-n:] = axis + 3
        w, _, r = _project(x, y, z)
        acc = _accumulate(spec, w, derivatives=derivatives)
        out = _log_norm(spec, acc) * scales[part]
        if derivatives:
            dw = (unit[part] - w * (sides[part] / r + on_z[part])) / (r + z)
            if spec.is_anticonformal:
                dw = np.conj(dw)
            out = np.where(sloped[part], 2.0 * weight * (_log_norm_gradient(spec, acc) * dw).real, out)
        return out

    return density


def _every_structure_spec(rng, max_degree=9):
    """A spec of each factor structure of degree <= max_degree, each sign of
    epsilon and each orientation, with random positions and factor signs."""
    for n in [s * m for m in range(1, max_degree + 1, 2) for s in (1, -1)]:
        for c in range((max_degree - abs(n)) // 4 + 1):
            for a in range((max_degree - abs(n) - 4 * c) // 2 + 1):
                for b in range((max_degree - abs(n) - 4 * c) // 2 - a + 1):
                    for eps in (1, -1):
                        for orientation in ("conformal", "anticonformal"):
                            yield _structure_specs(rng, eps, n, a, b, c, orientation, 1)[0]


def _structure_specs(rng, eps, n, a, b, c, orientation, count):
    """``count`` specs of one structure: the factor signs drawn once, the
    positions per spec."""
    signs = [int(s) for s in rng.choice([-1, 1], size=a + b + c)]
    specs = []
    for _ in range(count):
        pos = rng.uniform(0.1, 0.9, size=a + b + c)
        theta = rng.uniform(0.2, 0.5 * math.pi - 0.2, size=c)
        specs.append(RationalMapSpec(
            eps, n,
            tuple((float(p), s) for p, s in zip(pos[:a], signs[:a])),
            tuple((float(p), s) for p, s in zip(pos[a:a + b], signs[a:a + b])),
            tuple((complex(p * math.cos(t), p * math.sin(t)), s) for p, t, s in zip(pos[a + b:], theta, signs[a + b:])),
            orientation,
        ))
    return specs


def _green_layouts(half):
    """Named cell-row lists of ``_green_domain`` in orders that the rounds
    of ``quad2d_many`` can rate: the root cells (the faces in order, then
    the edges), the face quarters interleaved x, z, y, ... (over 16
    rectangles, so two calls) with edge halves of mixed axes, the edges
    alone, and one cell of each face alone."""
    roots = _root_cells(*nemprism.energy._green_domain(half))
    faces = [row for row in roots if row[2] != row[3]]
    edges = [row for row in roots if row[2] == row[3]]

    def quarters(row):
        x0, x1, y0, y1 = row
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        return [[x0, xm, y0, ym], [x0, xm, ym, y1], [xm, x1, y0, ym], [xm, x1, ym, y1]]

    def halves(row):
        x0, x1, y, _ = row
        xm = 0.5 * (x0 + x1)
        return [[x0, xm, y, y], [xm, x1, y, y]]

    # one root rectangle per face, and one root segment per edge axis
    by_face = [next(row for row in faces if (row[0] >= 0.0, row[2] >= 0.0) == key)
               for key in ((True, True), (False, True), (False, False))]
    by_edge = [next(row for row in edges if row[2] == y) for y in sorted({row[2] for row in edges}, reverse=True)]
    cut = [quarters(row) for row in by_face]
    mixed = [row for group in zip(cut[0], cut[2], cut[1], cut[0][::-1], cut[2][::-1]) for row in group]
    mixed += cut[1] + [row for pair in zip(halves(by_edge[2]), halves(by_edge[0]), halves(by_edge[1])) for row in pair]
    edge_mix = [by_edge[1], by_edge[2], by_edge[0], by_edge[2]]
    return {"roots": roots, "mixed": mixed, "edges": edge_mix,
            **{f"face-{name}": [row] for name, row in zip("xyz", by_face)}}


def _integrand_calls(rows, tags):
    """The integrand calls (u, v, k) that the rating of ``rows`` makes."""
    calls = []

    def record(u, v, k):
        calls.append((u.copy(), v.copy(), k.copy()))
        return np.zeros(len(u))

    _rate_cells(record, rows, tags)
    return calls


GREEN_BOXES = {"3-2-1": make_prism(3.0, 2.0, 1.0), "flat": make_prism(1e4, 1e4, 1.0),
               "needle": make_prism(1e6, 1.0, 1.0)}


@pytest.mark.parametrize("box", GREEN_BOXES)
def test_green_density_matches_the_per_point_decode_bit_for_bit(box):
    # every structure of degree <= 9 with both signs of epsilon and both
    # orientations (on the flat box and the needle, each structure once),
    # in calls that mix the faces, mix the edges' axes, hold edges alone or
    # one cell alone; the flat box takes face z in the slope form and the
    # needle faces y and z, and 3 x 2 x 1 tells every half side apart
    half = GREEN_BOXES[box].octant.half_lengths
    density = nemprism.energy._green_density(half, 16.0)
    reference = _reference_green_density(half, 16.0)
    layouts = _green_layouts(half)
    calls = {name: _integrand_calls(rows, [0] * len(rows)) for name, rows in layouts.items()}
    assert len(calls["mixed"]) == 2
    specs = list(_every_structure_spec(np.random.default_rng(29)))
    assert len(specs) == 4 * 92
    if box != "3-2-1":  # each structure once, epsilon and orientation cycling
        specs = [specs[4 * i + i % 4] for i in range(92)]
    for spec in specs:
        for name, layout_calls in calls.items():
            for u, v, _ in layout_calls:
                got, want = density(spec, u, v), reference(spec, u, v)
                assert got.tobytes() == want.tobytes(), (box, name, spec)


@pytest.mark.parametrize("box", GREEN_BOXES)
def test_green_density_of_batched_specs_matches_the_per_point_decode(box):
    # _spec_points views of three specs per structure, the rows of each
    # layout spread over the specs
    half = GREEN_BOXES[box].octant.half_lengths
    density = nemprism.energy._green_density(half, 16.0)
    reference = _reference_green_density(half, 16.0)
    rng = np.random.default_rng(31)
    layouts = _green_layouts(half)
    for eps, n, a, b, c, orientation in [(1, 1, 1, 1, 1, "conformal"), (-1, -3, 2, 1, 0, "anticonformal"),
                                         (1, -1, 0, 0, 2, "anticonformal"), (-1, 5, 0, 2, 0, "conformal")]:
        at = _spec_points(_structure_specs(rng, eps, n, a, b, c, orientation, 3))
        for name, rows in layouts.items():
            for u, v, k in _integrand_calls(rows, [i % 3 for i in range(len(rows))]):
                assert density(at(k), u, v).tobytes() == reference(at(k), u, v).tobytes(), (box, name, n)
