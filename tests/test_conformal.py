import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_spec, reference_area_density, reference_parts

from nemprism.conformal import _accumulate, _log_norm, _spec_points

from nemprism import (
    InvalidSpecError,
    RationalMapSpec,
    UndefinedAtVertexError,
    area_density,
    director,
    director_sample,
    eval_f,
    flux_field,
    sphere_density,
    stereo_lift,
    stereo_project,
)


def ratio(hv):
    return hv.P / hv.Q


# ---------------------------------------------------------------- validation


def test_spec_rejects_even_n():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 2)
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 0)


def test_spec_rejects_bad_epsilon_and_signs():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(2, 1)
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 1, real_factors=((0.5, 0),))


def test_spec_rejects_modulus_outside_open_disk():
    for bad in (0.0, 1.0, 1.3, -0.2, 1.0 - 1e-13):
        with pytest.raises(InvalidSpecError):
            RationalMapSpec(1, 1, real_factors=((bad, 1),))
    # well inside the tolerance band is fine
    RationalMapSpec(1, 1, real_factors=((1.0 - 1e-9, 1),))


def test_spec_rejects_complex_factor_on_axes():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 1, complex_factors=((complex(0.5, 0.0), 1),))
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 1, complex_factors=((complex(0.0, 0.5), 1),))


def test_spec_rejects_cancelling_pair():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 1, real_factors=((0.5, 1), (0.5, -1)))


def test_spec_rejects_unknown_orientation():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(1, 1, orientation="mirror")


def test_spec_dict_round_trip():
    spec = RationalMapSpec(
        -1,
        3,
        real_factors=((0.4, 1),),
        imag_factors=((0.7, -1),),
        complex_factors=((complex(0.3, 0.5), 1),),
        orientation="anticonformal",
    )
    again = RationalMapSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_from_dict_rejects_unknown_field():
    with pytest.raises(InvalidSpecError) as exc:
        RationalMapSpec.from_dict({"epsilon": 1, "n": 1, "wibble": 3})
    assert "wibble" in str(exc.value)


# (spec JSON that a coercing reader would run as another map, the field it must name)
MISTYPED_SPECS = [
    ({"epsilon": 1, "n": 3.7}, "'n'"),
    ({"epsilon": True, "n": 1}, "'epsilon'"),
    ({"epsilon": 1, "n": 1, "imag": [[0.5, -1.5]]}, "'imag'"),
    ({"epsilon": 1, "n": 1, "real": [["0.5", 1]]}, "'real'"),
    ({"epsilon": 1, "n": 1, "complex": [[0.3, 0.4, True]]}, "'complex'"),
    ({"epsilon": 1, "n": 1, "orientation": None}, "'orientation'"),
]


@pytest.mark.parametrize("payload,name", MISTYPED_SPECS)
def test_spec_from_dict_refuses_values_of_the_wrong_json_type(payload, name):
    with pytest.raises(InvalidSpecError, match=f"spec field {name}"):
        RationalMapSpec.from_dict(payload)


# (constructor arguments that a coercing constructor stored or converted,
# the JSON key the refusal must name): the constructor keeps from_dict's rules
MISTYPED_ARGS = [
    ({"epsilon": True, "n": 1}, "'epsilon'"),
    ({"epsilon": 1, "n": True}, "'n'"),
    ({"epsilon": 1, "n": 1, "real_factors": ((0.5, -1.5),)}, "'real'"),
    ({"epsilon": 1, "n": 1, "imag_factors": (("0.5", 1),)}, "'imag'"),
    ({"epsilon": 1, "n": 1, "complex_factors": (("0.3+0.4j", 1),)}, "'complex'"),
]


@pytest.mark.parametrize("kwargs,name", MISTYPED_ARGS)
def test_spec_constructor_refuses_values_of_the_wrong_json_type(kwargs, name):
    with pytest.raises(InvalidSpecError, match=f"spec field {name}"):
        RationalMapSpec(**kwargs)


# ---------------------------------------------------------------- evaluation


def test_unwrapped_is_identity():
    spec = RationalMapSpec(1, 1)
    for w in (0.3 + 0.2j, -1.7j, 2.5, -0.1 + 4.0j):
        assert ratio(eval_f(spec, w)) == pytest.approx(w, rel=1e-14)


def test_functional_equations_random_specs():
    rng = np.random.default_rng(23)
    for _ in range(12):
        spec = random_spec(rng)
        for _ in range(6):
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(w) < 1e-3:
                continue
            fw = ratio(eval_f(spec, w))
            finv = ratio(eval_f(spec, 1.0 / w))
            fneg = ratio(eval_f(spec, -w))
            fconj = ratio(eval_f(spec, w.conjugate()))
            if not all(map(cmath.isfinite, (fw, finv, fneg, fconj))):
                continue
            assert fw * finv == pytest.approx(1.0, rel=1e-9)
            assert fneg == pytest.approx(-fw, rel=1e-9)
            assert fconj == pytest.approx(fw.conjugate(), rel=1e-9)


def test_eval_finite_at_pole_and_infinity():
    spec = RationalMapSpec(
        1, 3, real_factors=((0.4, 1),), imag_factors=((0.7, -1),)
    )
    pole = complex(0.0, 1.0 / 0.7)  # root of s^2 w^2 + 1
    hv = eval_f(spec, pole)
    for z in (hv.P, hv.Q, hv.dP, hv.dQ):
        assert cmath.isfinite(z)
    assert abs(hv.Q) > 0.0 or abs(hv.P) > 0.0
    hv_inf = eval_f(spec, complex(math.inf, 0.0))
    assert hv_inf.Q == 0.0 and hv_inf.P != 0.0  # odd maps fix infinity


def test_area_density_inversion_law():
    rng = np.random.default_rng(29)
    spec = random_spec(rng)
    for _ in range(8):
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(w) < 0.1:
            continue
        assert area_density(spec, 1.0 / w) == pytest.approx(
            abs(w) ** 4 * area_density(spec, w), rel=1e-9
        )


def test_sphere_density_symmetries():
    """Density on the sphere is invariant under the three box reflections."""
    rng = np.random.default_rng(31)
    for _ in range(6):
        spec = random_spec(rng)
        w = complex(rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8))
        d = sphere_density(spec, w)
        assert sphere_density(spec, -w) == pytest.approx(d, rel=1e-10)
        assert sphere_density(spec, w.conjugate()) == pytest.approx(d, rel=1e-10)
        assert sphere_density(spec, 1.0 / w) == pytest.approx(d, rel=1e-9)


def test_area_density_vectorized_matches_scalar():
    rng = np.random.default_rng(37)
    spec = random_spec(rng)
    ws = rng.uniform(-1.5, 1.5, size=16) + 1j * rng.uniform(-1.5, 1.5, size=16)
    vec = area_density(spec, ws)
    for wi, vi in zip(ws, vec):
        assert vi == pytest.approx(area_density(spec, complex(wi)), rel=1e-12)


def _close_to_reference(got, ref):
    """got within 1e-12 relative of ref wherever |ref| > 1e-290."""
    got, ref = np.broadcast_arrays(np.asarray(got), ref)
    shown = np.abs(ref) > 1e-290
    assert np.all(np.abs(got[shown] - ref[shown]) <= 1e-12 * np.abs(ref[shown]))


def _check_against_reference(spec, ws):
    area = reference_area_density(spec, ws)
    sphere = area * (1.0 + np.abs(ws) ** 2) ** 2 / 4.0
    _close_to_reference(area_density(spec, ws), area)
    _close_to_reference(sphere_density(spec, ws), sphere)
    _close_to_reference([area_density(spec, complex(w)) for w in ws], area)
    _close_to_reference([sphere_density(spec, complex(w)) for w in ws], sphere)
    values = [eval_f(spec, complex(w)) for w in ws]
    for name, ref in zip(("P", "Q", "dP", "dQ"), reference_parts(spec, ws)):
        _close_to_reference([getattr(hv, name) for hv in values], ref)


def test_kernel_matches_the_w_form_reference_on_random_specs():
    rng = np.random.default_rng(41)
    for _ in range(50):
        spec = random_spec(rng)
        ws = rng.uniform(0.0, 2.0, 200) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
        for orientation in ("conformal", "anticonformal"):
            _check_against_reference(replace(spec, orientation=orientation), ws)


def test_kernel_matches_the_w_form_reference_at_extremes():
    rng = np.random.default_rng(43)
    ring = np.linspace(0.05, 0.99, 60) * np.exp(1j * np.linspace(0.1, 1.4, 60))
    _check_against_reference(RationalMapSpec(1, 301), ring)
    ws = rng.uniform(0.0, 2.0, 200) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    _check_against_reference(RationalMapSpec(1, 1, real_factors=((0.5, 1),) * 200), ws)
    # three zero/pole pairs, each pole one float above its zero
    a = 1e-11
    stacked = RationalMapSpec(-1, 3, real_factors=((a, 1), (math.nextafter(a, 1.0), -1)) * 3)
    near = a * rng.uniform(0.0, 3.0, 100) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 100))
    _check_against_reference(stacked, np.concatenate([near, ws]))


def _products(spec, w, derivatives):
    """``_accumulate`` with a fresh array for every factor expression and
    product: Pt, Qt and their zeta-derivatives over (zeta - r^2, r^2 zeta - 1),
    (zeta + s^2, s^2 zeta + 1) and (zeta^2 - u zeta + v, v zeta^2 - u zeta + 1)."""
    w = np.asarray(w, dtype=complex)
    if spec.is_anticonformal:
        w = np.asarray(np.conj(w))
    zeta = w * w
    factors = [(zeta - r * r, None, r * r * zeta - 1.0, r * r, sign) for r, sign in spec.real_factors]
    factors += [(zeta + s * s, None, s * s * zeta + 1.0, s * s, sign) for s, sign in spec.imag_factors]
    factors += [(zeta * zeta - u * zeta + v, 2.0 * zeta - u, v * (zeta * zeta) - u * zeta + 1.0,
                 2.0 * v * zeta - u, sign) for u, v, sign in spec.quartics]
    parts = None
    for num, dnum, den, dden, sign in factors:
        if sign < 0:
            num, dnum, den, dden = den, dden, num, dnum
        if parts is None:
            parts = [num, 1.0 if dnum is None else dnum, den, 1.0 if dden is None else dden]
            continue
        Pt, dPt, Qt, dQt = parts
        if derivatives:
            dPt = dPt * num + (Pt if dnum is None else Pt * dnum)
            dQt = dQt * den + (Qt if dden is None else Qt * dden)
        parts = [Pt * num, dPt, Qt * den, dQt]
    Pt, dPt, Qt, dQt = parts or (1.0, 0.0, 1.0, 0.0)
    return (w, zeta, Pt, dPt, Qt, dQt) if derivatives else (w, zeta, Pt, None, Qt, None)


def test_accumulate_over_reused_temporaries_matches_fresh_products_bit_for_bit():
    # every factor after the first is written over one pair of temporaries;
    # the products must round as those of fresh arrays do, for arrays, a
    # 0-d point (numpy scalars) and per-point views of several specs
    rng = np.random.default_rng(29)
    ws = rng.uniform(0.0, 2.0, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    for _ in range(40):
        spec = random_spec(rng, max_degree=15)
        for w in (ws, ws[0], np.asarray(ws[1])):
            for derivatives in (True, False):
                got, want = _accumulate(spec, w, derivatives), _products(spec, w, derivatives)
                assert [type(g) for g in got] == [type(x) for x in want]
                assert all(np.asarray(g).tobytes() == np.asarray(x).tobytes() for g, x in zip(got, want)), spec
    view = _spec_points([RationalMapSpec(1, -3, ((0.3, 1), (0.6, -1)), ((0.5, 1),), ((0.2 + 0.4j, -1), (0.5 + 0.1j, 1))),
                         RationalMapSpec(1, -3, ((0.4, 1), (0.7, -1)), ((0.2, 1),), ((0.6 + 0.3j, -1), (0.1 + 0.5j, 1)))])
    at = view(rng.integers(0, 2, ws.size))
    for derivatives in (True, False):
        got, want = _accumulate(at, ws, derivatives), _products(at, ws, derivatives)
        assert all(np.asarray(g).tobytes() == np.asarray(x).tobytes() for g, x in zip(got, want))


def test_log_norm_skips_the_derivatives_and_matches_the_reference():
    rng = np.random.default_rng(47)
    for _ in range(30):
        spec = random_spec(rng)
        ws = rng.uniform(0.0, 1.0, 200) * np.exp(1j * rng.uniform(0.0, 0.5 * math.pi, 200))
        for orientation in ("conformal", "anticonformal"):
            spec = replace(spec, orientation=orientation)
            full, bare = _accumulate(spec, ws), _accumulate(spec, ws, derivatives=False)
            assert bare[3] is None and bare[5] is None
            assert all(np.array_equal(full[i], bare[i]) for i in (0, 1, 2, 4))
            P, Q, _, _ = reference_parts(spec, ws)
            ref = 0.5 * np.log(np.abs(P) ** 2 + np.abs(Q) ** 2)
            assert np.all(np.abs(_log_norm(spec, bare) - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_log_norm_stays_finite_where_the_squares_underflow():
    # 20 zeros at 0.5 and 20 poles at 0.5 + 1e-9: near 0.5 both |P| and |Q|
    # lie below 1e-154, so |P|^2 + |Q|^2 underflows to 0
    r, rp, k = 0.5, 0.5 + 1e-9, 20
    spec = RationalMapSpec(1, 1, real_factors=((r, 1),) * k + ((rp, -1),) * k)
    ws = 0.5 + np.array([1e-10, 3e-10, -2e-10, 1e-10j, 2e-10 + 1e-10j])
    zeta = ws * ws
    log_p = np.log(np.abs(ws)) + k * (np.log(np.abs(zeta - r * r)) + np.log(np.abs(rp * rp * zeta - 1.0)))
    log_q = k * (np.log(np.abs(r * r * zeta - 1.0)) + np.log(np.abs(zeta - rp * rp)))
    top, low = np.maximum(log_p, log_q), np.minimum(log_p, log_q)
    ref = top + 0.5 * np.log1p(np.exp(2.0 * (low - top)))
    assert np.all(top < math.log(1e-154))
    got = _log_norm(spec, _accumulate(spec, ws, derivatives=False))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


# ------------------------------------------------------------------ director


def test_stereo_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(10):
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        e = stereo_lift(w)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-14)
        assert stereo_project(e) == pytest.approx(w, rel=1e-12)


def test_director_unit_and_radially_constant():
    rng = np.random.default_rng(43)
    for _ in range(5):
        spec = random_spec(rng)
        r = rng.uniform(0.2, 2.0, size=3)
        n1 = director(spec, r)
        assert np.linalg.norm(n1) == pytest.approx(1.0, abs=1e-12)
        for lam in (0.5, 3.0, 17.0):
            assert director(spec, lam * r) == pytest.approx(n1, abs=1e-12)


def test_director_tangent_on_coordinate_planes():
    rng = np.random.default_rng(47)
    for _ in range(5):
        spec = random_spec(rng)
        u, v = rng.uniform(0.2, 2.0, size=2)
        assert abs(director(spec, (0.0, u, v))[0]) < 1e-12
        assert abs(director(spec, (u, 0.0, v))[1]) < 1e-12
        assert abs(director(spec, (u, v, 0.0))[2]) < 1e-12


def test_director_on_axes_matches_edge_signs():
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))  # e = (1, -1, 1)
    assert director(spec, (1.0, 0.0, 0.0)) == pytest.approx([1, 0, 0])
    assert director(spec, (0.0, 2.0, 0.0)) == pytest.approx([0, -1, 0])
    assert director(spec, (0.0, 0.0, 3.0)) == pytest.approx([0, 0, 1])
    # the negative z axis is reached through the branch at w = infinity
    assert director(spec, (0.0, 0.0, -3.0)) == pytest.approx([0, 0, -1])


def test_director_undefined_at_vertex():
    spec = RationalMapSpec(1, 1)
    with pytest.raises(UndefinedAtVertexError):
        director(spec, (0.0, 0.0, 0.0))


def test_anticonformal_flips_y():
    base = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    anti = RationalMapSpec(
        1, 1, imag_factors=((0.5, 1),), orientation="anticonformal"
    )
    r = (0.4, 0.7, 1.1)
    nb = director(base, r)
    na = director(anti, r)
    assert na == pytest.approx([nb[0], -nb[1], nb[2]], abs=1e-12)


# ---------------------------------------------------------------------- flux


def test_flux_radial_inverse_square():
    rng = np.random.default_rng(53)
    for _ in range(5):
        spec = random_spec(rng)
        r = rng.uniform(0.3, 1.5, size=3)
        D = flux_field(spec, r)
        rad = np.linalg.norm(r)
        # parallel to r
        assert np.linalg.norm(np.cross(D, r)) <= 1e-10 * np.linalg.norm(D) * rad
        for lam in (2.0, 5.0):
            D2 = flux_field(spec, lam * r)
            assert D2 == pytest.approx(D / lam**2, rel=1e-10)


def test_flux_magnitude_is_projected_density():
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    r = np.array([0.6, 0.8, 1.0])
    rad = np.linalg.norm(r)
    w = stereo_project(r / rad)
    D = flux_field(spec, r)
    assert np.linalg.norm(D) * rad**2 == pytest.approx(
        sphere_density(spec, w), rel=1e-12
    )


def test_director_sample_consistency():
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    r = (0.6, 0.8, 1.0)
    s = director_sample(spec, r)
    assert s.position == r
    assert s.n == pytest.approx(director(spec, r), abs=0.0)
    assert s.D == pytest.approx(flux_field(spec, r), abs=0.0)
    # density is the chart value at the projected point; the sphere value
    # |D| r^2 picks up the stereographic conformal factor
    rad = math.sqrt(sum(v * v for v in r))
    w = stereo_project(np.asarray(r) / rad)
    assert s.density == pytest.approx(area_density(spec, w), rel=1e-12)
    assert float(np.linalg.norm(s.D)) * rad**2 == pytest.approx(
        s.density * (1.0 + abs(w) ** 2) ** 2 / 4.0, rel=1e-12
    )


def test_flux_and_sample_on_the_minus_z_axis():
    # -z projects to infinity, where the sphere density takes its value at
    # 0 and the chart density vanishes
    spec = RationalMapSpec(
        -1,
        1,
        real_factors=((0.3, 1),),
        imag_factors=((0.6, -1),),
        complex_factors=((complex(0.4, 0.5), 1),),
        orientation="anticonformal",
    )
    r = (0.0, 0.0, -2.0)
    expected = -sphere_density(spec, 0) * np.array(r) / 8.0
    assert sphere_density(spec, 0) > 0.0
    assert flux_field(spec, r) == pytest.approx(expected, rel=1e-14)
    s = director_sample(spec, r)
    assert s.density == 0.0
    assert s.D == pytest.approx(expected, rel=1e-14)
    assert s.n == pytest.approx(director(spec, r), abs=0.0)
