import itertools
import json
import math

import numpy as np
import pytest

import nemprism.invariants

from helpers import near_spec, random_spec

from nemprism import (
    AccuracyError,
    PathResolutionError,
    RationalMapSpec,
    TopologicalInvariants,
    director,
    edge_orientations,
    eval_f,
    face_flux,
    invariants_of,
    invariants_report,
    kink_numbers,
    make_prism,
    numeric_kink_x,
    numeric_kink_y,
    numeric_kink_z,
    numeric_trapped_area,
    omega_min,
    trapped_area,
)
from nemprism.cli import run
from nemprism.conformal import factor_scales


def test_unwrapped_invariants():
    inv = invariants_of(RationalMapSpec(1, 1))
    assert (inv.e_x, inv.e_y, inv.e_z) == (1, 1, 1)
    assert (inv.k_x, inv.k_y, inv.k_z) == (0, 0, 0)
    assert inv.omega0 == pytest.approx(math.pi / 2, abs=1e-15)
    assert inv.omega_min == pytest.approx(math.pi / 2, abs=1e-15)


def test_single_imag_factor_invariants():
    inv = invariants_of(RationalMapSpec(1, 1, imag_factors=((0.5, 1),)))
    assert (inv.e_x, inv.e_y, inv.e_z) == (1, -1, 1)
    assert (inv.k_x, inv.k_y, inv.k_z) == (0, 0, -1)
    assert inv.omega0 == pytest.approx(3 * math.pi / 2, abs=1e-15)
    assert inv.omega_min == pytest.approx(5 * math.pi / 2, abs=1e-15)


def test_trapped_area_is_half_degree():
    rng = np.random.default_rng(67)
    for _ in range(25):
        spec = random_spec(rng)
        a = len(spec.real_factors)
        b = len(spec.imag_factors)
        c = len(spec.complex_factors)
        degree = abs(spec.n) + 2 * (a + b) + 4 * c
        expected = 0.5 * degree * math.pi
        if spec.orientation == "anticonformal":
            expected = -expected
        assert trapped_area(spec) == pytest.approx(expected, abs=1e-12)


def test_anticonformal_flips():
    args = dict(
        real_factors=((0.4, 1),),
        imag_factors=((0.7, -1),),
        complex_factors=((complex(0.3, 0.5), 1),),
    )
    base = invariants_of(RationalMapSpec(1, 3, **args))
    anti = invariants_of(
        RationalMapSpec(1, 3, orientation="anticonformal", **args)
    )
    assert anti.e_x == base.e_x
    assert anti.e_y == -base.e_y
    assert anti.e_z == base.e_z
    assert anti.k_x == -base.k_x
    assert anti.k_y == base.k_y
    assert anti.k_z == -base.k_z
    assert anti.omega0 == -base.omega0
    assert anti.omega_min == base.omega_min


def test_omega_min_formula():
    assert omega_min((0, 0, 0)) == pytest.approx(math.pi / 2)
    assert omega_min((0, 0, -1)) == pytest.approx(2 * math.pi * 1.25)
    assert omega_min((1, -2, 3)) == pytest.approx(2 * math.pi * 6.25)


def test_edge_orientations_match_axis_directors():
    """The closed-form edge signs are visible in the field on the axes."""
    rng = np.random.default_rng(61)
    for _ in range(15):
        spec = random_spec(rng)
        ex, ey, ez = edge_orientations(spec)
        assert director(spec, (1.0, 0.0, 0.0)) == pytest.approx(
            [ex, 0, 0], abs=1e-10
        )
        assert director(spec, (0.0, 1.0, 0.0)) == pytest.approx(
            [0, ey, 0], abs=1e-10
        )
        assert director(spec, (0.0, 0.0, 1.0)) == pytest.approx(
            [0, 0, ez], abs=1e-10
        )


def test_numeric_trapped_area_agrees():
    rng = np.random.default_rng(71)
    for _ in range(10):
        spec = random_spec(rng)
        res = numeric_trapped_area(spec, tol=1e-7)
        assert res.value == pytest.approx(trapped_area(spec), abs=1e-6)
        assert res.error_estimate <= 1e-7


def test_numeric_kinks_agree():
    rng = np.random.default_rng(73)
    for _ in range(10):
        spec = random_spec(rng)
        kx, ky, kz = kink_numbers(spec)
        assert numeric_kink_x(spec) == kx
        assert numeric_kink_y(spec) == ky
        assert numeric_kink_z(spec) == kz


def test_winding_regression_close_factor_triple():
    # three imaginary factors with opposite-sign neighbors 2e-3 apart; the
    # full phase swing happens inside a 2e-4 window on the tracking path
    spec = RationalMapSpec(
        1,
        -1,
        imag_factors=(
            (0.5434296062461274, -1),
            (0.5645809004058299, -1),
            (0.5398921582411745, 1),
        ),
    )
    assert numeric_kink_x(spec) == kink_numbers(spec)[0] == -1


def test_quadrature_regression_near_pair_off_center():
    # the density bump of this near pair sits between the root-cell nodes
    spec = RationalMapSpec(
        -1,
        3,
        real_factors=(
            (0.10450658475464239, -1),
            (0.0912858067865561, 1),
            (0.49592173357773117, 1),
        ),
        orientation="anticonformal",
    )
    res = numeric_trapped_area(spec, tol=1e-6)
    assert res.value == pytest.approx(trapped_area(spec), abs=1e-5)


def test_close_factor_pairs_resolved():
    # same-position opposite-sign pairs are rejected; nearby ones must work
    for gap in (1e-3, 1e-4, 1e-5):
        spec = RationalMapSpec(
            1, 1, real_factors=((0.5, 1), (0.5 + gap, -1))
        )
        assert numeric_kink_y(spec) == kink_numbers(spec)[1]
        res = numeric_trapped_area(spec, tol=1e-6)
        assert res.value == pytest.approx(trapped_area(spec), abs=1e-5)


def test_trapped_area_oracle_same_for_mirrored_complex_factor():
    # a complex factor enters with its mirror, so all four positions give the
    # same map, and the oracle must seed the same cells for each of them
    results = [
        numeric_trapped_area(RationalMapSpec(1, 1, complex_factors=((t, 1),)))
        for t in (0.3 + 0.4j, -0.3 + 0.4j, 0.3 - 0.4j, -0.3 - 0.4j)
    ]
    assert all(res == results[0] for res in results)


def test_kink_oracles_same_for_mirrored_complex_factors():
    # a zero/pole pair near the unit circle at arg 0.3; the arc's sampling
    # was seeded at |arg t|, pi - 0.3 for the second- and third-quadrant
    # mirrors, outside [0, pi/2], and kz_numeric was -1 there against kz 0
    t1 = complex(0.9552409554766934, 0.2954906546406734)
    t2 = complex(0.9549449872508633, 0.2964457476916283)
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        mirror = [complex(sx * t.real, sy * t.imag) for t in (t1, t2)]
        spec = RationalMapSpec(1, 1, complex_factors=((mirror[0], 1), (mirror[1], -1)))
        assert (numeric_kink_x(spec), numeric_kink_y(spec), numeric_kink_z(spec)) == kink_numbers(spec)


@pytest.mark.parametrize("spec,radius", [
    (RationalMapSpec(1, 1, real_factors=((1e-6, -1),)), 1e-12),
    (RationalMapSpec(1, -1, imag_factors=((1e-3, 1),)), 1e-6),
    (RationalMapSpec(1, 1, real_factors=((1e-3, -1),)), 1e-6),
], ids=["real-1e-6", "imag-1e-3-n-1", "real-1e-3"])
def test_kink_paths_start_inside_the_origin_bubble(spec, radius):
    # |f| crosses 1 on the circle |w| = b near w = 0, s^2 for one factor at
    # s, which factor_scales lists last as (0, b); paths that started at
    # 1e-6, outside it, gave ky_numeric (kx_numeric for n = -1) 0 against -1
    w0, b = factor_scales(spec)[-1]
    assert w0 == 0 and b == pytest.approx(radius, rel=1e-12)
    assert (numeric_kink_x(spec), numeric_kink_y(spec), numeric_kink_z(spec)) == kink_numbers(spec)


def test_winding_tracker_samples_each_parameter_once(monkeypatch):
    # the imaginary path of three factors crowding i refines in 20 rounds;
    # each round samples only its new midpoints (the real path of n = -3
    # with a zero at 1e-4 took 19 rounds until factor_scales gave the
    # zero's own bubble, and now takes 2)
    spec = RationalMapSpec(1, 1, real_factors=((4.4517782726092465e-05, -1),), imag_factors=(
        (0.9999999944812519, -1), (0.9999723777096169, 1), (0.9976153713409643, 1)))
    calls = []
    track = nemprism.invariants._track_winding

    def counting(spec, path, *args):
        def sampled(ts):
            calls.append(np.array(ts))
            return path(ts)
        return track(spec, sampled, *args)

    monkeypatch.setattr(nemprism.invariants, "_track_winding", counting)
    assert numeric_kink_x(spec) == kink_numbers(spec)[0]
    ts = np.concatenate(calls)
    assert len(calls) == 21 and calls[0].size == 541
    assert np.unique(ts).size == ts.size == 563


def _origin_rows(kind):
    # one factor at 1e-k (complex: on the ray of 0.6 + 0.8 i), of either
    # sign and either orientation, alone or beside an opposite-sign factor
    # at 0.5 on an axis; of the sign opposite to w^n, it puts the origin
    # radius at (1e-k)^(2/|n|)
    for k in range(1, 10):
        r = 10.0 ** -k
        for n, sg, orientation, paired in itertools.product(
            (1, -1, 3, -3), (1, -1), ("conformal", "anticonformal"), (False, True)
        ):
            factors = {"complex_factors": ((complex(0.6 * r, 0.8 * r), sg),)} if kind == "complex" \
                else {f"{kind}_factors": ((r, sg),)}
            if paired:
                other = "imag_factors" if kind == "real" else "real_factors"
                factors[other] = factors.get(other, ()) + ((0.5, -sg),)
            yield RationalMapSpec(1, n, orientation=orientation, **factors)


@pytest.mark.parametrize("kind", ["real", "imag", "complex"])
def test_kink_oracles_answer_or_refuse_on_factors_crowding_the_origin(kind):
    # at the floor of 512 uniform intervals, every kink equals its closed
    # form or raises PathResolutionError
    assert nemprism.invariants._INITIAL_SAMPLES == 512
    for spec in _origin_rows(kind):
        for oracle, closed in zip((numeric_kink_x, numeric_kink_y, numeric_kink_z), kink_numbers(spec)):
            try:
                assert oracle(spec) == closed, (spec, oracle.__name__)
            except PathResolutionError:
                pass


ORIGIN_BUBBLES = [
    {"epsilon": 1, "n": 1, "real": [[1e-6, -1]]},
    {"epsilon": 1, "n": -1, "imag": [[1e-3, 1]]},
    {"epsilon": 1, "n": 1, "real": [[1e-3, -1]]},
    {"epsilon": 1, "n": -3, "real": [[1e-4, 1]]},
    {"epsilon": 1, "n": 3, "complex": [[0.40831210882990704, 0.1758644288019021, -1]]},
]


@pytest.mark.parametrize("payload,radius", zip(ORIGIN_BUBBLES, [1e-12, 1e-6, 1e-6, 5e-9, abs(complex(
    0.40831210882990704, 0.1758644288019021)) ** (4 / 3)]), ids=["real-1e-6", "imag-1e-3-n-1", "real-1e-3",
                                                               "real-1e-4-n-3", "complex-n-3"])
def test_trapped_area_oracle_seeds_the_origin_bubble(payload, radius, tmp_path, capsys):
    # the narrowest bump of factor_scales is each row's bubble: w = 0 of
    # radius b, or for real-1e-4-n-3, whose b = 2.2e-3 lies beyond its
    # factor, the factor's own of radius s^2 / 2; with no radius cut at b
    # (1e-12, 1e-6, 1e-6, 2.2e-3 and 0.339), omega0_numeric missed by 3.1,
    # 2.6e-6, 2.6e-6, 3.1 and 2.2e-6 at tol 1e-6
    spec = RationalMapSpec.from_dict(payload)
    widths = [delta * abs(w0) if w0 else delta for w0, delta in factor_scales(spec)]
    assert min(widths) == pytest.approx(radius, rel=1e-9)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert run(["invariants", "--spec", str(path)]) == 0
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert abs(rep["omega0_numeric"] - trapped_area(spec)) <= 1e-6 and err == ""
    assert (rep["kx_numeric"], rep["ky_numeric"], rep["kz_numeric"]) == kink_numbers(spec)


def test_kink_path_one_float_spacing_wide_is_refused_at_once():
    # |f| crosses 1 within about 1e-49 of the pole at r on the real path,
    # far below r's float spacing of 1.3e-23: the interval ending at r
    # steps by pi, and its midpoint is one of its ends; refining it again
    # and again ran for more than a minute before the sample cap
    spec = RationalMapSpec(
        -1, 5, real_factors=((9.118870564684855e-08, -1), (9.118871005658221e-08, 1)),
        orientation="anticonformal",
    )
    assert kink_numbers(spec) == (0, 1, 1)
    with pytest.raises(PathResolutionError, match="one float spacing wide"):
        numeric_kink_y(spec)


def test_kink_oracles_near_0_near_1_and_near_each_other_answer_or_refuse():
    # factors down to 1e-8 from 0, 1e-9 from 1 and a relative 1e-9 from
    # each other: every numeric kink equals its closed form or raises
    # PathResolutionError
    rng = np.random.default_rng(24)
    specs = [spec for spec in (near_spec(rng) for _ in range(48)) if spec is not None]
    answered = refused = 0
    for spec in specs:
        got = []
        for oracle in (numeric_kink_x, numeric_kink_y, numeric_kink_z):
            try:
                got.append(oracle(spec))
            except PathResolutionError:
                got.append(None)
        closed = kink_numbers(spec)
        assert all(g is None or g == k for g, k in zip(got, closed)), (spec, got, closed)
        answered += None not in got
        refused += None in got
    assert refused >= 1 and 2 * answered >= len(specs), (answered, refused, len(specs))


def _near_draws(seed, count):
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        spec = near_spec(rng)
        if spec is not None:
            specs.append(spec)
    return specs


def _flux_on_the_cube(spec, tol):
    return face_flux(make_prism(1.0, 1.0, 1.0), spec, "interior", tol=tol)


# Each density oracle at tol 1e-6 answers within tol of omega0 or raises
# AccuracyError.  The polar oracle runs every origin row; face_flux, the
# same quadrature at three times the budget, the conformal unpaired rows
# with |n| = 3, whose factor of the sign opposite to w^n carries its own
# bubble of radius about s^2 / 2, and the first 20 draws.  Before
# factor_scales gave each factor's bubble and the origin's was seeded,
# numeric_trapped_area missed on 88 of the 864 rows and on 4 of the first
# 40 seed-7 draws, and face_flux, then a quadrature of the three face
# rectangles, on 24 of its 108 rows (row 4 of ORIGIN_BUBBLES gave
# 1.5707963 against 5 pi / 2, with an estimate of 2.3e-8) and on 11 of its
# 20 draws.
@pytest.mark.parametrize("oracle,rows,draws", [
    (numeric_trapped_area, lambda spec: True, 40),
    (_flux_on_the_cube, lambda spec: abs(spec.n) == 3 and not spec.is_anticonformal
     and len(spec.real_factors) + len(spec.imag_factors) + len(spec.complex_factors) == 1, 20),
], ids=["polar", "flux"])
def test_density_oracles_answer_or_refuse_near_the_origin_and_on_crowded_specs(oracle, rows, draws):
    specs = [spec for kind in ("real", "imag", "complex") for spec in _origin_rows(kind) if rows(spec)]
    refused = 0
    for spec in specs + _near_draws(7, draws):
        try:
            res = oracle(spec, tol=1e-6)
        except AccuracyError:
            refused += 1
        else:
            assert abs(res.value - trapped_area(spec)) <= 1e-6, spec
    assert 2 * refused < len(specs) + draws


def test_factor_scales_gives_a_factor_bubble_in_closed_form():
    # f ~ C (w - s) near the zero s = 1e-4 of row 4 (n = -3), with |C| =
    # 2 / (s^2 (1 - s^4)): |f| = 1 at rho0 = s^2 (1 - s^4) / 2, far inside
    # the zero's width (1 - s^2) / s, so its width narrows to rho0 / s.  On
    # that circle |f| is 1 to first order in rho0 / s: it swings by
    # 2.5 rho0 / s = 1.25e-4 with the angle
    spec = RationalMapSpec.from_dict(ORIGIN_BUBBLES[3])
    (w0, delta), = factor_scales(spec)
    rho0 = delta * abs(w0)
    assert w0 == 1e-4 and rho0 == pytest.approx(5e-9, rel=1e-9)
    for alpha in np.linspace(0.0, 2.0 * math.pi, 9):
        hv = eval_f(spec, w0 + rho0 * np.exp(1j * alpha))
        assert abs(abs(hv.P / hv.Q) - 1.0) <= 3.0 * delta


def test_origin_bubble_radius_stays_a_normal_float():
    # fourteen poles near 2e-12 put b = |C|^(-1/n) near 1e-327, which
    # underflows to 0; the polar cuts ladder(0, 0.5) then never ended
    spec = RationalMapSpec(1, 1, real_factors=tuple((2e-12 * (1.0 + 1e-3 * k), -1) for k in range(14)))
    w0, b = factor_scales(spec)[-1]
    assert w0 == 0 and b / 64.0 > 0.0


def test_face_flux_refuses_below_the_rounding_floor_at_once():
    # a factor within 2e-12 of the unit circle: the bump's relative width
    # is 4e-12, so the flux is biased by up to about 1.1e-4; it spent
    # 2,999,700 evaluations before it refused
    spec = RationalMapSpec(1, 1, imag_factors=((1.0 - 2e-12, 1),))
    with pytest.raises(AccuracyError, match="rounding floor") as exc:
        _flux_on_the_cube(spec, 1e-6)
    assert exc.value.evaluations == 0 and math.isnan(exc.value.value)


def test_invariants_dict_round_trip():
    inv = invariants_of(RationalMapSpec(1, 1, imag_factors=((0.5, 1),)))
    d = inv.to_dict()
    assert d["kz"] == -1 and d["ey"] == -1
    assert TopologicalInvariants.from_dict(d) == inv


def test_invariants_from_dict_refuses_a_non_integer_orientation():
    d = invariants_of(RationalMapSpec(1, 1)).to_dict()
    with pytest.raises(ValueError, match="'ex'"):
        TopologicalInvariants.from_dict(dict(d, ex=1.9))


def test_invariants_report_numeric_fields():
    spec = RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    rep = invariants_report(spec)
    inv = invariants_of(spec)
    for key in ("ex", "ey", "ez", "kx", "ky", "kz", "omega0", "omega_min"):
        assert key in rep
    assert rep["kx_numeric"] == inv.k_x
    assert rep["ky_numeric"] == inv.k_y
    assert rep["kz_numeric"] == inv.k_z
    assert rep["omega0_numeric"] == pytest.approx(inv.omega0, abs=1e-5)


def test_numeric_trapped_area_on_a_close_gap_is_pinned():
    # the cube gap probe of the benchmark at g = 1e-4: 2,923 seeded root
    # cells rated in one round, then refinement; value, error estimate and
    # evaluations are pinned bit for bit.  While cells were split across
    # the larger total variation of their sampled values, they were
    # (20.42035224832836, 9.892145174317918e-07, 671625): within the two
    # estimates summed
    g = 1e-4
    spec = RationalMapSpec(
        1, 1, real_factors=((0.5, 1), (0.5 + g, -1), (0.3, 1), (0.3 + g, -1)),
        imag_factors=((0.4, 1), (0.4 + g, -1)),
    )
    res = numeric_trapped_area(spec, tol=1e-6)
    assert (res.value, res.error_estimate, res.evaluations) == (20.420352248332204, 9.878991520218236e-07, 671175)
    assert abs(res.value - 20.42035224832836) <= res.error_estimate + 9.892145174317918e-07


@pytest.mark.parametrize("g,cells,evaluations", [
    (1e-6, 6903, 1553175), (1e-7, 8340, 1876500), (1e-8, 9982, 2245950),
])
def test_numeric_trapped_area_refuses_the_close_gaps_from_their_cut_counts(g, cells, evaluations):
    # the benchmark's cube gap probes below 1e-4: the bracketed root grid
    # outgrows the budget of 1,000,000 evaluations, and the refusal names the
    # cells and evaluations of the merged cuts (those of _breakpoints)
    spec = RationalMapSpec(
        1, 1, real_factors=((0.5, 1), (0.5 + g, -1), (0.3, 1), (0.3 + g, -1)),
        imag_factors=((0.4, 1), (0.4 + g, -1)),
    )
    with pytest.raises(AccuracyError, match=f"^{cells} root cells need {evaluations} evaluations, "
                                            "above the quadrature budget of 1000000$") as exc:
        numeric_trapped_area(spec, tol=1e-6)
    assert exc.value.evaluations == 0 and math.isnan(exc.value.value)


@pytest.mark.parametrize("kind,gap,tol", [
    ("imag", 1e-10, 1e-6), ("imag", 1e-11, 1e-6), ("imag", 2e-12, 1e-6), ("real", 2e-12, 1e-6),
    ("imag", 1e-9, 1e-7), ("imag", 1e-9, 1e-6), ("imag", 1e-8, 1e-6),
])
def test_trapped_area_near_the_unit_circle_refuses_or_holds_its_estimate(kind, gap, tol):
    # a factor at s = 1 - gap has a bump of relative width delta = (1 - s^2) / s,
    # sampled with a relative rounding error of about eps / delta; these rows
    # returned values off by 2e-6 to 1e-4 with estimates near tol, and must
    # refuse, while s = 1 - 1e-9 and 1 - 1e-8 at tol 1e-6 still answer
    spec = RationalMapSpec(1, 1, **{f"{kind}_factors": ((1.0 - gap, 1),)})
    try:
        res = numeric_trapped_area(spec, tol=tol)
    except AccuracyError as exc:
        assert gap <= 1e-10 or tol < 1e-6
        assert "rounding floor" in str(exc) and exc.evaluations == 0
    else:
        assert gap >= 1e-9 and tol == 1e-6
        assert abs(res.value - trapped_area(spec)) <= res.error_estimate <= tol
