import math

import numpy as np
import pytest

from nemprism import (
    ConfigFamily,
    DomainError,
    RationalMapSpec,
    UNWRAPPED_VARIANTS,
    UnknownFamilyError,
    builtin_family,
    invariants_of,
    lower_bound_prism,
    make_prism,
    minimize_family,
    sweep_energy,
    trapped_area,
    upper_bound_prism,
)


def test_builtin_registry():
    fam = builtin_family("imag1")
    assert fam.name == "imag1"
    assert fam.has_parameter
    for name in UNWRAPPED_VARIANTS:
        assert not builtin_family(name).has_parameter
    with pytest.raises(UnknownFamilyError) as exc:
        builtin_family("nope")
    assert "imag1" in str(exc.value)


def test_imag1_instantiation():
    fam = builtin_family("imag1")
    spec = fam.instantiate(0.5)
    assert spec == RationalMapSpec(1, 1, imag_factors=((0.5, 1),))
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises((DomainError, ValueError)):
            fam.instantiate(bad)


def test_parameterless_instantiation_ignores_missing_s():
    spec = builtin_family("unwrapped-neg-inv-anti").instantiate()
    assert spec.epsilon == -1 and spec.n == -1
    assert spec.orientation == "anticonformal"


def test_custom_family_template():
    fam = ConfigFamily(
        "pair", {"epsilon": 1, "n": 1, "real": [["$s", 1], [0.3, -1]]}
    )
    assert fam.has_parameter
    spec = fam.instantiate(0.7)
    assert spec.real_factors == ((0.7, 1), (0.3, -1))


def test_invariants_constant_across_sweep():
    fam = builtin_family("imag1")
    base = invariants_of(fam.instantiate(0.1))
    for s in (0.3, 0.5, 0.7, 0.9, 0.99):
        assert invariants_of(fam.instantiate(s)) == base


def test_sweep_rows_carry_bounds_and_invariants():
    fam = builtin_family("imag1")
    cube = make_prism(1.0, 1.0, 1.0)
    rows = sweep_energy(fam, cube, [0.4, 0.6], tol=1e-6)
    omega = trapped_area(fam.instantiate(0.4))
    for row, s in zip(rows, (0.4, 0.6)):
        assert row.s == s
        assert not row.accuracy_failed
        assert row.lower == pytest.approx(lower_bound_prism(cube, omega))
        assert row.upper == pytest.approx(upper_bound_prism(cube, omega))
        assert row.lower <= row.energy <= row.upper
        assert row.scaled == pytest.approx(row.energy)  # unit volume
        assert row.invariants.k_z == -1


def test_sweep_parameterless_family_single_row():
    rows = sweep_energy(
        builtin_family("unwrapped"), make_prism(1.0, 1.0, 1.0), [0.2, 0.8]
    )
    assert len(rows) == 1
    assert rows[0].s is None
    assert rows[0].energy == pytest.approx(15.348248444887467, rel=1e-5)


def test_sweep_flags_accuracy_failures_and_continues():
    fam = builtin_family("imag1")
    cube = make_prism(1.0, 1.0, 1.0)
    rows = sweep_energy(fam, cube, [0.5], tol=1e-16)
    assert len(rows) == 1
    assert rows[0].accuracy_failed
    # the best estimate is still recorded and sane
    assert rows[0].energy == pytest.approx(43.636695, abs=1e-3)
    assert rows[0].energy_err > 0.0


def test_sweep_flags_accuracy_failure_of_a_parameter_free_family():
    rows = sweep_energy(builtin_family("unwrapped"), make_prism(1.0, 1.0, 1.0), [], tol=1e-16)
    assert len(rows) == 1
    assert rows[0].s is None
    assert rows[0].accuracy_failed
    assert rows[0].energy == pytest.approx(15.348248444887467, rel=1e-9)


def test_cube_energy_decreases_toward_edge_limit():
    fam = builtin_family("imag1")
    rows = sweep_energy(
        fam, make_prism(1.0, 1.0, 1.0), [0.5, 0.7, 0.9], tol=1e-6
    )
    scaled = [r.scaled for r in rows]
    assert scaled[0] > scaled[1] > scaled[2]


def test_classification_cube_vs_slab():
    fam = builtin_family("imag1")
    res_cube, label_cube = minimize_family(
        fam, make_prism(1.0, 1.0, 1.0), tol=1e-3, quad_tol=1e-5
    )
    assert label_cube == "edge-singular"
    assert res_cube.at_boundary
    res_slab, label_slab = minimize_family(
        fam, make_prism(20.0, 10.0, 1.0), tol=1e-3, quad_tol=1e-5
    )
    assert label_slab == "smooth"
    assert not res_slab.at_boundary
    assert 0.1 < res_slab.argmin < 0.9


def test_coarse_tol_keeps_an_interior_minimum_smooth():
    # argmin 0.5475 lies within tol 0.5 of both ends, yet is no endpoint
    res, label = minimize_family(builtin_family("imag1"), make_prism(20.0, 10.0, 1.0), tol=0.5)
    assert 0.54 < res.argmin < 0.56
    assert not res.at_boundary
    assert label == "smooth"


def test_minimize_family_lists_failed_points_on_its_result():
    # at quad-tol 1e-14 most scan points reach the round-off floor first
    res, _ = minimize_family(
        builtin_family("imag1"), make_prism(1.0, 1.0, 1.0), quad_tol=1e-14
    )
    assert len(res.failures) >= 90
    assert all(
        1e-3 <= s <= 1 - 1e-3 and "round-off floor" in str(exc) for s, exc in res.failures
    )
    assert math.isfinite(res.min_value)
    assert res.bracket[0] <= res.argmin <= res.bracket[1]
    assert sorted(res.to_dict()) == ["argmin", "at_boundary", "bracket", "min_value"]


def test_minimize_parameterless_family():
    res, label = minimize_family(
        builtin_family("unwrapped"), make_prism(1.0, 1.0, 1.0), quad_tol=1e-6
    )
    assert label == "smooth"
    assert math.isnan(res.argmin)
    assert res.min_value == pytest.approx(15.348248444887467, rel=1e-5)
