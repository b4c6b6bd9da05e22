import argparse
import hashlib
import json
import math
import random
import time

import pytest

import nemprism.energy
import nemprism.invariants
from nemprism import QuadratureResult, invariants_report, RationalMapSpec
from nemprism.cli import _COMMANDS, _FIELD_TRIPLE, Job, _build_parser, _fmt, run

SPEC = {"epsilon": 1, "n": 1, "imag": [[0.5, 1]]}


def write_spec(tmp_path, payload=SPEC, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_invariants_command(tmp_path, capsys):
    assert run(["invariants", "--spec", write_spec(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = invariants_report(RationalMapSpec.from_dict(SPEC))
    assert payload == expected
    assert payload["kz"] == -1 and payload["kz_numeric"] == -1


def test_bounds_command(capsys):
    code = run(
        ["bounds", "--prism", "1,1,1", "--omega0", str(math.pi / 2), "--K", "1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == pytest.approx(4 * math.pi, abs=1e-12)
    assert payload["ratio"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert payload["exact"] is None
    assert payload["lp"]["feasible"] is True
    assert payload["lp"]["objective"] == pytest.approx(payload["lower"], rel=1e-9)
    assert min(payload["lp"]["xi"]) == 0.0


def test_bounds_min_constant(capsys):
    code = run(
        [
            "bounds",
            "--prism",
            "1,1,1",
            "--omega0",
            "1.0",
            "--K1",
            "1.0",
            "--K2",
            "2.0",
            "--K3",
            "0.5",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_min_constant"] == pytest.approx(8.0 * 0.5, rel=1e-12)


def test_energy_command(tmp_path, capsys):
    code = run(
        ["energy", "--prism", "1,1,1", "--spec", write_spec(tmp_path), "--tol", "1e-7"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] <= payload["exact"] <= payload["upper"]
    assert payload["exact"] == pytest.approx(43.6366950481, abs=1e-5)
    assert payload["exact_err"] <= 1e-6
    assert payload["scaled"] == pytest.approx(payload["exact"])


def test_sweep_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "sweep",
        "--family",
        "imag1",
        "--prism",
        "1,1,1",
        "--range",
        "0.5:0.9",
        "--steps",
        "5",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()  # byte-for-byte
    lines = text.strip().split("\n")
    assert lines[0] == "s,E,E_err,eps_scaled,lower,upper"
    assert len(lines) == 6
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["s"] == 0.5
    assert first["lower"] <= first["E"] <= first["upper"]
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert energies == sorted(energies, reverse=True)


def test_minimize_command(capsys):
    code = run(["minimize", "--family", "imag1", "--prism", "20,10,1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "smooth"
    assert payload["at_boundary"] is False
    assert 0.1 < payload["argmin"] < 0.9


def test_field_csv(tmp_path):
    out = tmp_path / "f.csv"
    code = run(
        [
            "field",
            "--prism",
            "1,1,1",
            "--spec",
            write_spec(tmp_path),
            "--grid",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,nx,ny,nz"
    assert len(lines) == 1 + 4**3 - 1  # octant grid minus the vertex
    for ln in lines[1:]:
        x, y, z, nx, ny, nz = map(float, ln.split(","))
        assert nx**2 + ny**2 + nz**2 == pytest.approx(1.0, abs=1e-9)
        if x == 0.0:
            assert nx == 0.0
        if z == 0.0:
            assert abs(nz) < 1e-12


def test_job_file_mode(tmp_path, capsys):
    job = {
        "command": "energy",
        "prism": [1.0, 1.0, 1.0],
        "spec": SPEC,
        "tol": 1e-7,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run(["--job", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == pytest.approx(43.6366950481, abs=1e-5)


def test_job_round_trip_and_validation():
    job = Job(command="energy", prism=(1.0, 1.0, 1.0), spec=SPEC)
    assert Job.from_dict(job.to_dict()) == job
    with pytest.raises(ValueError, match="requires 'spec'"):
        Job(command="energy", prism=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="takes 'family'"):
        Job(command="sweep", prism=(1.0, 1.0, 1.0), family="imag1", spec=SPEC)
    with pytest.raises(ValueError, match="omega0"):
        Job(command="bounds", prism=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="bogus"):
        Job.from_dict(
            {"command": "bounds", "prism": [1, 1, 1], "omega0": 1.0, "bogus": 2}
        )


def test_exit_code_1_on_bad_inputs(tmp_path, capsys):
    # misordered prism
    assert run(["energy", "--prism", "1,2,3", "--spec", write_spec(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err
    # unknown family
    assert run(["sweep", "--family", "nosuch", "--prism", "1,1,1"]) == 1
    assert "nosuch" in capsys.readouterr().err
    # invalid spec content
    bad = write_spec(tmp_path, {"epsilon": 1, "n": 2}, "bad.json")
    assert run(["invariants", "--spec", bad]) == 1
    assert "odd" in capsys.readouterr().err
    # missing required flag
    assert run(["energy", "--prism", "1,1,1"]) == 1
    capsys.readouterr()
    # unwritable output path fails cleanly, not with a traceback
    dead = str(tmp_path / "no" / "such" / "dir.json")
    assert run(["bounds", "--prism", "1,1,1", "--omega0", "1.0", "--out", dead]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nemprism: error: --out:")


def test_exit_code_2_on_accuracy_failure(tmp_path, capsys):
    hard = write_spec(tmp_path, {"epsilon": 1, "n": 1, "imag": [[0.5, 1]]}, "h.json")
    code = run(
        ["energy", "--prism", "1,1,1", "--spec", hard, "--tol", "1e-16"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "accuracy" in err
    assert "best estimate" in err


def test_invariants_near_the_unit_circle_exits_2(tmp_path, capsys):
    # the trapped-area oracle gave 4.7122876 (true 3 pi / 2 = 4.7123890)
    near = write_spec(tmp_path, {"epsilon": 1, "n": 1, "imag": [[0.999999999998, 1]]}, "near.json")
    assert run(["invariants", "--spec", near]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("nemprism: accuracy failure: tolerance") and "Traceback" not in err


@pytest.mark.parametrize("oracle,value,named", [
    ("numeric_kink_y", 1, "ky_numeric 1 != ky 0"),
    ("numeric_trapped_area", QuadratureResult(math.pi / 2 + 2e-6, 1e-7, 450),
     "omega0_numeric 1.5707983267948966 misses omega0 1.5707963267948966 by 2.000e-06 > tol 1.000e-06"),
], ids=["kink", "omega0"])
def test_invariants_exits_2_when_a_cross_check_disagrees(oracle, value, named, tmp_path, capsys, monkeypatch):
    # the artifact is written as it stands, and the mismatch is named on stderr
    identity = write_spec(tmp_path, {"epsilon": 1, "n": 1})
    monkeypatch.setattr(nemprism.invariants, oracle, lambda *args, **kwargs: value)
    expected = json.dumps(invariants_report(RationalMapSpec(1, 1)), indent=2, sort_keys=True) + "\n"
    assert run(["invariants", "--spec", identity]) == 2
    out, err = capsys.readouterr()
    assert out == expected
    assert err == f"nemprism: accuracy failure: {named}\n"


def test_sweep_writes_every_row_and_exits_2_on_failed_rows(capsys):
    code = run(["sweep", "--family", "imag1", "--prism", "1,1,1", "--steps", "2",
                "--range", "0.3:0.5", "--tol", "1e-16"])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "s,E,E_err,eps_scaled,lower,upper"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.3", "0.5"]
    assert "s=0.3" in captured.err and "s=0.5" in captured.err


def test_out_file_keeps_stdout_clean(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(
        [
            "bounds",
            "--prism",
            "1,1,1",
            "--omega0",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["lower"] == pytest.approx(8.0)


def test_repeated_runs_in_one_process(tmp_path, capsys):
    spec = write_spec(tmp_path)
    for _ in range(2):
        assert run(["energy", "--prism", "1,1,1", "--spec", spec, "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "invariants" in capsys.readouterr().out
    energy = ["energy", "--prism", "2,1,1", "--spec", spec, "--tol", "1e-5"]
    bounds = ["bounds", "--prism", "1,1,1", "--omega0", "1.5"]
    outs = []
    for argv in (energy, bounds, energy, bounds):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_seed_and_threads_are_not_flags(capsys):
    for flag in ("--seed", "--threads"):
        assert run(["bounds", "--prism", "1,1,1", "--omega0", "1.0", flag, "1"]) == 1
        assert flag in capsys.readouterr().err
    with pytest.raises(ValueError, match="seed"):
        Job.from_dict({"command": "bounds", "prism": [1, 1, 1], "omega0": 1.0, "seed": 1})


def test_field_rows_match_the_director(tmp_path, capsys):
    from nemprism import director

    payload = {
        "epsilon": -1,
        "n": 1,
        "real": [[0.3, 1]],
        "imag": [[0.6, -1]],
        "complex": [[0.4, 0.5, 1]],
    }
    spec = RationalMapSpec.from_dict(payload)
    assert spec.degree == 9
    path = write_spec(tmp_path, payload, "deg9.json")
    assert run(["field", "--prism", "2,1,0.5", "--spec", path, "--grid", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 5**3 - 1
    for ln in lines[1:]:
        x, y, z, *n = map(float, ln.split(","))
        assert max(abs(n - director(spec, (x, y, z)))) <= 1e-11


# sha256 of `field --prism 2,1,0.5 --grid 4` stdout, as the row-at-a-time
# formatter printed it: negative, zero (-0 too) and small components appear.
# Directors from the zeta = w^2 kernel: against the w-form kernel, 5 and 11
# rows changed, each only in an n_z below 1e-12 (a zero component at z = 0)
FIELD_DIGESTS = [
    (
        {"epsilon": -1, "n": 1, "real": [[0.3, 1]], "imag": [[0.6, -1]], "complex": [[0.4, 0.5, 1]]},
        "c911fb0aecb0695238702a450d0cc9dd1a399399437187da5b1bdc2f26ea7227",
    ),
    (
        {"epsilon": 1, "n": -3, "real": [[0.7, -1]], "complex": [[0.2, 0.6, -1]],
         "orientation": "anticonformal"},
        "cb3a0e450e1754d40e44ac6b7942d6f28b8560385be429d950352ed5a5120d0c",
    ),
]


@pytest.mark.parametrize("payload,digest", FIELD_DIGESTS, ids=["degree-9", "anticonformal"])
def test_field_bytes_are_pinned(tmp_path, capsys, payload, digest):
    path = write_spec(tmp_path, payload)
    assert run(["field", "--prism", "2,1,0.5", "--spec", path, "--grid", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("x", [-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1 / 3, math.nan, -math.inf])
def test_field_row_template_formats_like_fmt(x):
    assert _FIELD_TRIPLE % ((x,) * 3) == ",".join([_fmt(x)] * 3) + "\n"
    assert _fmt(x) == f"{x:.12g}"


# sizes past the 128 TiB address space: the allocation fails before any
# memory is touched; the last two pass numpy's own size limits, which it
# refuses with ValueError before allocating
OVERSIZED = [
    (["field", "--prism", "1,1,1", "--spec", "{spec}", "--grid", "100000"],
     {"command": "field", "prism": [1, 1, 1], "spec": SPEC, "grid": 100000}, "--grid"),
    (["sweep", "--family", "imag1", "--prism", "1,1,1", "--steps", "1000000000000000"],
     {"command": "sweep", "family": "imag1", "prism": [1, 1, 1], "steps": 10 ** 15}, "--steps"),
    (["field", "--prism", "1,1,1", "--spec", "{spec}", "--grid", "3000000"],
     {"command": "field", "prism": [1, 1, 1], "spec": SPEC, "grid": 3000000}, "--grid"),
    (["sweep", "--family", "imag1", "--prism", "1,1,1", "--steps", "10000000000000000000"],
     {"command": "sweep", "family": "imag1", "prism": [1, 1, 1], "steps": 10 ** 19}, "--steps"),
]


@pytest.mark.parametrize("argv,job,flag", OVERSIZED,
                         ids=["field-grid", "sweep-steps", "field-grid-past-numpy", "sweep-steps-past-numpy"])
def test_unallocatable_sizes_exit_1_naming_the_flag(tmp_path, capsys, argv, job, flag):
    spec = write_spec(tmp_path)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    for args in ([spec if arg == "{spec}" else arg for arg in argv], ["--job", str(path)]):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nemprism: error: {flag} ")
        assert "Traceback" not in captured.err


BAD_MODULUS_OR_TOLERANCE = [
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--K", "-1"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--K", "0"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--K", "nan"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--K", "inf"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--tol", "nan"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--tol=-1e-6"],
    ["energy", "--prism", "1,1,1", "--spec", "{spec}", "--tol", "inf"],
    ["invariants", "--spec", "{spec}", "--tol", "nan"],
    ["sweep", "--family", "imag1", "--prism", "1,1,1", "--K", "nan"],
    ["sweep", "--family", "imag1", "--prism", "1,1,1", "--tol", "0"],
    ["minimize", "--family", "imag1", "--prism", "1,1,1", "--K", "-1"],
    ["minimize", "--family", "unwrapped", "--prism", "1,1,1", "--K", "nan"],
    ["minimize", "--family", "imag1", "--prism", "1,1,1", "--quad-tol", "nan"],
    ["minimize", "--family", "imag1", "--prism", "1,1,1", "--tol", "nan"],
    ["minimize", "--family", "imag1", "--prism", "1,1,1", "--tol", "-1"],
    ["minimize", "--family", "imag1", "--prism", "20,10,1", "--tol", "1e-300"],
    ["minimize", "--family", "unwrapped", "--prism", "1,1,1", "--tol", "1e-300"],
]


@pytest.mark.parametrize("argv", BAD_MODULUS_OR_TOLERANCE, ids=" ".join)
def test_bad_modulus_or_tolerance_exits_1_at_once(tmp_path, capsys, argv):
    spec = write_spec(tmp_path)
    argv = [spec if arg == "{spec}" else arg for arg in argv]
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("nemprism: error:")
    assert "positive and finite" in captured.err
    assert elapsed < 0.1


def _bounds_bytes(sides, lower, objective, ratio, upper, xi=(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0)):
    """A bounds artifact whose LP potentials are ``xi``, by default 1 on
    the even-parity vertices 0, 3, 5, 6 and 0 on the others."""
    points = [
        [float(bool(i & 1)) * sides[0], float(bool(i & 2)) * sides[1], float(bool(i & 4)) * sides[2]]
        for i in range(8)
    ]
    payload = {
        "exact": None,
        "exact_err": None,
        "lower": lower,
        "lp": {
            "feasible": True,
            "objective": objective,
            "points": points,
            "xi": list(xi),
        },
        "ratio": ratio,
        "scaled": None,
        "upper": upper,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# stdout of `nemprism bounds`, as printed by the dense-simplex LP
BOUNDS_ARTIFACTS = [
    (
        ["--prism", "1,1,1", "--omega0", "1.5707963267948966"],
        _bounds_bytes((1.0, 1.0, 1.0), 12.566370614359172, 12.566370614359172,
                      1.7320508075688772, 21.765592370810612),
    ),
    (
        ["--prism", "20,10,1", "--omega0", "4.71238898038469", "--lp-constraints", "edges"],
        _bounds_bytes((20.0, 10.0, 1.0), 37.69911184307752, 37.69911184307752,
                      22.38302928559939, 843.820324424691),
    ),
    # potentials of 1e-150 beside sides of 1e150: integer LP weights of ~1000 bits
    (
        ["--prism", "1e150,1,1e-150", "--omega0", "4.71238898038469"],
        _bounds_bytes((1e150, 1.0, 1e-150), 3.7699111843077516e-149, 3.7699111843077516e-149,
                      math.inf, 3.7699111843077516e151,
                      xi=(1e-150, 0.0, 0.0, 1e-150, 0.0, 1e-150, 1e-150, 0.0)),
    ),
    (
        ["--prism", "7.5e120,3,1e-150", "--omega0", "-14.137166941154069", "--lp-constraints", "edges"],
        _bounds_bytes((7.5e120, 3.0, 1e-150), 1.1309733552923255e-148, 1.1309733552923255e-148,
                      math.inf, 8.482300164692443e122,
                      xi=(0.0, 1e-150, 1e-150, 0.0, 1e-150, 0.0, 0.0, 1e-150)),
    ),
]


@pytest.mark.parametrize("flags,expected", BOUNDS_ARTIFACTS,
                         ids=["readme-cube", "slab-edges", "huge-thin", "huge-thin-edges"])
def test_bounds_artifact_bytes_are_pinned(capsys, flags, expected):
    assert run(["bounds"] + flags) == 0
    assert capsys.readouterr().out == expected


# (flags, the same job as a job file); neither gives a tolerance
FLAGS_AND_JOBS = [
    (
        ["minimize", "--family", "imag1", "--prism", "1,1,1"],
        {"command": "minimize", "family": "imag1", "prism": [1, 1, 1]},
    ),
    (
        ["energy", "--prism", "1,1,1", "--spec", "{spec}"],
        {"command": "energy", "prism": [1, 1, 1], "spec": SPEC},
    ),
    (
        ["invariants", "--spec", "{spec}"],
        {"command": "invariants", "spec": SPEC},
    ),
    (
        ["sweep", "--family", "imag1", "--prism", "2,1,1", "--steps", "3"],
        {"command": "sweep", "family": "imag1", "prism": [2, 1, 1], "steps": 3},
    ),
    (
        ["bounds", "--prism", "3,2,1", "--omega0", "-1.5"],
        {"command": "bounds", "prism": [3, 2, 1], "omega0": -1.5},
    ),
    (
        ["field", "--prism", "1,1,1", "--spec", "{spec}", "--grid", "2"],
        {"command": "field", "prism": [1, 1, 1], "spec": SPEC, "grid": 2},
    ),
]


@pytest.mark.parametrize("argv,job", FLAGS_AND_JOBS, ids=[argv[0] for argv, _ in FLAGS_AND_JOBS])
def test_job_file_takes_the_flag_defaults(tmp_path, capsys, argv, job):
    spec = write_spec(tmp_path)
    assert run([spec if arg == "{spec}" else arg for arg in argv]) == 0
    from_flags = capsys.readouterr().out
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run(["--job", str(path)]) == 0
    assert capsys.readouterr().out == from_flags


# (bounds inputs on the unit cube, the name the error message must give)
BAD_BOUNDS_NUMBERS = [
    ({"omega0": math.nan}, "--omega0"),
    ({"omega0": math.inf}, "--omega0"),
    ({"omega0": -math.inf}, "--omega0"),
    ({"omega0": 1e308}, "--omega0"),
    ({"omega0": -1e308}, "--omega0"),
    ({"omega0": 1.0, "K": 1e308}, "K=1e+308"),
    ({"omega0": 1e308, "K": 1e-300}, "--omega0"),
    ({"omega0": 1.0, "K1": 1e308, "K2": 1e308, "K3": 1e308}, "K=1e+308"),
]


@pytest.mark.parametrize("as_job", [False, True], ids=["flags", "job"])
@pytest.mark.parametrize(
    "values,name",
    BAD_BOUNDS_NUMBERS,
    ids=[",".join(f"{k}={v!r}" for k, v in values.items()) for values, _ in BAD_BOUNDS_NUMBERS],
)
def test_bounds_refuses_numbers_it_cannot_print_before_the_lp(tmp_path, capsys, monkeypatch, values, name, as_job):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(nemprism.energy, "lp_solve", no_lp)
    if as_job:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(values, command="bounds", prism=[1, 1, 1])))
        argv = ["--job", str(path)]
    else:
        argv = ["bounds", "--prism", "1,1,1"] + [f"--{key}={value!r}" for key, value in values.items()]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nemprism: error:")
    assert name in captured.err


# stdout captured before the family scans were batched; the sweep's E_err
# re-captured from the zeta = w^2 kernel, which moved them in the 8th digit,
# and min_value and E_err again from the energy by Green's identity (every
# E within the two releases' summed error estimates, min_value by 1.2e-12),
# and once more when quad2d began to split cells in four (E unchanged,
# min_value by 6e-14; test_pins_moved_by_four_way_splits_agree_within_the_estimates),
# and the sweep's E_err when cells began to split along the axis with the
# larger Gauss-Kronrod error (E unchanged;
# test_pins_moved_by_the_error_split_axis_agree_within_the_estimates)
MINIMIZE_SLAB_BYTES = (
    '{\n'
    '  "argmin": 0.5465939960585007,\n'
    '  "at_boundary": false,\n'
    '  "bracket": [\n'
    '    0.5461691227829066,\n'
    '    0.5468565821837293\n'
    '  ],\n'
    '  "classification": "smooth",\n'
    '  "min_value": 45.07943196633164\n'
    '}\n'
)
README_SWEEP_BYTES = (
    's,E,E_err,eps_scaled,lower,upper\n'
    '0.05,44.0634788916,5.3216273966e-07,44.0634788916,37.6991118431,65.2967771124\n'
    '0.1,44.0628131075,5.03057356369e-07,44.0628131075,37.6991118431,65.2967771124\n'
    '0.15,44.0599289527,4.57043889797e-07,44.0599289527,37.6991118431,65.2967771124\n'
    '0.2,44.0521712624,3.97816861624e-07,44.0521712624,37.6991118431,65.2967771124\n'
    '0.25,44.0358486519,3.30300713912e-07,44.0358486519,37.6991118431,65.2967771124\n'
    '0.3,44.0062885629,2.60166175686e-07,44.0062885629,37.6991118431,65.2967771124\n'
    '0.35,43.9579486587,1.93094705656e-07,43.9579486587,37.6991118431,65.2967771124\n'
    '0.4,43.8846121285,1.33936174353e-07,43.8846121285,37.6991118431,65.2967771124\n'
    '0.45,43.779695623,8.59711527523e-08,43.779695623,37.6991118431,65.2967771124\n'
    '0.5,43.6366950481,5.04216224294e-08,43.6366950481,37.6991118431,65.2967771124\n'
    '0.55,43.449785407,6.73745832347e-07,43.449785407,37.6991118431,65.2967771124\n'
    '0.6,43.2145773514,2.43395216343e-08,43.2145773514,37.6991118431,65.2967771124\n'
    '0.65,42.9290196052,4.67260676471e-08,42.9290196052,37.6991118431,65.2967771124\n'
    '0.7,42.5944323965,1.02649272818e-07,42.5944323965,37.6991118431,65.2967771124\n'
    '0.75,42.216678481,2.48064398745e-07,42.216678481,37.6991118431,65.2967771124\n'
    '0.8,41.8075533295,3.46375928495e-07,41.8075533295,37.6991118431,65.2967771124\n'
    '0.85,41.3866699382,2.19806646218e-08,41.3866699382,37.6991118431,65.2967771124\n'
    '0.9,40.9846481616,1.13515264577e-07,40.9846481616,37.6991118431,65.2967771124\n'
    '0.95,40.6503944314,3.48048058707e-08,40.6503944314,37.6991118431,65.2967771124\n'
)


@pytest.mark.parametrize("argv,expected", [
    (["minimize", "--family", "imag1", "--prism", "20,10,1"], MINIMIZE_SLAB_BYTES),
    (["sweep", "--family", "imag1", "--prism", "1,1,1", "--range", "0.05:0.95", "--steps", "19"],
     README_SWEEP_BYTES),
], ids=["minimize-slab", "readme-sweep"])
def test_family_scan_artifact_bytes_are_pinned(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def _energy_bytes(exact, exact_err, lower, upper):
    return (
        f'{{\n  "exact": {exact},\n  "exact_err": {exact_err},\n  "lower": {lower},\n'
        f'  "ratio": 1.7320508075688772,\n  "scaled": {exact},\n  "upper": {upper}\n}}\n'
    )


# `energy --prism 1,1,1 --tol 1e-7` stdout of the energy by Green's
# identity.  The face-density flux integral before it gave 110.27903886664656
# (exact_err 7.97e-08), 131.42749567860426 (9.52e-08) and 172.26229985697233
# (8.53e-08): each exact within 3e-14 of these.  The last bits of exact_err
# follow every rounding of the Gauss estimates: with those summed by einsum,
# rating in blocks of 1, 5, 7, 9, 11 or 15 cells changed at least one of
# these, and so did splitting cells in four, and the axis of the larger
# Gauss-Kronrod error moved all three.  The third id counts the root
# cells that the face-density energy seeded for that spec; Green's identity
# starts every spec from 6.
ENERGY_BYTES = [
    (
        {"epsilon": 1, "n": -3, "real": [[0.4, 1]], "imag": [[0.7, -1]], "orientation": "anticonformal"},
        _energy_bytes("110.27903886664656", "8.021116681966589e-08",
                      "87.96459430051421", "152.35914659567428"),
    ),
    (
        {"epsilon": -1, "n": 1, "real": [[0.3, 1]], "imag": [[0.6, -1]], "complex": [[0.4, 0.5, 1]]},
        _energy_bytes("131.42749567860423", "5.244893802602846e-08",
                      "113.09733552923255", "195.89033133729552"),
    ),
    (
        {"epsilon": 1, "n": 1, "complex": [[0.35, 0.35, 1], [0.3, 0.4, -1]]},
        _energy_bytes("172.26229985697233", "8.541737206435585e-08",
                      "113.09733552923255", "195.89033133729552"),
    ),
]


@pytest.mark.parametrize("payload,expected", ENERGY_BYTES,
                         ids=["anticonformal-n-3", "degree-9", "19-root-cells"])
def test_energy_artifact_bytes_are_pinned(tmp_path, capsys, payload, expected):
    path = write_spec(tmp_path, payload)
    assert run(["energy", "--prism", "1,1,1", "--spec", path, "--tol", "1e-7"]) == 0
    assert capsys.readouterr().out == expected


# `energy --tol 1e-7` stdout on boxes of three different sides, where the
# cube of ENERGY_BYTES cannot tell h_x from h_y: the CI spec3.json on
# 3 x 2 x 1 (the faces and edges in the potential form; CI checks its exact
# through the installed console script) and the identity on the flat
# 1e4 x 1e4 x 1 (face z in the slope form), whose unwrapped_energy is
# 129.6895408379419.  Recorded before the energy integrand read its faces
# by runs of cells.
BOX_ENERGY_BYTES = [
    ("3,2,1", {"epsilon": 1, "n": 1, "real": [[0.4, 1]], "imag": [[0.7, -1]], "complex": [[0.3, 0.4, 1]]},
     '{\n  "exact": 289.22733661425485,\n  "exact_err": 4.672288733686969e-08,\n  "lower": 113.09733552923255,\n'
     '  "ratio": 3.7416573867739413,\n  "scaled": 159.16793731530444,\n  "upper": 423.1714809074039\n}\n'),
    ("1e4,1e4,1", {"epsilon": 1, "n": 1},
     '{\n  "exact": 129.6895408379496,\n  "exact_err": 9.451567281604234e-08,\n  "lower": 12.566370614359172,\n'
     '  "ratio": 14142.135659086289,\n  "scaled": 0.2794076457155854,\n  "upper": 177715.3179706229\n}\n'),
]


@pytest.mark.parametrize("prism,payload,expected", BOX_ENERGY_BYTES, ids=["spec3-3-2-1", "identity-flat"])
def test_energy_artifact_bytes_are_pinned_on_boxes_of_three_sides(tmp_path, capsys, prism, payload, expected):
    path = write_spec(tmp_path, payload)
    assert run(["energy", "--prism", prism, "--spec", path, "--tol", "1e-7"]) == 0
    assert capsys.readouterr().out == expected


# Every factor structure (n, real count, imag count, complex count) of
# degree |n| + 2(a + b) + 4c <= 9 with |n| in (1, 3), as the benchmark's
# energy workload visits them.
STRUCTURES = [(sign * m, a, b, c) for m in (1, 3) for sign in (1, -1) for c in range(3)
              for a in range(5) for b in range(5) if m + 2 * (a + b) + 4 * c <= 9]


def _structure_spec(rng, n, a, b, c):
    """A spec of one structure, its signs, positions and orientation drawn
    from ``rng``."""
    spec = {"epsilon": rng.choice((-1, 1)), "n": n,
            "real": [[rng.uniform(0.08, 0.92), rng.choice((-1, 1))] for _ in range(a)],
            "imag": [[rng.uniform(0.08, 0.92), rng.choice((-1, 1))] for _ in range(b)],
            "orientation": rng.choice(("conformal", "anticonformal"))}
    spec["complex"] = []
    for _ in range(c):
        m, th = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.5 * math.pi - 0.15)
        spec["complex"].append([m * math.cos(th), m * math.sin(th), rng.choice((-1, 1))])
    return spec


# sha256 of the exit codes and `energy --tol 1e-7` stdout of one seeded spec
# per structure, on a box of three sides and on a long one, in order;
# recorded before the fused face kernel and the leaner rating pass
STRUCTURE_ENERGY_DIGESTS = {
    "3,2,1": "b52566fd320ef0eb87e18de8b719e7523bdf56f85b6d159f1801b83136726087",
    "8,1.5,1": "abd8e615015e602d6bbba1eadadc1718dccde24be5b5475db8c93f132d658489",
}


@pytest.mark.parametrize("prism", STRUCTURE_ENERGY_DIGESTS)
def test_energy_artifact_bytes_are_pinned_for_every_factor_structure(tmp_path, capsys, prism):
    rng = random.Random(30)
    digest = hashlib.sha256()
    assert len(STRUCTURES) == 70
    for structure in STRUCTURES:
        path = write_spec(tmp_path, _structure_spec(rng, *structure))
        code = run(["energy", "--prism", prism, "--spec", path, "--tol", "1e-7"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == STRUCTURE_ENERGY_DIGESTS[prism]


# the pins above as they stood while quad2d bisected every cell: (exact,
# exact_err) per ENERGY_BYTES spec, the slab's min_value, and (E, E_err) of
# each README_SWEEP_BYTES row
_BISECTED_ENERGIES = [(110.27903886664654, 9.471481338119148e-08), (131.42749567860423, 6.029040977573175e-08),
                      (172.26229985697236, 9.339246632923855e-08)]
_BISECTED_MIN_VALUE = 45.07943196633158
_BISECTED_SWEEP = [
    (44.0634788916, 5.32211203164e-07), (44.0628131075, 5.03174143171e-07), (44.0599289527, 4.57300140512e-07),
    (44.0521712624, 3.98332347894e-07), (44.0358486519, 3.31282873169e-07), (44.0062885629, 2.61951993291e-07),
    (43.9579486587, 1.96100590738e-07), (43.8846121285, 1.38081163462e-07), (43.779695623, 8.80001654324e-08),
    (43.6366950481, 2.31748615576e-07), (43.449785407, 6.73745832819e-07), (43.2145773514, 2.44876546152e-07),
    (42.9290196052, 2.79004332304e-07), (42.5944323965, 3.37736298706e-07), (42.216678481, 4.75117263865e-07),
    (41.8075533295, 5.5392311793e-07), (41.3866699382, 2.15274911453e-07), (40.9846481616, 2.74846883586e-07),
    (40.6503944314, 1.58294168662e-07),
]


def test_pins_moved_by_four_way_splits_agree_within_the_estimates():
    for (_, expected), (old, old_err) in zip(ENERGY_BYTES, _BISECTED_ENERGIES):
        new = json.loads(expected)
        assert abs(new["exact"] - old) <= new["exact_err"] + old_err
    rows = [line.split(",") for line in README_SWEEP_BYTES.splitlines()[1:]]
    assert len(rows) == len(_BISECTED_SWEEP)
    for (_, energy, err, *_), (old, old_err) in zip(rows, _BISECTED_SWEEP):
        # both printed to 12 digits, within 1e-10 here
        assert abs(float(energy) - old) <= float(err) + old_err + 1e-10
    # min_value is a scaled energy of the default quad-tol, each side's
    # estimate at most that tol over the slab's cube-root volume of 200 ** (1/3)
    min_value = json.loads(MINIMIZE_SLAB_BYTES)["min_value"]
    assert abs(min_value - _BISECTED_MIN_VALUE) <= 2.0 * Job.quad_tol / 200.0 ** (1.0 / 3.0)


# the pins above as they stood while quad2d split cells across the larger
# total variation of their sampled values: (exact, exact_err) per
# ENERGY_BYTES spec, and E_err of each README_SWEEP_BYTES row (E unchanged
# since _BISECTED_SWEEP, which the test reads it from)
_VARIATION_SPLIT_ENERGIES = [(110.27903886664654, 9.46938905621586e-08), (131.42749567860423, 5.953717174822515e-08),
                             (172.26229985697236, 9.339246632923855e-08)]
_VARIATION_SPLIT_SWEEP_ERRS = [
    5.32162738737e-07, 5.03057356396e-07, 4.57043890234e-07, 3.97816860962e-07, 3.30300713551e-07,
    2.601661757e-07, 1.93094705406e-07, 1.33936174332e-07, 8.5971151656e-08, 5.04216233384e-08,
    6.73745832819e-07, 2.43395217731e-08, 4.6726067543e-08, 1.02649271153e-07, 2.48064398606e-07,
    3.46375926608e-07, 2.19806665647e-08, 1.13515266353e-07, 3.48048079246e-08,
]


def test_pins_moved_by_the_error_split_axis_agree_within_the_estimates():
    for (_, expected), (old, old_err) in zip(ENERGY_BYTES, _VARIATION_SPLIT_ENERGIES):
        new = json.loads(expected)
        assert abs(new["exact"] - old) <= new["exact_err"] + old_err
    rows = [line.split(",") for line in README_SWEEP_BYTES.splitlines()[1:]]
    assert len(rows) == len(_VARIATION_SPLIT_SWEEP_ERRS)
    for (_, energy, err, *_), old_err, (old, _) in zip(rows, _VARIATION_SPLIT_SWEEP_ERRS, _BISECTED_SWEEP):
        # both printed to 12 digits, within 1e-10 here
        assert abs(float(energy) - old) <= float(err) + old_err + 1e-10


def test_minimize_counts_failed_points_as_inf_and_exits_2(capsys):
    # at quad-tol 1e-14 most scan points reach the round-off floor first
    code = run(["minimize", "--family", "imag1", "--prism", "1,1,1", "--quad-tol", "1e-14"])
    assert code == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert sorted(payload) == ["argmin", "at_boundary", "bracket", "classification", "min_value"]
    assert math.isfinite(payload["min_value"])
    assert payload["bracket"][0] <= payload["argmin"] <= payload["bracket"][1]
    failed = [ln for ln in captured.err.splitlines() if "minimize point s=" in ln]
    assert len(failed) >= 90
    assert all(ln.startswith("nemprism: accuracy failure:") for ln in failed)
    assert "s=0.001:" in failed[0]


def test_minimize_exits_2_with_no_artifact_when_every_grid_point_fails(capsys):
    code = run(["minimize", "--family", "imag1", "--prism", "1,1,1", "--quad-tol", "1e-15"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "all 101 scan points failed" in captured.err
    assert "round-off floor" in captured.err


@pytest.mark.parametrize("argv", [
    ["bounds", "--prism", "1e200,1,1", "--omega0", "1"],
    ["bounds", "--prism", "1e-200,1e-200,1e-200", "--omega0", "1"],
    ["energy", "--prism", "1e200,1,1", "--spec", "{spec}"],
    ["sweep", "--family", "imag1", "--prism", "1,1,1e-160"],
], ids=["bounds-huge", "bounds-tiny", "energy-huge", "sweep-tiny"])
def test_extreme_boxes_exit_1_naming_prism(tmp_path, capsys, argv):
    spec = write_spec(tmp_path)
    assert run([spec if arg == "{spec}" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nemprism: error: --prism:")


def test_energy_outside_its_bounds_exits_2(tmp_path, capsys, monkeypatch):
    # a quadrature result below the lower bound 4 pi of the identity map
    monkeypatch.setattr(nemprism.energy, "conformal_energy", lambda *args: QuadratureResult(1.0, 1e-6, 225))
    spec = write_spec(tmp_path, {"epsilon": 1, "n": 1})
    assert run(["energy", "--prism", "1,1,1", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the bounds" in captured.err


@pytest.mark.parametrize("payload,expected", [
    ({"epsilon": 1, "n": 1, "imag": [[1.0 - 1e-8, 1]]}, 40.480989673605755),
    ({"epsilon": 1, "n": 1, "imag": [[0.99999999, 1]]}, 297.6529511474164),
], ids=["imag1-cube", "imag1-slab"])
def test_energy_of_a_coalescing_factor_exits_0_with_its_value(tmp_path, capsys, payload, expected):
    # the face-density energy refused the first (outside its bounds) and gave
    # 46.33 for the second; the references are tol 1e-10 runs
    prism = "1,1,1" if expected < 100 else "20,10,1"
    assert run(["energy", "--prism", prism, "--spec", write_spec(tmp_path, payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["exact"] - expected) <= report["exact_err"] + 1e-9


# (job fields, the field the message must name)
BAD_JOB_FIELDS = [
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": "1"}, "'omega0'"),
    ({"command": "minimize", "family": "imag1", "prism": [1, 1, 1], "quad_tol": "1e-5"}, "'quad_tol'"),
    ({"command": "energy", "prism": [1, 1, 1], "spec": SPEC, "tol": "1e-6"}, "'tol'"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 1, "K": True}, "'K'"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 1, "K": None}, "'K'"),
    ({"command": "bounds", "prism": [1, "1", 1], "omega0": 1}, "'prism'"),
    ({"command": "bounds", "prism": "1,1,1", "omega0": 1}, "'prism'"),
    ({"command": "sweep", "family": "imag1", "prism": [1, 1, 1], "range": [0.1, "0.9"]}, "'range'"),
    ({"command": "sweep", "family": "imag1", "prism": [1, 1, 1], "steps": 2.5}, "'steps'"),
    ({"command": "field", "prism": [1, 1, 1], "spec": SPEC, "grid": "4"}, "'grid'"),
    ({"command": "sweep", "family": 1, "prism": [1, 1, 1]}, "'family'"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 1, "lp_constraints": 2}, "'lp_constraints'"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 1, "out": 5}, "'out'"),
    ({"command": ["bounds"]}, "'command'"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 10 ** 400}, "'omega0'"),
    ({"command": "bounds", "prism": [1, 10 ** 400, 1], "omega0": 1}, "'prism'"),
]


@pytest.mark.parametrize("job,name", BAD_JOB_FIELDS, ids=[f"{i:02d}-{name.strip(chr(39))}" for i, (_, name) in enumerate(BAD_JOB_FIELDS)])
def test_job_fields_of_the_wrong_type_exit_1_naming_the_field(tmp_path, capsys, job, name):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run(["--job", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nemprism: error:")
    assert name in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("payload,name", [
    ({"epsilon": 1, "n": 3.7, "imag": [[0.5, 1]]}, "n"),
    ({"epsilon": True, "n": 1}, "epsilon"),
    ({"epsilon": 1, "n": 1, "imag": [[0.5, -1.5]]}, "imag"),
    ({"epsilon": 1, "n": 1, "imag": [["0.5", 1]]}, "imag"),
], ids=["n-float", "epsilon-bool", "sign-float", "position-string"])
def test_spec_values_of_the_wrong_json_type_exit_1_naming_the_field(tmp_path, capsys, payload, name):
    # a coercing reader ran the first as n = 3 and the third with sign -1, exit 0
    spec = write_spec(tmp_path, payload)
    assert run(["energy", "--prism", "1,1,1", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"nemprism: error: spec field {name!r}")
    assert "Traceback" not in captured.err


# (job, the field its command does not take, set to a value other than its default)
UNTAKEN_JOB_FIELDS = [
    ({"command": "invariants", "spec": SPEC, "K": -1}, "K"),
    ({"command": "energy", "prism": [1, 1, 1], "spec": SPEC, "quad_tol": 1e-12}, "quad_tol"),
    ({"command": "bounds", "prism": [1, 1, 1], "omega0": 1.0, "tol": 1e-6}, "tol"),
    ({"command": "field", "prism": [1, 1, 1], "spec": SPEC, "K": 2.0}, "K"),
    ({"command": "sweep", "family": "imag1", "prism": [1, 1, 1], "grid": 3}, "grid"),
    ({"command": "minimize", "family": "imag1", "prism": [1, 1, 1], "omega0": 1.0}, "omega0"),
]


@pytest.mark.parametrize("job,name", UNTAKEN_JOB_FIELDS, ids=[job["command"] for job, _ in UNTAKEN_JOB_FIELDS])
def test_job_field_the_command_does_not_take_exits_1_naming_it(tmp_path, capsys, job, name):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run(["--job", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nemprism: error:")
    assert f"not {name!r}" in captured.err
    assert "Traceback" not in captured.err


def test_each_subcommand_has_the_flags_of_its_table_entry():
    (subcommands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subcommands.choices) == list(_COMMANDS)
    for name, (_, _, required, optional, tol, tol_help) in _COMMANDS.items():
        actions = [a for a in subcommands.choices[name]._actions if a.dest != "help"]
        assert sorted(a.dest for a in actions) == sorted(("out",) + required + optional)
        assert sorted(a.dest for a in actions if a.required) == sorted(required)
        assert ("tol" in optional) == (tol is not None) == (tol_help is not None)


MINIMAL_JOBS = [
    Job(command="invariants", spec=SPEC),
    Job(command="bounds", prism=(1.0, 1.0, 1.0), omega0=1.0),
    Job(command="energy", prism=(1.0, 1.0, 1.0), spec=SPEC),
    Job(command="sweep", prism=(1.0, 1.0, 1.0), family="imag1"),
    Job(command="minimize", prism=(1.0, 1.0, 1.0), family="imag1"),
    Job(command="field", prism=(1.0, 1.0, 1.0), spec=SPEC),
]


@pytest.mark.parametrize("job", MINIMAL_JOBS, ids=[job.command for job in MINIMAL_JOBS])
def test_minimal_job_round_trips_and_keeps_tol_only_where_read(job):
    assert Job.from_dict(job.to_dict()) == job
    assert (job.tol is None) == (job.command in ("bounds", "field"))
