import ast
import math
import random
import tracemalloc

import numpy as np
import pytest

from nemprism import (
    AccuracyError,
    DomainError,
    InfeasibleError,
    MinimizeResult,
    UnboundedError,
    appell_f2_restricted,
    lp_solve,
    minimize_1d,
    quad2d,
    quad2d_many,
)
import nemprism.numerics
from nemprism.numerics import _breakpoints, _rate_cells

# frozen reference: 200-node tensor Gauss-Legendre of 1/(1 + a^2 + b^2)
F2_1_1 = 0.6395103518703111


def test_quad2d_polynomial_exact():
    res = quad2d(lambda x, y: x**6 * y**4, (0.0, 2.0, -1.0, 1.0), tol=1e-10)
    assert res.value == pytest.approx(256.0 / 35.0, rel=1e-13)
    # a single Kronrod cell integrates this degree exactly
    assert res.evaluations == 225


def test_quad2d_gaussian():
    res = quad2d(
        lambda x, y: np.exp(-x * x - y * y), (0.0, 3.0, 0.0, 3.0), tol=1e-11
    )
    exact = (0.5 * math.sqrt(math.pi) * math.erf(3.0)) ** 2
    assert res.value == pytest.approx(exact, abs=1e-10)
    assert res.error_estimate <= 1e-11


def test_quad2d_separable_oscillation():
    res = quad2d(
        lambda x, y: np.sin(7.0 * x) * np.cos(3.0 * y),
        (0.0, 2.0, 0.0, 1.0),
        tol=1e-12,
    )
    exact = (1.0 - math.cos(14.0)) / 7.0 * math.sin(3.0) / 3.0
    assert res.value == pytest.approx(exact, abs=1e-11)


def test_quad2d_initial_splits_catch_narrow_ridge():
    """A ridge far narrower than the root cell must not be silently missed.

    The center sits midway between two Kronrod abscissae of the unsplit
    cell, where no sample would land; seeding a cell boundary there puts
    near-edge nodes onto the ridge flank so the error estimate fires.
    """
    nodes = np.array([0.20778495500790848, 0.40584515137739717])
    c = float((nodes.mean() + 1.0) / 2.0)  # map from [-1,1] to [0,1]
    w = 1e-5
    f = lambda x, y: w * w / ((x - c) ** 2 + w * w) + 0.0 * y
    exact = w * (math.atan((1.0 - c) / w) + math.atan(c / w))
    res = quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-9, initial_splits=([c], []))
    assert res.value == pytest.approx(exact, abs=1e-8)


def test_breakpoints_keep_a_ladder_from_0_on_any_side():
    # cuts at 32 * 4^k, a needle's 64 short sides and up at half side 0.5,
    # lay within 1e-12 of the side's length of its end u = 0 on 5e49 and
    # were dropped
    ladder = [32.0 * 4.0 ** k for k in range(80) if 32.0 * 4.0 ** k < 5e49]
    assert _breakpoints(0.0, 5e49, ladder) == [0.0] + ladder + [5e49]
    mirrored = [-c for c in reversed(ladder)]
    assert _breakpoints(-5e49, 0.0, mirrored) == [-5e49] + mirrored + [0.0]


def test_breakpoints_merge_near_duplicates_and_drop_the_ends():
    # two factors' angle ladders put cuts 8e-15 apart near 4e-7 on [0, pi/2]
    c = 4e-7 - 8e-15
    assert _breakpoints(0.0, 0.5 * math.pi, [4e-7, c, 0.1]) == [0.0, c, 0.1, 0.5 * math.pi]
    assert _breakpoints(0.0, 1.0, [-1.0, 0.0, 0.5, 1.0, 2.0]) == [0.0, 0.5, 1.0]
    assert _breakpoints(-2.0, 0.0, [-3.0, -2.0, -1.0, 0.0, 1.0]) == [-2.0, -1.0, 0.0]
    assert _breakpoints(1.0, 1.0, [1.0]) == [1.0, 1.0]  # a segment given y cuts keeps its one cell
    # a cut within reach of hi merges into hi
    assert _breakpoints(0.0, 1.0, [0.5, 1.0 - 1e-13]) == [0.0, 0.5, 1.0]


def test_quad2d_budget_failure_carries_best_estimate():
    f = lambda x, y: np.sin(300.0 * x) * np.sin(300.0 * y)
    with pytest.raises(AccuracyError) as exc:
        quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-15, max_evals=5000)
    err = exc.value
    assert math.isfinite(err.value)
    assert err.error_estimate > 0.0
    assert 0 < err.evaluations <= 5000 + 450


def _counting(f):
    """f plus the point count of each call made to it."""
    calls = []

    def counted(x, y):
        calls.append(x.size)
        return f(x, y)

    return counted, calls


def test_quad2d_several_rectangles_match_the_sum_of_single_calls():
    f = lambda x, y: np.exp(-3.0 * (x * x + y * y)) * np.cos(4.0 * x * y)
    rects = [(0.0, 1.0, 0.0, 1.0), (-2.0, 0.0, 0.0, 0.5), (-1.0, 0.0, -3.0, 0.0)]
    splits = [([0.3], [0.7]), None, ([], [-1.5])]
    whole = quad2d(f, rects, tol=1e-10, initial_splits=splits)
    parts = [quad2d(f, r, tol=1e-10, initial_splits=s) for r, s in zip(rects, splits)]
    assert whole.error_estimate <= 1e-10
    assert abs(whole.value - sum(p.value for p in parts)) <= (
        whole.error_estimate + sum(p.error_estimate for p in parts)
    )
    with pytest.raises(DomainError):
        quad2d(f, rects, initial_splits=splits[:2])


def test_quad2d_evaluations_never_exceed_the_budget():
    f = lambda x, y: np.sin(300.0 * x) * np.sin(300.0 * y)
    for max_evals in (225, 5000, 7425, 20000):
        counted, calls = _counting(f)
        with pytest.raises(AccuracyError) as exc:
            quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-15, max_evals=max_evals)
        assert exc.value.evaluations == sum(calls) <= max_evals
        assert max(calls) <= 32 * 225
    res = quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-6, max_evals=1_000_000)
    assert res.evaluations <= 1_000_000


def test_quad2d_root_cells_over_budget_refuse_before_evaluating():
    cuts = list(np.linspace(0.05, 0.95, 19))  # 20 x 20 root cells
    counted, calls = _counting(lambda x, y: x + y)
    with pytest.raises(AccuracyError, match="400 root cells") as exc:
        quad2d(counted, (0.0, 1.0, 0.0, 1.0), max_evals=400 * 225 - 1,
               initial_splits=(cuts, cuts))
    assert calls == []
    assert exc.value.evaluations == 0
    assert math.isnan(exc.value.value)
    # at exactly the budget the roots are rated, 16 cells per call
    res = quad2d(counted, (0.0, 1.0, 0.0, 1.0), max_evals=400 * 225,
                 initial_splits=(cuts, cuts))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.evaluations == sum(calls) == 400 * 225
    assert len(calls) == 25 and max(calls) == 16 * 225
    # 500 x 500 cuts are refused from their counts, before any cell row is
    # built: the 251,001 rows, at about 100 bytes each, would take 24 MB
    cuts = list(np.linspace(0.001, 0.999, 500))
    calls.clear()
    tracemalloc.start()
    try:
        with pytest.raises(AccuracyError, match="251001 root cells need 56475225 evaluations") as exc:
            quad2d(counted, (0.0, 1.0, 0.0, 1.0), max_evals=1_000_000, initial_splits=(cuts, cuts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and exc.value.evaluations == 0
    assert peak < 5_000_000


def test_quad2d_round_of_16_bisections_rates_its_children_in_two_calls():
    cuts = [0.25, 0.5, 0.75]  # 4 x 4 root cells, all far above tol
    counted, calls = _counting(lambda x, y: np.sin(40.0 * x) * np.sin(40.0 * y))
    with pytest.raises(AccuracyError, match="budget") as exc:
        quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-12, max_evals=(16 + 32) * 225,
               initial_splits=(cuts, cuts))
    # the 16 roots, then one round: 16 bisections, 32 children in two calls
    assert calls == [16 * 225] * 3
    assert exc.value.evaluations == (16 + 32) * 225


def test_quad2d_splits_the_lone_cell_of_a_round_in_four():
    # every round refines one cell, and rates its four quarters in one call
    a = 0.05
    counted, calls = _counting(lambda x, y: 1.0 / (a + x + y))
    res = quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-10)
    assert calls == [225, 900, 900, 900, 900]
    assert res.evaluations == 3825
    exact = (a + 2.0) * math.log(a + 2.0) - 2.0 * (a + 1.0) * math.log(a + 1.0) + a * math.log(a)
    assert abs(res.value - exact) <= res.error_estimate <= 1e-10


def test_quad2d_bisects_when_four_children_would_pass_the_budget(monkeypatch):
    # the root cell leaves room for two children, not four
    counted, calls = _counting(lambda x, y: np.sin(300.0 * x) * np.sin(300.0 * y))
    with pytest.raises(AccuracyError, match="budget of 675 evaluations exhausted") as exc:
        quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-9, max_evals=675)
    assert calls == [225, 450] and exc.value.evaluations == 675
    # near-tie cells far above tol split in four while they fit: every
    # budget holds, the last round stops within one bisection of it, and no
    # call rates more than 16 cells
    cuts = [0.25, 0.5, 0.75]
    for max_evals in (16 * 225 + 450, 16 * 225 + 1000, 40 * 225, 64 * 225 + 300, 100 * 225 + 4321):
        counted, calls = _counting(lambda x, y: np.sin(40.0 * x) * np.sin(40.0 * y))
        with pytest.raises(AccuracyError, match="budget") as exc:
            quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-12, max_evals=max_evals, initial_splits=(cuts, cuts))
        assert exc.value.evaluations == sum(calls) <= max_evals
        assert max_evals - exc.value.evaluations < 2 * 225
        assert max(calls) <= 16 * 225
    # nor the round's limit of 32 children: one bisection along x, then
    # seven of the near-tie cells in four, leave room for two children only
    rounds = []
    rate = nemprism.numerics._rate_cells
    monkeypatch.setattr(nemprism.numerics, "_rate_cells",
                        lambda f, rows, tags: rounds.append(len(rows)) or rate(f, rows, tags))
    f = lambda x, y: np.where(x < 1.5, np.sin(40.0 * x) * np.sin(40.0 * y), 5.0 * np.sin(80.0 * x))
    with pytest.raises(AccuracyError, match="budget"):
        quad2d(f, [(0.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)], tol=1e-12, max_evals=30_000,
               initial_splits=[(cuts, cuts), None])
    assert rounds == [17, 32, 32, 32, 20]


def test_quad2d_bisects_a_cell_one_float_spacing_wide_instead_of_splitting_it_in_four():
    # the lone root cell splits in four unless one side is one float
    # spacing wide: then its other side is bisected, down to the refusal
    f = lambda x, y: 1.0 / (np.abs(y - 0.5) + 1e-300)
    counted, calls = _counting(f)
    with pytest.raises(AccuracyError, match="budget"):
        quad2d(counted, (0.5, 0.75, 0.0, 1.0), tol=1e-25, max_evals=20_000)
    assert calls[:2] == [225, 900]
    narrow = math.nextafter(0.5, 1.0)
    counted, calls = _counting(f)
    with pytest.raises(AccuracyError, match="one float spacing wide") as info:
        quad2d(counted, (0.5, narrow, 0.0, 1.0), tol=1e-25, max_evals=200_000)
    assert calls[:2] == [225, 450]
    x0, x1, y0, y1 = ast.literal_eval(str(info.value).split("cell ")[1].split(" cannot")[0])
    assert (x0, x1) == (0.5, narrow) and y1 == math.nextafter(y0, math.inf) and 0.5 in (y0, y1)


def test_cell_ratings_do_not_depend_on_the_cells_sharing_a_call():
    rng = np.random.default_rng(3)
    x0, y0 = rng.uniform(0.0, 1.0, (2, 17))
    rows = np.stack([x0, x0 + 0.3, y0, y0 + 0.2], axis=1).tolist()
    f = lambda x, y, k: np.exp(np.sin(7.0 * x) * np.cos(5.0 * y)) / (0.1 + x * y)
    together = _rate_cells(f, rows, [0] * len(rows))
    for i, row in enumerate(rows):
        assert together[i] == _rate_cells(f, [row], [0])[0]


def test_cell_ratings_match_the_tensor_rules():
    # value K x K, estimate |K x K - G x G| and the axis of the larger of
    # the errors |K x K - G(x) x K(y)| and |K x K - K(x) x G(y)|, each sum
    # taken term by term with math.fsum, against the one einsum of a block
    xk, wk = nemprism.numerics._XK, nemprism.numerics._WK
    wg = np.zeros(15)
    wg[1::2] = nemprism.numerics._WG
    f = lambda x, y: np.exp(np.sin(7.0 * x) * np.cos(5.0 * y)) / (0.1 + x * y)
    cells = np.random.default_rng(11).uniform(0.3, 1.0, (16, 4))
    rated = _rate_cells(lambda x, y, k: f(x, y), [[x0, x0 + wx, y0, y0 + wy] for x0, wx, y0, wy in cells], [0] * 16)
    codes = []
    for (x0, wx, y0, wy), (value, err, code) in zip(cells, rated):
        hx, hy = 0.5 * wx, 0.5 * wy
        vals = f(x0 + hx + hx * xk[:, None], y0 + hy + hy * xk[None, :])
        kk, gg, gk, kg = (hx * hy * math.fsum((vals * np.outer(a, b)).ravel())
                          for a, b in ((wk, wk), (wg, wg), (wg, wk), (wk, wg)))
        assert value == pytest.approx(kk, rel=1e-14)
        assert err == pytest.approx(abs(kk - gg), abs=1e-14 * abs(kk))
        ex, ey = abs(kk - gk), abs(kk - kg)
        # both errors above round-off, and their ratio clear of the tie at 1.5
        assert min(ex, ey) > 1e-12 * abs(kk) and abs(abs(math.log(ex / ey)) - math.log(1.5)) > 0.01
        assert code == (0 if ex > 1.5 * ey else 1 if ey > 1.5 * ex else nemprism.numerics._TIE + (hy > hx))
        codes.append(code)
    assert {0, 1} < set(codes)  # both axes, and a near-tie


def _reference_rate_cells(f, rows, tags):
    """The rating pass as it stood before the leaner one: tags, nodes and
    points built per block, each segment's sums by ``cumsum``."""
    from nemprism.numerics import _BATCH_CELLS, _CELL_EVALS, _SEGMENT_EVALS, _TIE, _W, _WG, _WK, _XK

    seg = [row[2] == row[3] for row in rows]
    order = sorted(range(len(rows)), key=seg.__getitem__)
    m, r = len(rows), seg.count(False)
    shapes = [(0.5 * (x0 + x1), 0.5 * (x1 - x0), 0.5 * (y0 + y1), 0.5 * (y1 - y0))
              for x0, x1, y0, y1 in map(rows.__getitem__, order)]
    total = _CELL_EVALS * r + _SEGMENT_EVALS * (m - r)
    if len(set(tags)) == 1:
        k = np.full(total, tags[0])
    else:
        k = np.array(tags)[order].repeat([_CELL_EVALS] * r + [_SEGMENT_EVALS] * (m - r))
    rated = [None] * m
    starts = list(range(0, r, _BATCH_CELLS)) or [0]
    first = 0
    for a, b in zip(starts, starts[1:] + [m]):
        n = min(b, r) - a
        last = first + _CELL_EVALS * n + _SEGMENT_EVALS * (b - a - n)
        block = np.array(shapes[a:b])
        nodes = block[:, 1::2, None] * _XK
        nodes += block[:, 0::2, None]
        points = np.empty((2, last - first))
        grid = points[:, :_CELL_EVALS * n].reshape(2, n, 15, 15)
        grid[0] = nodes[:n, 0, :, None]
        grid[1] = nodes[:n, 1, None, :]
        if n < b - a:
            points[:, _CELL_EVALS * n:] = nodes[n:].transpose(1, 0, 2).reshape(2, -1)
        values = np.asarray(f(points[0], points[1], k[first:last]), dtype=float)
        first = last
        vals = values[:_CELL_EVALS * n].reshape(n, _CELL_EVALS)
        kron, gauss, gauss_x, gauss_y = np.einsum("mp,qp->qm", vals, _W).tolist()
        axes = []
        for s, gx, gy, (_, lx, _, ly) in zip(kron, gauss_x, gauss_y, shapes[a:a + n]):
            ex, ey = abs(s - gx), abs(s - gy)
            axes.append(0 if ex > 1.5 * ey else 1 if ey > 1.5 * ex else _TIE + (ly > lx))
        jacs = [lx * ly for _, lx, _, ly in shapes[a:a + n]]
        if n < b - a:
            line = values[_CELL_EVALS * n:].reshape(b - a - n, 15)
            kron += (line * _WK).cumsum(axis=1)[:, -1].tolist()
            gauss += (line[:, 1::2] * _WG).cumsum(axis=1)[:, -1].tolist()
            axes += [0] * (b - a - n)
            jacs += [lx for _, lx, _, _ in shapes[a + n:b]]
        for i, j, s, g, code in zip(order[a:b], jacs, kron, gauss, axes):
            rated[i] = (j * s, abs(j * s - j * g), code)
    return rated


def test_cell_ratings_match_the_reference_rating_bit_for_bit():
    # seeded rounds of 1-16 rectangles (and, past one block, up to 40) with
    # 0-3 segments, rows and segments interleaved, of one problem (tag 0 or
    # not) and of several: every rating and every integrand call (x, y, k)
    rng = random.Random(30)

    def integrand(calls):
        def f(x, y, k):
            calls.append((x.tobytes(), y.tobytes(), k.tobytes(), k.dtype))
            return np.exp(np.sin(7.0 * x) * np.cos(5.0 * y + k)) / (0.1 + x * x + y * y)
        return f

    for case in range(400):
        rects = rng.randint(0, 16) if case < 360 else rng.randint(17, 40)
        segs = rng.randint(0 if rects else 1, 3)
        rows = []
        for _ in range(rects):
            x0, y0 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            rows.append([x0, x0 + rng.uniform(1e-3, 1.0), y0, y0 + rng.uniform(1e-3, 1.0)])
        for _ in range(segs):
            x0, y = rng.uniform(-2.0, 2.0), rng.uniform(-9.0, -3.0)
            rows.insert(rng.randint(0, len(rows)), [x0, x0 + rng.uniform(1e-3, 1.0), y, y])
        problems = rng.choice((1, 1, 3))
        tags = [rng.randrange(problems) if problems > 1 else case % 2 for _ in rows]
        got_calls, want_calls = [], []
        got = _rate_cells(integrand(got_calls), rows, tags)
        want = _reference_rate_cells(integrand(want_calls), rows, tags)
        assert got == want, (case, rows, tags)
        assert got_calls == want_calls, (case, rows, tags)


def test_quad2d_splits_across_a_feature_the_rules_do_not_resolve():
    # a slope along y, which both rules integrate exactly, and a narrow
    # Lorentzian across x: split across the larger total variation, the
    # cells were halved along y for ever, and the 1,000,000-evaluation
    # budget ran out with an estimate of 1.5e-9
    f = lambda x, y: 50.0 * y + 1.0 / (1.0 + ((x - 0.3) / 0.02) ** 2)
    ((_, _, code),) = _rate_cells(lambda x, y, k: f(x, y), [[0.0, 1.0, 0.0, 1.0]], [0])
    assert code & 1 == 0
    res = quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-9)
    assert abs(res.value - (25.0 + 0.02 * (math.atan(35.0) + math.atan(15.0)))) <= res.error_estimate
    assert res.evaluations <= 20_000


def test_quad2d_repeat_calls_are_bit_identical():
    f = lambda x, y: 1.0 / (1e-3 + (x - 0.31) ** 2 + (y - 0.77) ** 2)
    runs = [quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-8) for _ in range(2)]
    a, b = ((r.value, r.error_estimate, r.evaluations) for r in runs)
    assert a == b


_GAUSS = lambda x, y: np.exp(-x * x - y * y)
_GAUSS_EXACT = (0.5 * math.sqrt(math.pi) * math.erf(3.0)) ** 2


def test_quad2d_refuses_a_tolerance_below_the_round_off_floor_early():
    refusals = []
    for _ in range(2):
        with pytest.raises(AccuracyError, match="below the round-off floor") as exc:
            quad2d(_GAUSS, (0.0, 3.0, 0.0, 3.0), tol=1e-16, max_evals=1_000_000)
        refusals.append(exc.value)
    err = refusals[0]
    assert 0 < err.evaluations <= 50_000
    assert err.value == pytest.approx(_GAUSS_EXACT, rel=1e-12)
    assert err.error_estimate > 1e-16
    a, b = ((e.value, e.error_estimate, e.evaluations) for e in refusals)
    assert a == b


def test_quad2d_tolerance_above_the_round_off_floor_converges():
    tol = 1e3 * np.finfo(float).eps * _GAUSS_EXACT
    res = quad2d(_GAUSS, (0.0, 3.0, 0.0, 3.0), tol=tol, max_evals=1_000_000)
    assert res.error_estimate <= tol
    assert res.value == pytest.approx(_GAUSS_EXACT, rel=1e-12)


def test_quad2d_unresolved_integrand_below_the_floor_ends_on_the_budget():
    # tol lies below the root cells' floor (about 3.6e-16), so the floor is
    # compared on every round; the error estimate stays far above it.
    f = lambda x, y: np.sin(300.0 * x) * np.sin(300.0 * y)
    with pytest.raises(AccuracyError, match="budget of 5000 evaluations exhausted"):
        quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-18, max_evals=5000)


def test_quad2d_floor_follows_cells_whose_values_cancel_at_the_root():
    # The root cell of sin(4 pi x) e^y sums to about 1e-17, so its floor is
    # near 1e-31; the halves carry |values| near 0.5 and lift the floor to
    # about 1e-14.  Against the root floor alone tol=1e-17 would look
    # reachable and spend the whole budget.
    f = lambda x, y: np.sin(4.0 * np.pi * x) * np.exp(y)
    with pytest.raises(AccuracyError, match="below the round-off floor") as exc:
        quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-17, max_evals=1_000_000)
    assert 0 < exc.value.evaluations <= 10_000
    assert abs(exc.value.value) <= 1e-15


def test_appell_f2_restricted_anchors():
    assert appell_f2_restricted(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert appell_f2_restricted(1.0, 1.0) == pytest.approx(F2_1_1, abs=1e-10)
    # symmetric in (p, q)
    assert appell_f2_restricted(2.0, 5.0) == pytest.approx(
        appell_f2_restricted(5.0, 2.0), abs=1e-10
    )


def test_appell_f2_restricted_against_1d_reduction():
    # integrate out b analytically, then Gauss-Legendre over a
    nodes, weights = np.polynomial.legendre.leggauss(200)
    a = 0.5 * (nodes + 1.0)
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = float(rng.uniform(0.05, 30.0))
        q = float(rng.uniform(0.05, 30.0))
        c = 1.0 + p * a * a
        inner = np.arctan(np.sqrt(q / c)) / np.sqrt(q * c)
        ref = float(np.sum(weights * inner) * 0.5)
        assert appell_f2_restricted(p, q, tol=1e-12) == pytest.approx(
            ref, abs=1e-9
        )


def test_appell_f2_restricted_on_a_needle():
    # F2(1, q) -> (pi/2) asinh(1) / sqrt(q) as q grows: the spike of width
    # 1/sqrt(q) at b = 0 that a 2-D rule missed (7.0e-30 at q = 1e32)
    for q in (1e8, 1e20, 1e32):
        expected = 0.5 * math.pi * math.asinh(1.0) / math.sqrt(q)
        # the next term is -1/q, a relative 0.72 / sqrt(q)
        assert appell_f2_restricted(1.0, q) == pytest.approx(expected, rel=max(1.0 / math.sqrt(q), 1e-9))
        assert appell_f2_restricted(q, 1.0) == appell_f2_restricted(1.0, q)


def test_minimize_1d_quadratic():
    res = minimize_1d(lambda x: (x - 0.3) ** 2, (0.0, 1.0), tol=1e-10)
    assert res.argmin == pytest.approx(0.3, abs=1e-8)
    assert res.min_value == pytest.approx(0.0, abs=1e-15)
    assert not res.at_boundary
    assert res.bracket[0] <= res.argmin <= res.bracket[1]


def test_minimize_result_dict_round_trip():
    res = minimize_1d(lambda x: -x, (0.0, 1.0), tol=1e-10)
    data = res.to_dict()
    assert data == {"argmin": 1.0, "min_value": -1.0, "at_boundary": True,
                    "bracket": list(res.bracket)}
    assert MinimizeResult.from_dict(data) == res
    with pytest.raises(ValueError, match="'at_boundary'"):
        MinimizeResult.from_dict(dict(data, at_boundary="false"))


def test_minimize_1d_monotone_hits_boundary():
    res = minimize_1d(lambda x: x, (0.0, 1.0), tol=1e-10)
    assert res.argmin == 0.0
    assert res.at_boundary
    res = minimize_1d(lambda x: -x, (0.0, 1.0), tol=1e-10)
    assert res.argmin == 1.0
    assert res.at_boundary


def test_minimize_1d_never_worse_than_coarse_grid():
    # narrow deep dip on a grid point plus a broad shallow one elsewhere
    def f(x):
        return -2.0 * np.exp(-(((x - 0.37) / 0.002) ** 2)) - np.exp(
            -(((x - 0.8) / 0.2) ** 2)
        )

    res = minimize_1d(f, (0.0, 1.0), tol=1e-8)
    grid_best = min(f(x) for x in np.linspace(0.0, 1.0, 101))
    assert res.min_value <= grid_best + 1e-12
    assert res.argmin == pytest.approx(0.37, abs=1e-6)


def test_lp_solve_simple_difference():
    x, val = lp_solve([1.0, -1.0], [(0, 1, 2.0)])
    assert val == 2.0
    assert x == [2.0, 0.0]


def test_lp_solve_chain_lexicographic():
    x, val = lp_solve([1.0, 0.0, -1.0], [(0, 1, 1.0), (1, 2, 1.0)])
    assert val == 2.0
    # every optimum is (t+2, t+1, t); the solver returns the t = 0 vertex
    assert x == [2.0, 1.0, 0.0]


def test_lp_solve_infeasible_and_unbounded():
    with pytest.raises(InfeasibleError):
        lp_solve([1.0, -1.0], [(0, 1, -1.0)])
    with pytest.raises(UnboundedError):
        lp_solve([1.0, 1.0], [(0, 1, 1.0)])


def test_lp_solve_zero_objective_picks_origin():
    x, val = lp_solve([0.0, 0.0], [(0, 1, 3.0)])
    assert val == 0.0
    assert x == [0.0, 0.0]


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_quad2d_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    calls = []

    def f(x, y):
        calls.append(x.size)
        return x * y

    with pytest.raises(DomainError, match="positive and finite"):
        quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=tol)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_minimize_1d_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    calls = []

    def f(x):
        calls.append(x)
        return x

    with pytest.raises(DomainError, match="positive and finite"):
        minimize_1d(f, (0.0, 1.0), tol=tol)
    assert calls == []


def _lp_instance(rng):
    """Up to 7 variables, split into two blocks that share no constraint.

    Bounds are multiples of 1/2 (0 included) and pairs may repeat.  Most
    instances give each block a cost sum <= 0, so that the LP can be bounded.
    Only rng.random() is used: its sequence is fixed for a given seed.
    """
    def pick(k):
        return int(rng.random() * k)

    n = 1 + pick(7)
    cut = pick(n)
    costs = [(pick(9) - 4) / (1 + pick(2)) for _ in range(n)]
    if rng.random() < 0.7:
        for lo, hi in ((0, cut), (cut, n)):
            if hi > lo:
                costs[hi - 1] -= sum(costs[lo:hi]) + pick(2) / 2
    constraints = []
    for _ in range(pick(3 * n)):
        a, b = pick(n), pick(n)
        if a != b and (a < cut) == (b < cut):
            constraints.append((a, b, pick(7) / 2))
    return costs, constraints


# (x, objective) or the exception, as the dense lexicographic simplex
# returned them for the instances of random.Random(13)
LP_FROZEN = [
    ([0.0, 0.0], 0.0),
    ([0.0, 0.5, 0.0, 0.0], 0.75),
    ([0.0, 0.0, 0.0, 2.5], 1.25),
    ([0.0, 1.0, 0.0], 0.5),
    ([1.0, 2.0, 1.5, 0.5, 0.0], 5.5),
    UnboundedError,
    ([4.0, 0.0, 4.0, 2.5, 1.5, 4.0, 0.0], 14.0),
    ([0.0, 0.0, 0.0, 0.0], 0.0),
    UnboundedError,
    ([0.0, 0.0, 0.0], 0.0),
    ([0.0, 0.5], 0.5),
    ([3.0, 1.0, 0.0, 0.0], 2.5),
    UnboundedError,
    ([0.0, 0.0, 0.0], 0.0),
    UnboundedError,
    ([0.0, 0.0, 2.5, 4.0], 2.0),
    ([0.0], 0.0),
    UnboundedError,
    ([0.0, 0.0, 0.0], 0.0),
    UnboundedError,
    UnboundedError,
    ([0.0], 0.0),
    UnboundedError,
    UnboundedError,
    UnboundedError,
    ([0.0, 0.0, 2.0], 5.0),
    UnboundedError,
    UnboundedError,
    ([0.0, 0.0, 2.0, 1.0, 0.0, 3.0, 1.0], 3.5),
    ([0.0, 0.0], 0.0),
]


def _components(n, constraints):
    label = list(range(n))
    for a, b, _ in constraints:
        old, new = label[a], label[b]
        label = [new if v == old else v for v in label]
    return len(set(label))


def test_lp_solve_matches_the_frozen_simplex_results():
    rng = random.Random(13)
    instances = [_lp_instance(rng) for _ in LP_FROZEN]
    for (costs, constraints), expected in zip(instances, LP_FROZEN):
        if isinstance(expected, tuple):
            assert lp_solve(costs, constraints) == expected, (costs, constraints)
        else:
            with pytest.raises(expected):
                lp_solve(costs, constraints)

    # the instances cover the cases the frozen list is meant to pin
    bounded = [inst for inst, e in zip(instances, LP_FROZEN) if isinstance(e, tuple)]
    assert any(_components(len(c), cons) > 1 for c, cons in bounded)
    assert any(d == 0 for _, cons in bounded for _, _, d in cons)
    assert any(
        len({(min(a, b), max(a, b), d) for a, b, d in cons})
        > len({(min(a, b), max(a, b)) for a, b, _ in cons})
        for _, cons in bounded
    )
    signs = {(sum(c) > 0) - (sum(c) < 0) for (c, _), e in zip(instances, LP_FROZEN) if e is UnboundedError}
    assert signs == {-1, 0, 1}


def _outcome(run):
    """(value, error estimate, evaluations, message) of a result or a refusal."""
    try:
        res = run()
    except AccuracyError as exc:
        return (exc.value, exc.error_estimate, exc.evaluations, str(exc))
    if isinstance(res, AccuracyError):
        return (res.value, res.error_estimate, res.evaluations, str(res))
    return (res.value, res.error_estimate, res.evaluations, None)


def test_quad2d_many_gives_each_problem_its_solo_outcome():
    cuts = list(np.linspace(0.02, 0.98, 49))  # 50 x 50 root cells
    peak = lambda x, y: 1.0 / (1e-3 + (x - 0.31) ** 2 + (y - 0.77) ** 2)
    # (integrand, domain, splits): over its root budget,
    # below its round-off floor at the shared tol, and one that converges
    problems = [
        (lambda x, y: x + y, (0.0, 1.0, 0.0, 1.0), (cuts, cuts)),
        (lambda x, y: 1e3 * _GAUSS(x, y), (0.0, 3.0, 0.0, 3.0), None),
        (peak, [(0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0)], None),
    ]
    tol, max_evals = 1e-12, 200_000
    solo = [
        _outcome(lambda: quad2d(f, dom, tol=tol, max_evals=max_evals, initial_splits=splits))
        for f, dom, splits in problems
    ]
    assert "2500 root cells" in solo[0][3] and solo[0][2] == 0
    assert "below the round-off floor" in solo[1][3]
    assert solo[2][3] is None

    evals = [0, 0, 0]
    calls = []

    def f(x, y, k):
        calls.append(x.size)
        out = np.empty_like(x)
        for p, (g, _, _) in enumerate(problems):
            on = k == p
            evals[p] += int(np.count_nonzero(on))
            out[on] = g(x[on], y[on])
        return out

    many = quad2d_many(f, [(dom, splits) for _, dom, splits in problems], tol=tol, max_evals=max_evals)
    assert [_outcome(lambda: res) for res in many] == solo
    assert evals == [o[2] for o in solo]
    assert max(evals) <= max_evals
    assert max(calls) <= 16 * 225
    # both refining problems share integrand calls
    assert len(calls) < (solo[1][2] + solo[2][2]) // (16 * 225) + 10


def test_quad2d_refuses_non_finite_integrand_values_after_the_root_cells():
    calls = []

    def f(x, y):
        calls.append(x.size)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(AccuracyError, match="non-finite integrand values") as exc:
        quad2d(f, (0.0, 1.0, 0.0, 1.0), tol=1e-6)
    assert exc.value.evaluations == 225
    assert calls == [225]


def test_quad2d_many_fails_only_the_problem_with_non_finite_values():
    smooth = lambda x, y: np.exp(x * y)
    problems = [((0.0, 1.0, 0.0, 1.0), None), ((0.0, 2.0, 0.0, 1.0), None), ((0.0, 1.0, 0.0, 3.0), None)]
    solo = [quad2d(smooth, dom, tol=1e-12, initial_splits=splits) for dom, splits in problems]

    def f(x, y, k):
        return np.where(k == 1, np.where(x > 1.5, np.nan, 1.0), smooth(x, y))

    many = quad2d_many(f, problems, tol=1e-12)
    assert [many[0], many[2]] == [solo[0], solo[2]]
    assert isinstance(many[1], AccuracyError)
    assert "non-finite integrand values" in str(many[1])
    assert many[1].evaluations == 225


def test_quad2d_many_of_no_problems_is_empty():
    assert quad2d_many(lambda x, y, k: x, [], tol=1e-6) == []


def test_minimize_1d_batch_serves_the_coarse_grid_only():
    # the first call gets the 101 scan points, each later one a single point
    calls = []

    def f(xs):
        calls.append(xs.tolist())
        return (xs - 0.3) ** 2

    res = minimize_1d(f, (0.0, 1.0), tol=1e-10)
    assert calls[0] == np.linspace(0.0, 1.0, 101).tolist()
    assert all(len(xs) == 1 for xs in calls[1:])
    assert 0 < len(calls) - 1 < 60
    assert res.argmin == pytest.approx(0.3, abs=1e-10)


def test_minimize_1d_stops_after_the_scan_when_no_sample_is_finite():
    calls = []

    def f(xs):
        calls.append(len(xs))
        return np.full(len(xs), math.inf)

    res = minimize_1d(f, (0.0, 1.0), tol=1e-10)
    assert calls == [101]
    assert res.min_value == math.inf
    assert res.bracket[0] <= res.argmin <= res.bracket[1]


def test_minimize_1d_reports_the_coarse_bracket_when_a_coarse_sample_wins():
    # every golden-section point fails (+inf), so the best grid point wins
    grid = np.linspace(0.0, 1.0, 101)
    res = minimize_1d(lambda xs: (xs - 0.3) ** 2 if len(xs) == 101 else np.full(len(xs), math.inf),
                      (0.0, 1.0), tol=1e-10)
    assert res.argmin == float(grid[30])
    assert res.bracket == (float(grid[29]), float(grid[31]))
    assert res.failures == ()


@pytest.mark.parametrize("interval, tol", [
    ((0.0, 1.0), 1e-17),
    ((1e-3, 1.0 - 1e-3), 1e-300),
    ((-1e6, 1e6), 1e-10),
])
def test_minimize_1d_refuses_a_tolerance_below_the_float_spacing(interval, tol):
    def f(xs):
        raise AssertionError("the objective ran")

    with pytest.raises(DomainError, match="four float spacings"):
        minimize_1d(f, interval, tol=tol)
    # four spacings at max(|a|, |b|) is accepted, and the search ends
    floor = 4.0 * math.ulp(max(abs(v) for v in interval))
    assert minimize_1d(lambda xs: (xs - 0.123) ** 2, interval, tol=floor).argmin == pytest.approx(0.123, abs=floor)


def test_minimize_1d_sets_at_boundary_only_on_an_endpoint():
    # argmin 0.5475 lies within tol 0.5 of both ends but is neither
    res = minimize_1d(lambda xs: (xs - 0.5475) ** 2, (1e-3, 1.0 - 1e-3), tol=0.5)
    assert abs(res.argmin - 0.5475) < 0.02
    assert not res.at_boundary


# Refinement trajectories captured before the cells moved to a per-problem
# heap, re-captured when lone and near-tie cells began to split in four, and
# again when the split axis became the one with the larger Gauss-Kronrod
# error (test_pins_moved_by_the_error_split_axis_agree_within_the_estimates):
# (integrand, domain, initial_splits, tol, max_evals), then the outcome
# (value, error estimate, evaluations; a refusal also names its message) and
# the integrand call sizes as (points, repeats) runs.
_CUTS = (-0.5, 0.0, 0.5)
_TRAJECTORIES = [
    # exact ties between the mirror-image cells
    ((lambda x, y: np.cos(9.0 * x) * np.cos(9.0 * y), (-1.0, 1.0, -1.0, 1.0), (_CUTS, _CUTS), 1e-12, 1_000_000),
     (0.008387241771751222, 9.268761668281607e-13, 22050), [(3600, 6), (450, 1)]),
    ((lambda x, y: np.abs(x) * np.abs(y), (-1.0, 1.0, -1.0, 1.0), None, 1e-9, 1_000_000),
     (1.0, 1.6653345369377348e-16, 1125), [(225, 1), (900, 1)]),
    ((lambda x, y: 1.0 / (1e-3 + x * x + y * y), [(0.0, 1.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, -1.0, 0.0)],
      None, 1e-7, 1_000_000),
     (16.796424561791447, 7.641415467052326e-08, 14175), [(675, 1), (2700, 3), (1350, 4)]),
    ((lambda x, y: np.sqrt(np.abs(x - y)), (0.0, 1.0, 0.0, 1.0), None, 1e-10, 2_000_000),
     ("budget of 2000000 evaluations exhausted", 0.5333333400925218, 4.392935092338464e-08, 1999575),
     [(225, 1), (900, 1), (2700, 1), (3600, 1), (2700, 1), (3600, 552), (2250, 1)]),
]


def _runs(calls):
    """Call sizes as (size, repeats) runs."""
    runs = []
    for size in calls:
        if runs and runs[-1][0] == size:
            runs[-1] = (size, runs[-1][1] + 1)
        else:
            runs.append((size, 1))
    return runs


def _trajectory_outcome(result):
    if isinstance(result, AccuracyError):
        return (str(result), result.value, result.error_estimate, result.evaluations)
    return (result.value, result.error_estimate, result.evaluations)


@pytest.mark.parametrize("case, outcome, runs", _TRAJECTORIES, ids=["cos-ties", "abs", "peak", "sqrt-budget"])
def test_quad2d_trajectories_are_pinned(case, outcome, runs):
    f, domain, splits, tol, max_evals = case
    counted, calls = _counting(f)
    try:
        got = _trajectory_outcome(quad2d(counted, domain, tol=tol, max_evals=max_evals, initial_splits=splits))
    except AccuracyError as exc:
        got = _trajectory_outcome(exc)
        assert outcome[0] in got[0]
        got, outcome = got[1:], outcome[1:]
    assert got == outcome
    assert _runs(calls) == runs


_MANY_OUTCOMES = [
    (0.008387241771751071, 9.882845751615563e-11, 7650),
    (1.0, 1.6653345369377348e-16, 1125),
    (16.796424561791454, 9.795340927265528e-11, 33075),
    ("quadrature budget of 2000000 evaluations exhausted (error estimate 4.393e-08 > tol 1.000e-10)",
     0.5333333400925218, 4.392935092338464e-08, 1999575),
]


def test_quad2d_many_trajectories_are_pinned():
    cases = [case for case, _, _ in _TRAJECTORIES]
    calls = []

    def f(x, y, k):
        calls.append(x.size)
        out = np.empty_like(x)
        for p, (g, *_) in enumerate(cases):
            out[k == p] = g(x[k == p], y[k == p])
        return out

    results = quad2d_many(f, [(domain, splits) for _, domain, splits, _, _ in cases], tol=1e-10, max_evals=2_000_000)
    assert [_trajectory_outcome(r) for r in results] == _MANY_OUTCOMES
    assert _runs(calls) == [
        (3600, 1), (1125, 1), (3600, 1), (2250, 1), (3600, 5), (2700, 1), (3600, 4), (900, 1), (3600, 3),
        (2250, 1), (3600, 2), (2700, 1), (3600, 2), (1350, 1), (3600, 2), (2700, 1), (3600, 542), (2250, 1),
    ]


def test_quad2d_bisects_every_cell_when_their_sum_stays_above_the_target():
    # Three root cells whose errors, added largest first, sum to less than
    # their correctly rounded total minus tol: the round bisects all of them.
    # The errors of cos(32 x) e^y lost that property when the split axis
    # became the one with the larger Gauss-Kronrod error; cos(29 x) e^y has it.
    f = lambda x, y: np.cos(29.0 * x) * np.exp(y)
    rects = [(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)]
    errs = [err for _, err, _ in _rate_cells(lambda x, y, k: f(x, y), rects, [0, 0, 0])]
    assert sum(sorted(errs, reverse=True)) < math.fsum(errs) - 1e-300
    counted, calls = _counting(f)
    with pytest.raises(AccuracyError, match="budget of 2025 evaluations exhausted") as exc:
        quad2d(counted, rects, tol=1e-300, max_evals=3 * 225 + 6 * 225)
    assert calls == [675, 1350]
    assert (exc.value.value, exc.value.error_estimate, exc.value.evaluations) == (
        -0.04869360879312494, 0.0015975750829988616, 2025
    )
    assert abs(exc.value.value - math.sin(87.0) / 29.0 * (math.e - 1.0)) <= exc.value.error_estimate


# (value, error estimate) of the pins above as they stood while cells were
# split across the larger total variation of their sampled values: the
# _TRAJECTORIES outcomes, then _MANY_OUTCOMES
_SPLIT_BY_VARIATION = [
    (0.00838724177175122, 9.268358683886622e-13), (1.0, 1.942890293094024e-16),
    (16.796424561791447, 7.641415483705671e-08), (0.5333333101214367, 8.476589246920015e-08),
    (0.008387241771751056, 9.919055615932593e-11), (1.0, 1.942890293094024e-16),
    (16.796424561791454, 9.925758825968245e-11), (0.5333333101214367, 8.476589246920015e-08),
]


def test_pins_moved_by_the_error_split_axis_agree_within_the_estimates():
    outcomes = [outcome[-3:-1] for _, outcome, _ in _TRAJECTORIES] + [outcome[-3:-1] for outcome in _MANY_OUTCOMES]
    assert len(outcomes) == len(_SPLIT_BY_VARIATION)
    for (new, new_err), (old, old_err) in zip(outcomes, _SPLIT_BY_VARIATION):
        assert abs(new - old) <= new_err + old_err


@pytest.mark.parametrize("max_evals", [math.nan, math.inf, 1.5, True, -1], ids=["nan", "inf", "1.5", "True", "-1"])
def test_quad2d_refuses_a_budget_that_is_not_a_non_negative_int(max_evals):
    counted, calls = _counting(lambda x, y: np.sin(300.0 * x) * np.sin(300.0 * y))
    with pytest.raises(DomainError, match="max_evals must be a non-negative integer"):
        quad2d(counted, (0.0, 1.0, 0.0, 1.0), tol=1e-9, max_evals=max_evals)
    with pytest.raises(DomainError, match="max_evals must be a non-negative integer"):
        quad2d_many(lambda x, y, k: counted(x, y), [((0.0, 1.0, 0.0, 1.0), None)], max_evals=max_evals)
    assert calls == []


def _counting3(f):
    calls = []

    def counted(x, y, k):
        calls.append(x.size)
        return f(x, y)

    return counted, calls


def test_quad2d_integrates_a_segment_along_x():
    # a row (x0, x1, y, y) is the line integral of f(x, y) over x0..x1
    res = quad2d(lambda x, y: np.exp(x) * y, (0.0, 1.0, 2.0, 2.0), tol=1e-12)
    assert res.value == pytest.approx(2.0 * (math.e - 1.0), rel=1e-14)
    assert res.evaluations == 15
    # refinement splits it along x, 15 evaluations per piece
    res = quad2d(lambda x, y: np.sqrt(x), (0.0, 1.0, -1.0, -1.0), tol=1e-10)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert res.evaluations % 15 == 0 and res.evaluations > 15


def test_quad2d_sums_rectangles_and_segments_in_one_domain():
    f = lambda x, y: np.cos(x) + y
    res = quad2d(f, [(0.0, 1.0, 0.0, 1.0), (0.0, 2.0, -3.0, -3.0), (-1.0, 0.0, 5.0, 5.0)], tol=1e-12)
    exact = (math.sin(1.0) + 0.5) + (math.sin(2.0) - 6.0) + (math.sin(1.0) + 5.0)
    assert res.value == pytest.approx(exact, abs=1e-12)
    # a 225-point cell and two 15-point segments
    assert res.evaluations == 225 + 2 * 15


def test_segment_points_follow_the_rectangle_points_in_a_call():
    seen = []

    def f(x, y, k):
        seen.append((x.copy(), y.copy(), k.copy()))
        return np.ones_like(x)

    problems = [([(0.0, 1.0, -1.0, -1.0), (0.0, 1.0, 0.0, 1.0)], None), ([(2.0, 3.0, 4.0, 4.0)], None)]
    results = quad2d_many(f, problems, tol=1e-6)
    assert [r.value for r in results] == pytest.approx([2.0, 1.0], abs=1e-14)
    ((x, y, k),) = seen
    assert x.size == 225 + 2 * 15
    assert np.all(y[:225] >= 0.0) and np.all(y[225:240] == -1.0) and np.all(y[240:] == 4.0)
    assert list(k[:240]) == [0] * 240 and list(k[240:]) == [1] * 15


def test_segment_ratings_do_not_depend_on_the_cells_sharing_a_call():
    rng = np.random.default_rng(5)
    x0, y0 = rng.uniform(0.0, 1.0, (2, 9))
    cells = np.stack([x0, x0 + 0.3, y0, y0 + 0.2], axis=1)
    cells[::2, 3] = cells[::2, 2]  # every other cell a segment
    rows = cells.tolist()
    f = lambda x, y, k: np.exp(np.sin(7.0 * x) * np.cos(5.0 * y)) / (0.1 + x * y)
    together = _rate_cells(f, rows, [0] * len(rows))
    for i, row in enumerate(rows):
        assert together[i] == _rate_cells(f, [row], [0])[0]
    assert [together[i][2] for i in range(0, len(rows), 2)] == [0] * 5


def test_a_round_of_many_rectangles_rates_its_segments_in_its_last_block():
    # 20 rectangles and 3 segments, interleaved: two integrand calls, the
    # second the last 4 rectangles and then the segments, tagged per point;
    # the ratings come back in row order
    rng = np.random.default_rng(7)
    x0, y0 = rng.uniform(0.0, 1.0, (2, 23))
    cells = np.stack([x0, x0 + 0.3, y0, y0 + 0.2], axis=1)
    cells[[3, 11, 19], 3] = cells[[3, 11, 19], 2]
    rows, tags = cells.tolist(), [i % 2 for i in range(23)]
    seen = []

    def f(x, y, k):
        seen.append((x.size, k.copy()))
        return np.exp(np.sin(7.0 * x) * np.cos(5.0 * y)) + k

    rated = _rate_cells(f, rows, tags)
    assert [size for size, _ in seen] == [16 * 225, 4 * 225 + 3 * 15]
    rects = [i for i in range(23) if i not in (3, 11, 19)]
    expected = np.repeat([tags[i] for i in rects + [3, 11, 19]], [225] * 20 + [15] * 3)
    assert np.array_equal(np.concatenate([k for _, k in seen]), expected)
    for i, row in enumerate(rows):
        assert rated[i] == _rate_cells(f, [row], [tags[i]])[0]
    # through quad2d_many: 18 root rectangles and 2 root segments, no call of segments alone
    seen.clear()
    quad2d_many(f, [([row for i, row in enumerate(rows[:21]) if i != 11], None)], tol=1.0)
    assert [size for size, _ in seen] == [16 * 225, 2 * 225 + 2 * 15]


def test_segments_count_their_evaluations_against_the_budget():
    f = lambda x, y: np.sin(300.0 * x)
    counted, calls = _counting3(f)
    (res,) = quad2d_many(counted, [([(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, -1.0, -1.0)], None)], max_evals=239)
    assert isinstance(res, AccuracyError) and "2 root cells need 240 evaluations" in str(res)
    assert calls == []
    for max_evals in (15, 100, 1000):
        counted, calls = _counting3(f)
        (res,) = quad2d_many(counted, [((0.0, 1.0, -1.0, -1.0), None)], tol=1e-15, max_evals=max_evals)
        assert isinstance(res, AccuracyError)
        assert res.evaluations == sum(calls) <= max_evals
        # a segment's two children cost 30: the budget stops within 30 of the end
        assert max_evals - res.evaluations < 30


@pytest.mark.parametrize("segment", [False, True])
def test_quad2d_refuses_to_bisect_a_side_one_float_spacing_wide(segment):
    # 1/|t - 1/2| keeps the cells beside t = 1/2 above any tolerance: they
    # are bisected along y (along x on a segment) down to one float
    # spacing, where a midpoint equals an endpoint; the quadrature stops
    # there rather than make a zero-width child, which would count as a
    # segment or as nothing
    def f(x, y):
        return 1.0 / (np.abs((x if segment else y) - 0.5) + 1e-300)

    domain = (0.25, 0.75, 0.0, 0.0) if segment else (0.0, 1.0, 0.25, 0.75)
    with pytest.raises(AccuracyError, match="one float spacing wide") as info:
        quad2d(f, domain, tol=1e-6, max_evals=200_000)
    x0, x1, y0, y1 = ast.literal_eval(str(info.value).split("cell ")[1].split(" cannot")[0])
    lo, hi = (x0, x1) if segment else (y0, y1)
    assert hi == math.nextafter(lo, math.inf) and 0.5 in (lo, hi)
    assert math.isfinite(info.value.value) and info.value.evaluations > 0


def test_integrand_calls_follow_the_documented_layout():
    # the layout of quad2d_many's docstring, on which energy._layout reads
    # each cell's face from its first point: a call holds at most 16
    # rectangles, each as its 15 x 15 tensor grid of 225 contiguous points
    # (x at the p-th Kronrod node and y at the q-th at 15 p + q), then the
    # segments, 15 contiguous points each; every cell's points carry one tag
    xk = nemprism.numerics._XK
    seen = []

    def f(x, y, k):
        seen.append((x.copy(), y.copy(), k.copy()))
        return np.exp(np.sin(7.0 * x) * np.cos(5.0 * y)) + np.cos(9.0 * x) * (y < 0.0)

    def problem(shift, cut):
        rects = [(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 0.5), (-3.0, -2.0, 0.5, 2.0)]
        segments = [(0.0, 2.0, -1.0, -1.0), (0.5, 1.5, -2.0, -2.0)]
        return ([(x0 + shift, x1 + shift, y0, y1) for x0, x1, y0, y1 in rects] + segments,
                [([0.25, 0.5], [0.5]), None, None, cut, None])

    results = quad2d_many(f, [problem(0.0, ([1.0], None)), problem(0.25, None)], tol=1e-9)
    assert all(isinstance(res, nemprism.numerics.QuadratureResult) for res in results)
    assert len(seen) >= 8
    shapes = []  # (rectangles, segments) per call
    for x, y, k in seen:
        rects = int(np.count_nonzero(y[::225] >= 0.0))
        shapes.append((rects, (x.size - 225 * rects) // 15))
        assert rects <= 16
        assert np.all(y[:225 * rects] >= 0.0) and np.all(y[225 * rects:] < 0.0)  # rectangles, then segments
        assert (x.size - 225 * rects) % 15 == 0
        for a in range(0, 225 * rects, 225):
            gx, gy = x[a:a + 225].reshape(15, 15), y[a:a + 225].reshape(15, 15)
            assert np.all(gx == gx[:, :1]) and np.all(gy == gy[:1, :])  # x by rows, y by columns
            for nodes in (gx[:, 0], gy[0]):
                centre, half = nodes[7], 0.5 * (nodes[14] - nodes[0]) / xk[14]
                assert np.allclose(nodes, centre + half * xk, rtol=0.0, atol=1e-12 * abs(half) + 1e-15)
            assert np.all(k[a:a + 225] == k[a])
        for a in range(225 * rects, x.size, 15):
            assert np.all(y[a:a + 15] == y[a]) and np.all(np.diff(x[a:a + 15]) > 0.0) and np.all(k[a:a + 15] == k[a])
    # the calls include full blocks, segments behind rectangles, and two problems in one call
    assert (16, 0) in shapes and any(r and n for r, n in shapes)
    assert any(len(set(k.tolist())) == 2 for _, _, k in seen)
