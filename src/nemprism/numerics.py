"""Self-contained numerical kernels.

Small tools used throughout the package, written against plain numpy so
there is no solver or quadrature dependency:

* quad2d              adaptive 2-D quadrature over one rectangle or several
                      disjoint ones, with a nested tensor Gauss(7)/Kronrod(15)
                      pair per cell, and over segments (line integrals along
                      x) with the 1-D pair; it refines in rounds, bisecting
                      cells or, when one bisection cannot finish a cell,
                      splitting it in four, rates each round's cells in
                      blocks of integrand calls (laid out as quad2d_many
                      describes), shares one tolerance
                      and one evaluation budget across the rectangles, and
                      refuses a tolerance below the round-off floor as soon
                      as the error estimate reaches that floor, and
                      non-finite integrand values as soon as they are rated,
* quad2d_many         the same refinement loop over many independent
                      problems at once (quad2d is its one-problem case):
                      each problem keeps its own cells, budget and outcome
                      (each live cell in a heap entry keyed by (-error,
                      creation number), so the largest errors are split
                      first and ties go to the older cell), and the
                      integrand calls are shared between them,
* appell_f2_restricted  the double integral behind the closed-form box
                      energy, its inner integral in closed form and the
                      outer one on a quad2d segment,
* minimize_1d         a 101-point scan in one call of a vectorized
                      objective, then golden-section refinement to a
                      tolerance no finer than the interval's float spacing,
* lp_solve            difference-constrained linear programs, solved exactly
                      in scaled integers as the dual min-cost flow
                      (successive shortest paths).
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import count
from operator import add, itemgetter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._json import Record
from .errors import AccuracyError, DomainError, InfeasibleError, UnboundedError

__all__ = [
    "QuadratureResult",
    "MinimizeResult",
    "quad2d",
    "quad2d_many",
    "appell_f2_restricted",
    "minimize_1d",
    "lp_solve",
]


@dataclass(frozen=True)
class QuadratureResult:
    """An integral estimate with an error estimate and evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class MinimizeResult(Record):
    """Outcome of a 1-D minimization over a closed interval.

    ``failures`` lists the (x, AccuracyError) pairs of the points whose
    evaluation failed and counted as +inf; JSON leaves it out.
    """

    argmin: float
    min_value: float
    at_boundary: bool
    bracket: Tuple[float, float]
    failures: Tuple[Tuple[float, AccuracyError], ...] = field(
        default=(), compare=False, metadata={"json": None}
    )


# ======================================================================
# Nested Gauss-Kronrod 7/15 pair (standard abscissae on [-1, 1])
# ======================================================================

# 15 Kronrod nodes in ascending order; the odd-index entries (1, 3, ..., 13)
# are the embedded 7 Gauss nodes.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# Rating weights, one row per tensor rule over a rectangle's 225 values (x
# along the rows of the 15 x 15 grid): K x K, G x G (Gauss-7 on the odd
# Kronrod nodes), G(x) x K(y) and K(x) x G(y); rows, so that each sum runs
# over contiguous memory.
_WG15 = np.zeros(15)
_WG15[1::2] = _WG
_W = np.stack([np.outer(a, b).ravel() for a, b in ((_WK, _WK), (_WG15, _WG15), (_WG15, _WK), (_WK, _WG15))])
# and over a segment's 15 values: Kronrod-15, and Gauss-7 on the odd nodes
_W_LINE = np.stack((_WK, _WG15))


# Integrand evaluations per cell (a rectangle) and per segment; the most
# rectangles per integrand call, and half the most children per round.
_CELL_EVALS = 225
_SEGMENT_EVALS = 15
_BATCH_CELLS = 16

# Below this multiple of the summed |cell values| an error estimate is
# dominated by round-off (QUADPACK's 50 eps; Gander & Gautschi, BIT 40, 2000).
_ROUNDOFF = 50.0 * sys.float_info.epsilon


# A rectangle's split axis code, from _rate_cells: 0 (x) or 1 (y) when the
# Gauss-Kronrod error along that axis dominates, _TIE + the longer side's
# axis on a near-tie; code & 1 is the axis.
_TIE = 2
# A near-tie cell with an error estimate above _FOUR_WAY tol is split in four:
# one bisection cuts a Gauss-7 (h^14) estimate by at most 2^14 on an
# analytic cell, and leaves the error along the other axis.
_FOUR_WAY = 2.0 ** 14


def _rate_cells(f, rows: List[List[float]], tags: List[int]) -> List[Tuple[float, float, int]]:
    """Rate one round's cell rows, of any problems, by the nested rules.

    A row (x0, x1, y0, y1) is a rectangle, rated by the tensor Kronrod-15
    rule against its embedded Gauss-7 rule (225 points), or, when
    y0 == y1, a segment, rated by the 15-point Kronrod rule against the
    7-point Gauss rule on [x0, x1] at y0.  ``tags`` gives the problem of
    each row, which ``f`` receives per point.  The integrand calls follow
    the round layout of ``quad2d_many``.  Returns (Kronrod value, |K - G|
    error estimate, split axis code) per row, in row order; the code is 0
    for x or 1 for y, plus ``_TIE`` on a near-tie.

    One einsum with ``_W`` gives a rectangle's K x K value, its error
    estimate |K x K - G x G| and its errors along x, |K x K - G(x) x K(y)|,
    and along y, |K x K - K(x) x G(y)|; it is split along the larger (Genz
    & Malik, J. Comput. Appl. Math. 6, 1980), so a feature the rules do not
    resolve along one axis outweighs a trend both resolve along the other.
    Near-ties, neither error 1.5 times the other, fall back to the longer
    side and are reported, so that ``quad2d_many`` may split such a cell in
    four.  A segment is always split along x.
    """
    m = len(rows)
    seg = [row[2] == row[3] for row in rows]
    r = seg.count(False)
    order = range(m) if r == m else sorted(range(m), key=seg.__getitem__)  # rectangles, then segments
    # per row in rating order: centre and half-width along x, then along y
    # (Python floats round as numpy's do)
    shapes = [(0.5 * (x0 + x1), 0.5 * (x1 - x0), 0.5 * (y0 + y1), 0.5 * (y1 - y0))
              for x0, x1, y0, y1 in map(rows.__getitem__, order)]
    total = _CELL_EVALS * r + _SEGMENT_EVALS * (m - r)
    if tags.count(tags[0]) == m:  # one problem: zeros, its index filled in unless 0
        k = np.zeros(total, dtype=np.intp)
        if tags[0]:
            k.fill(tags[0])
    else:
        k = np.array(tags)[order].repeat([_CELL_EVALS] * r + [_SEGMENT_EVALS] * (m - r))
    # the nodes of every row, built once for the round: c + h x_k along x
    # and y, (m, 2, 15), where y + 0 x_k = y on a segment
    cells = np.array(shapes)
    nodes = cells[:, 1::2, None] * _XK
    nodes += cells[:, 0::2, None]
    rated = [None] * m
    first = 0  # the block's first point
    for a in range(0, r, _BATCH_CELLS) if r else (0,):
        b = min(a + _BATCH_CELLS, r)  # rectangles a..b, then, in the last block, the segments
        n = b - a
        last = first + _CELL_EVALS * n + (_SEGMENT_EVALS * (m - r) if b == r else 0)
        # points of rectangle i at [i, p, q] of a (2, n, 15, 15) grid, x
        # varying along p and y along q, then the segments' 15 points each
        points = np.empty((2, last - first))
        grid = points[:, :_CELL_EVALS * n].reshape(2, n, 15, 15)
        grid[0] = nodes[a:b, 0, :, None]
        grid[1] = nodes[a:b, 1, None, :]
        if b == r < m:
            points[:, _CELL_EVALS * n:] = nodes[r:].transpose(1, 0, 2).reshape(2, -1)
        values = np.asarray(f(points[0], points[1], k[first:last]), dtype=float)
        first = last

        # per rectangle, the four rule sums of the sampled values (times the
        # Jacobian hx hy) from one einsum over the block, which sums each
        # rectangle alike whatever the block; a BLAS matmul does not
        vals = values[:_CELL_EVALS * n].reshape(n, _CELL_EVALS)
        sums = np.einsum("mp,qp->qm", vals, _W).tolist()
        for i, s, g, gx, gy, (_, lx, _, ly) in zip(order[a:b], *sums, shapes[a:b]):
            ex, ey = abs(s - gx), abs(s - gy)  # the errors along x and along y
            j = lx * ly
            value = j * s
            rated[i] = (value, abs(value - j * g),
                        0 if ex > 1.5 * ey else 1 if ey > 1.5 * ex else _TIE + (ly > lx))
        if b == r < m:  # a segment's Jacobian is hx, and it is split along x
            # each segment's Kronrod and Gauss products from one multiplication,
            # each sum taken left to right
            products = (values[_CELL_EVALS * n:].reshape(m - r, 1, 15) * _W_LINE).tolist()
            for i, (kron, gauss), (_, lx, _, _) in zip(order[r:], products, shapes[r:]):
                value = lx * reduce(add, kron)
                rated[i] = (value, abs(value - lx * reduce(add, gauss[1::2])), 0)
    return rated


def _bisect(row: List[float], axis: int) -> Optional[List[List[float]]]:
    """The two halves of a cell row across ``axis`` (0 x, 1 y), or None when
    that side is one float spacing wide, so that its midpoint is one of its
    ends."""
    lo, hi, a = list(row), list(row), 2 * axis
    mid = 0.5 * (lo[a] + lo[a + 1])
    if not lo[a] < mid < lo[a + 1]:
        return None
    lo[a + 1] = hi[a] = mid
    return [lo, hi]


def _quarters(halves: List[List[float]], axis: int) -> Optional[List[List[float]]]:
    """The four quarters of a rectangle whose ``halves`` across ``axis``
    are given, each half bisected across the other axis, or None when that
    side is one float spacing wide."""
    first = _bisect(halves[0], 1 - axis)
    return None if first is None else first + _bisect(halves[1], 1 - axis)


def _breakpoints(lo: float, hi: float, cuts: Optional[Sequence[float]]) -> List[float]:
    """Breakpoints lo..hi with the cuts strictly between them, sorted; a cut
    within 1e-12 min(hi - lo, 1e6 max(|cut|, |neighbour|)) of the breakpoint
    before it merges into it, and one that close to hi into hi: near-duplicates
    merge on any side, and cuts near 0 on a long one (a needle's at
    64 * 4^k on 1e50) survive."""
    if not cuts or lo == hi:  # a segment's y side
        return [lo, hi]
    eps = 1e-12 * (hi - lo)
    out = [lo]
    for c in sorted({v for v in map(float, cuts) if lo < v < hi}) + [hi]:
        d = c - out[-1]
        if d > eps or d > 1e-6 * max(abs(c), abs(out[-1])):
            out.append(c)
        elif c == hi:
            out[-1] = hi
    return out


def _root_grids(domain: Sequence, initial_splits: Optional[Sequence]) -> List[Tuple[list, list]]:
    """Breakpoints (xs, ys) of the root cells of one rectangle or segment, or
    of several, one pair per rectangle; a segment's ys is [y0, y0]."""
    rects = np.asarray(domain, dtype=float)
    if rects.ndim not in (1, 2) or rects.shape[-1] != 4 or rects.size == 0:
        raise DomainError(f"domain must be (x0, x1, y0, y1) or a sequence of them, got {domain!r}")
    if rects.ndim == 1:
        rects = rects[None, :]
        splits = [initial_splits]
    else:
        splits = [None] * len(rects) if initial_splits is None else list(initial_splits)
    if len(splits) != len(rects):
        raise DomainError(
            f"initial_splits has {len(splits)} entries for {len(rects)} rectangles"
        )
    grids = []
    for (x0, x1, y0, y1), split in zip(rects.tolist(), splits):
        if not (x1 > x0 and y1 >= y0):
            raise DomainError(f"empty integration domain {domain!r}")
        sx, sy = (None, None) if split is None else split
        grids.append((_breakpoints(x0, x1, sx), _breakpoints(y0, y1, sy)))
    return grids


def _grid_cells(grids: List[Tuple[list, list]]) -> List[List[float]]:
    """Cell rows [x0, x1, y0, y1] of breakpoint grids, grid by grid, x major."""
    return [
        [xs[i], xs[i + 1], ys[j], ys[j + 1]]
        for xs, ys in grids
        for i in range(len(xs) - 1)
        for j in range(len(ys) - 1)
    ]


def _root_cells(domain: Sequence, initial_splits: Optional[Sequence]) -> List[List[float]]:
    """Root cells [x0, x1, y0, y1] of one rectangle or segment, or of several."""
    return _grid_cells(_root_grids(domain, initial_splits))


def quad2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    domain: Sequence,
    tol: float = 1e-9,
    max_evals: int = 1_000_000,
    initial_splits: Optional[Sequence] = None,
) -> QuadratureResult:
    """Adaptively integrate ``f`` over one rectangle or several.

    ``domain`` is one rectangle (x0, x1, y0, y1) or a sequence of disjoint
    rectangles; the result is the integral over their union, and ``tol``
    (absolute) and ``max_evals`` (a non-negative int) are shared by all of
    them.  ``f(x, y)`` receives flat coordinate arrays.  A rectangle of
    zero height, y0 == y1, is a segment: it contributes the line integral
    of f(x, y0) over x0..x1.

    Each cell is rated by a tensor Kronrod-15 rule against its embedded
    Gauss-7 rule (225 evaluations), and each segment piece by the 15-point
    Kronrod rule against its 7-point Gauss rule (15 evaluations); segments
    are always bisected along x.  Refinement runs in rounds over all cells
    at once.  The live cells sit in a heap keyed by (-error estimate,
    creation number), so each round pops them largest error first, ties in
    creation order, and splits the shortest run whose removal would bring
    the summed error to ``tol`` or below, each rectangle along the axis
    with the larger error: Kronrod-15 against Gauss-7 along x, the other
    axis kept at Kronrod-15, against the same along y.  A rectangle is
    split in four at both midpoints instead when one bisection cannot
    finish it: when it is the only cell the round would bisect (a round
    then costs one integrand call of four cells, not two rounds of two), or
    when its two per-axis errors nearly tie, neither 1.5 times the other,
    and its error estimate exceeds 2^14 ``tol`` (the most that one
    bisection can cut a Gauss-7 estimate, of order h^14, on an analytic
    cell; the error along the other axis stays).  If the four children
    would pass the budget or the round's limit, or a side is one float
    spacing wide, the cell is bisected.  A round makes at most 32 children;
    ``quad2d_many`` describes how a round's cells are laid out in integrand
    calls.  Refinement order and summation order are deterministic for
    fixed inputs.

    ``initial_splits`` places cell boundaries at known feature locations:
    one (x cuts, y cuts) pair for a single rectangle, or a sequence of such
    pairs (or None), one per rectangle (a segment reads its x cuts only).
    A narrow integrand bump lying between the nodes of a large cell is
    invisible to the error estimate; a cut through the bump puts clustered
    near-edge nodes right on top of it.  Cuts at or beyond a side's ends
    are dropped, and two cuts merge within 1e-12 min(side, 1e6 |cut|)
    (``_breakpoints``), so those near 0 survive on a side of any length.

    The budget is checked before every integrand call, so ``evaluations``
    never exceeds ``max_evals``: a round splits no cell whose children
    would pass it.  Raises AccuracyError when the root cells alone would
    exceed it (counted from the cuts, before any cell is built, with value
    nan and 0 evaluations), or when the budget runs out before the
    tolerance is met (carrying the best estimate), or when the next cell to
    bisect is one float spacing wide along its split axis, so that its
    midpoint is one of its ends (carrying the best estimate; a zero-width
    child would be taken for a segment or count as nothing), or at once,
    with value nan, when an integrand value or a cell's sum is not finite
    (its nan or infinite error is never bisected away).

    A summed error estimate at or below the round-off floor
    ``50 * eps * sum(|cell values|)`` cannot be trusted to fall further, so
    once it reaches the floor while still above ``tol`` the call raises
    AccuracyError at once (with the best estimate, the error estimate and
    the evaluations spent) instead of spending the budget.  This also
    refuses a ``tol`` that slow refinement below the floor might still meet,
    e.g. ``5e-14`` on an integral of about 44 (floor about ``5e-13``).  The
    floor is recomputed every round from the cells then held, so it follows
    the summed |cell values| as sign changes are resolved.

    This is the one-problem case of ``quad2d_many``, which runs the loop.
    """
    (result,) = quad2d_many(
        lambda x, y, k: f(x, y), [(domain, initial_splits)], tol=tol, max_evals=max_evals
    )
    if isinstance(result, AccuracyError):
        raise result
    return result


def quad2d_many(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    problems: Sequence[Tuple[Sequence, Optional[Sequence]]],
    tol: float = 1e-9,
    max_evals: int = 1_000_000,
) -> List[Union[QuadratureResult, AccuracyError]]:
    """Integrate several independent problems in one refinement loop.

    Each problem is a ``(domain, initial_splits)`` pair as ``quad2d`` takes
    them, and ``tol`` and ``max_evals`` hold for each problem on its own.
    ``f(x, y, k)`` receives flat coordinate arrays and, in ``k``, the index
    of the problem each point belongs to.  Returns one entry per problem, in
    input order: its QuadratureResult, or the AccuracyError that ``quad2d``
    would raise for it (returned, not raised).  A ``tol`` that is not
    positive and finite, or a ``max_evals`` that is not a non-negative
    integer (nan, inf, 1.5 and True included), raises DomainError before
    ``f`` is called.

    Every problem keeps its own cells and runs the rounds of ``quad2d`` on
    them: its own root-cell refusal (counted from its cuts, before any cell
    is built), budget, round-off floor, split rule (the axis of the larger
    per-axis error, or four quarters when one bisection cannot finish a
    cell), limit of 32 children per round and tie order, so its cells,
    value, error estimate and evaluation count are those of a solo call.
    Each of its live cells is one ``heapq`` entry (-error, seq, row, value,
    split axis code), seq the cell's number from one creation counter
    shared by all problems, so ties go to the older cell; numpy only rates
    cells.  A round's bookkeeping is a few heap operations per new or split cell, two
    sums over the live cells and, while the error is above ``tol``, a third
    for the round-off floor.
    The sums (``math.fsum``) are correctly rounded, so they do not depend
    on the heap's order.

    Only the integrand calls are shared.  A round rates the new cells of
    every problem still refining in one pass, rectangles first and then
    segments: blocks of at most 16 rectangles (3600 points), one integrand
    call each, with all the round's segments at the end of the last block,
    and segments alone only in a round without rectangles.  Root cells are
    blocked the same way, since larger calls page-fault their freed
    temporaries back in on every call.  So every call of ``f`` is laid
    out alike, and an integrand may rely on it (``energy._layout`` reads
    each cell's face from its first point): at most 16 rectangles, each as
    225 contiguous points, its 15 x 15 tensor grid of Kronrod nodes with x
    at the p-th node and y at the q-th at 15 p + q, then the segments, each
    as 15 contiguous points in x; all points of a cell carry its problem's
    tag.  Most rounds rate 2 to 6 cells, so a round costs mostly its fixed
    numpy and Python work, not its points: the round's point tags (zeros
    when the round has one problem) and the nodes of all its cells are
    built once, each cell's centre and half-widths are taken in Python, the
    four rule sums of a block's rectangles (value, error estimate and both
    split-axis errors) come from one weight contraction, each segment's
    Kronrod and Gauss products from one multiplication, summed left to
    right in Python, and the per-cell results are finished in Python.  On
    an ``energy`` pass (2-CPU host) the rating costs about 30 us per round
    besides its integrand call; an op's first (root) round costs about 40
    us more than a repeat of it, as the caches refill after the work
    between quadratures.
    A problem leaves the loop when it converges or fails.  Many shallow
    problems (a family scan) then take few, full integrand calls instead
    of many small ones (QUADPACK and Berntsen, Espelid & Genz, ACM TOMS 17,
    1991, keep their subregions in such an error-ordered heap; the latter
    refine many integrals this way).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    if isinstance(max_evals, bool) or not isinstance(max_evals, (int, np.integer)) or max_evals < 0:
        raise DomainError(f"max_evals must be a non-negative integer, got {max_evals!r}")
    out: List[Union[QuadratureResult, AccuracyError, None]] = [None] * len(problems)
    # per problem: the rows of the cells to rate this round, roots first
    new, spent = {}, {}
    for p, (domain, splits) in enumerate(problems):
        # the budget is checked from the cut counts, before any cell row exists
        grids = _root_grids(domain, splits)
        cells = [(len(xs) - 1) * (len(ys) - 1) for xs, ys in grids]
        need = sum(n * (_SEGMENT_EVALS if ys[0] == ys[-1] else _CELL_EVALS)
                   for n, (_, ys) in zip(cells, grids))
        if need > max_evals:
            out[p] = AccuracyError(
                f"{sum(cells)} root cells need {need} evaluations, "
                f"above the quadrature budget of {max_evals}",
                math.nan,
                math.inf,
                0,
            )
        else:
            new[p] = _grid_cells(grids)
            spent[p] = need
    # per refining problem: the heap of its live cells, each entry (-error,
    # seq, row, value, split axis code), seq the creation number; and, in
    # spent, its evaluations once the cells in new are rated
    heaps, seq = {p: [] for p in new}, count()
    while new:
        tags = [p for p, cells in new.items() for _ in cells]
        rows = [row for cells in new.values() for row in cells]
        for p, row, (val, err, code) in zip(tags, rows, _rate_cells(f, rows, tags)):
            heapq.heappush(heaps[p], (-err, next(seq), row, val, code))
        new = {}
        for p, heap in heaps.items():
            evals = spent[p]
            # fsum is correctly rounded, so the sum of the -errors is -(that of
            # the errors); 0.0 - keeps a zero sum +0.0
            total_err = 0.0 - math.fsum(map(itemgetter(0), heap))
            if not math.isfinite(total_err):  # a non-finite value gives a non-finite error
                out[p] = AccuracyError(f"non-finite integrand values or cell sums (error estimate "
                                       f"{total_err} after {evals} evaluations)", math.nan, total_err, evals)
                continue
            live_vals = list(map(itemgetter(3), heap))
            if total_err <= tol:
                out[p] = QuadratureResult(math.fsum(live_vals), total_err, evals)
                continue
            floor = _ROUNDOFF * math.fsum(map(abs, live_vals))
            if total_err <= floor:
                out[p] = AccuracyError(
                    f"tolerance {tol:.3e} is below the round-off floor {floor:.3e} "
                    f"(error estimate {total_err:.3e} after {evals} evaluations)",
                    math.fsum(live_vals),
                    total_err,
                    evals,
                )
                continue
            # Bisect the largest errors first (ties by seq), up to the first
            # whose removal would bring the summed error to tol or below,
            # while the children fit in the budget.  A rectangle is split in
            # four instead when it is the round's only one, or when its
            # per-axis errors nearly tie and its error is above _FOUR_WAY
            # tol, and its quarters fit in the budget and the round.
            children, removed, target, room = [], 0.0, total_err - tol, max_evals - evals
            narrow, four_way = None, _FOUR_WAY * tol
            while heap and len(children) < 2 * _BATCH_CELLS and removed < target:
                neg_err, _, row, _, code = heap[0]
                cost = 2 * _SEGMENT_EVALS if row[2] == row[3] else 2 * _CELL_EVALS
                if cost > room:
                    break
                halves = _bisect(row, code & 1)
                if halves is None:
                    narrow = row
                    break
                heapq.heappop(heap)
                room -= cost
                removed -= neg_err
                if ((code >= _TIE and -neg_err > four_way or not children and (removed >= target or not heap))
                        and row[2] != row[3] and cost <= room and len(children) + 4 <= 2 * _BATCH_CELLS):
                    quarters = _quarters(halves, code & 1)
                    if quarters is not None:
                        halves = quarters
                        room -= cost
                children += halves
            if narrow is not None:
                out[p] = AccuracyError(
                    f"cell {narrow!r} cannot be bisected: its side is one float spacing wide "
                    f"(error estimate {total_err:.3e} > tol {tol:.3e})",
                    math.fsum(live_vals),
                    total_err,
                    evals,
                )
                continue
            if not children:
                out[p] = AccuracyError(
                    f"quadrature budget of {max_evals} evaluations exhausted "
                    f"(error estimate {total_err:.3e} > tol {tol:.3e})",
                    math.fsum(live_vals),
                    total_err,
                    evals,
                )
                continue
            new[p] = children
            spent[p] = max_evals - room
        if len(new) < len(heaps):  # some problems finished
            heaps = {p: heaps[p] for p in new}
    return out


# ======================================================================
# Restricted Appell double integral
# ======================================================================

def appell_f2_restricted(p: float, q: float, tol: float = 1e-10) -> float:
    """F2(1, 1/2, 1/2; 3/2, 3/2; -p, -q) for p, q >= 0.

    Equals (1/4) * int_0^1 int_0^1 u^(-1/2) v^(-1/2) / (1 + p u + q v) du dv.
    The substitution u = a^2, v = b^2 removes the endpoint singularities
    exactly, leaving int_0^1 int_0^1 da db / (1 + p a^2 + q b^2).  F2 is
    symmetric in p and q; the variable with the larger coefficient, say b
    with q >= p, is integrated in closed form,

        int_0^1 db / (A + q b^2) = atan(sqrt(q/A)) / sqrt(q A),  A = 1 + p a^2,

    and the outer integral over a, whose integrand is smooth and decreasing,
    by ``quad2d`` on the segment 0 <= a <= 1 (15 evaluations per piece).
    A large q leaves a spike of width 1/sqrt(q) at b = 0 in the double
    integral, which a 2-D rule misses on a needle; the closed form has
    none.  F2(0, 0) = 1.

    ``tol`` is relative: quad2d runs at the absolute tolerance tol * LB,
    where LB <= F2 is the larger of the two 1-D integrals with b = 1 or
    a = 1, int_0^1 da / (1 + q + p a^2) = atan(sqrt(p/(1+q))) / sqrt(p(1+q)).
    Since F2 <= 1, the error is also below ``tol`` in absolute terms.
    """
    p = float(p)
    q = float(q)
    if p < 0 or q < 0:
        raise DomainError(f"arguments must be nonnegative, got p={p!r}, q={q!r}")
    p, q = min(p, q), max(p, q)
    if q == 0.0:
        return 1.0

    def edge(p, q):  # int_0^1 da / (1 + q + p a^2) <= F2, as b^2 <= 1
        c = 1.0 + q
        return math.atan(math.sqrt(p / c)) / math.sqrt(p * c) if p > 0 else 1.0 / c

    def outer(a, _):
        c = 1.0 + p * a * a
        return np.arctan(np.sqrt(q / c)) / np.sqrt(q * c)

    return quad2d(outer, (0.0, 1.0, 0.0, 0.0), tol=tol * max(edge(p, q), edge(q, p))).value


# ======================================================================
# 1-D minimization
# ======================================================================

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_SCAN_POINTS = 101


def _search_interval(interval: Tuple[float, float], tol: float) -> Tuple[float, float]:
    """(a, b) of ``interval`` after the checks of ``minimize_1d`` (DomainError)."""
    a, b = float(interval[0]), float(interval[1])
    if not (b > a):
        raise DomainError(f"interval must satisfy a < b, got {interval!r}")
    floor = 4.0 * math.ulp(max(abs(a), abs(b)))
    if not (math.isfinite(tol) and tol >= floor):
        raise DomainError(
            f"tolerance must be positive and finite and at least {floor:.3e} "
            f"(four float spacings on [{a!r}, {b!r}]), got {tol!r}"
        )
    return a, b


def minimize_1d(
    f: Callable[[np.ndarray], Sequence[float]],
    interval: Tuple[float, float],
    tol: float = 1e-8,
) -> MinimizeResult:
    """Minimize a scalar function on [a, b].

    ``f`` receives a 1-D array of points and returns their values in order.
    Its first call is a uniform scan of 101 samples (endpoints included),
    which locates the best bracket; golden-section search then shrinks it
    below ``tol``, one point per call.  When no sample is finite, the
    search stops after the scan and returns its +inf minimum.  The returned
    value is never worse than the best sample, and the endpoints always
    compete: ``at_boundary`` is set when the argmin is an endpoint.  The
    returned bracket always holds the argmin: when a scan sample wins, it
    is the scan bracket.

    ``tol`` must be at least four float spacings at max(|a|, |b|); below
    that the bracket cannot shrink to ``tol``, and DomainError is raised
    before ``f`` is called (``_search_interval``).
    """
    a, b = _search_interval(interval, tol)

    def at(x: float) -> float:
        return float(f(np.array([x]))[0])

    grid = np.linspace(a, b, _SCAN_POINTS)
    samples = [float(v) for v in f(grid)]
    best = int(np.argmin(samples))

    scan_bracket = (float(grid[max(best - 1, 0)]), float(grid[min(best + 1, _SCAN_POINTS - 1)]))
    lo, hi = scan_bracket
    candidates = [(samples[best], float(grid[best])), (samples[0], a), (samples[-1], b)]
    if math.isfinite(samples[best]):
        x1 = hi - _INV_PHI * (hi - lo)
        x2 = lo + _INV_PHI * (hi - lo)
        f1 = at(x1)
        f2 = at(x2)
        while (hi - lo) > tol:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _INV_PHI * (hi - lo)
                f1 = at(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _INV_PHI * (hi - lo)
                f2 = at(x2)
        candidates += [(f1, x1), (f2, x2)]

    min_value, argmin = min(candidates)
    if not lo <= argmin <= hi:
        # a scan sample beat every golden-section point (e.g. those all
        # failed as +inf): report the scan bracket, which holds it
        lo, hi = scan_bracket
    return MinimizeResult(argmin, min_value, argmin in (a, b), (lo, hi))


# ======================================================================
# Difference-constrained LPs as exact min-cost flows
# ======================================================================

def lp_solve(
    costs: Sequence[float],
    constraints: Sequence[Tuple[int, int, float]],
) -> Tuple[List[float], float]:
    """Maximize costs . x subject to |x_a - x_b| <= d and x >= 0.

    ``constraints`` lists (a, b, d) triples.  The dual is a transshipment
    problem, solved exactly in scaled integers by successive shortest paths
    (Bellman-Ford): with a ground node g at x_g = 0, each constraint
    x_i - x_j <= w is an uncapacitated arc i -> j of cost w (both ways per
    pair, the smaller d for a repeated pair, and g -> v of cost 0 for
    x_v >= 0); v supplies c_v and g supplies -sum(c).  No arc enters g, so
    if sum(c) > 0, or a supply reaches no demand, the dual is infeasible and
    the objective unbounded above (x = 0 is feasible): UnboundedError.

    Arc costs and distances count units of 1/sw, sw the lcm of the bound
    denominators; supplies, flows and capacities count units of 1/sc, sc
    the lcm of the cost denominators.  Every float (and Fraction) is such a
    multiple, and scaling by a positive constant keeps every comparison and
    tie, so the path choices are those of the exact rational solve.

    By complementary slackness the optimal face is the feasible set with
    every flow-carrying arc tight, a system of difference constraints
    x_u - x_v <= w over the residual arcs u -> v (the arcs, and the reverse
    of each arc with flow at cost -w).  It is closed under componentwise
    min, so its least point x_v = -(residual distance from g to v) is the
    lexicographically smallest optimal vertex.  Returns that point and the
    objective value; a negative bound raises InfeasibleError.
    """
    n = len(costs)
    if n == 0:
        raise DomainError("at least one variable is required")
    c = [Fraction(v) for v in costs]
    bounds = {}
    for a, b, d in constraints:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise DomainError(f"constraint indices ({a}, {b}) invalid for {n} variables")
        dd = Fraction(d)
        if dd < 0:
            raise InfeasibleError(f"negative difference bound {d!r} for pair ({a}, {b})")
        bounds[a, b] = bounds[b, a] = min(dd, bounds.get((a, b), dd))

    def scaled(values):  # (lcm of the denominators, each value times it)
        unit = math.lcm(*(v.denominator for v in values))
        return unit, [v.numerator * (unit // v.denominator) for v in values]

    sw, weights = scaled(list(bounds.values()))
    _, supply = scaled(c)
    supply.append(-sum(supply))

    # arcs[k ^ 1] reverses arcs[k]; cap[k] is None if uncapacitated, else the flow it can cancel
    arcs, cap = [], []
    for (u, v), w in [((n, v), 0) for v in range(n)] + list(zip(bounds, weights)):
        arcs += [(u, v, w), (v, u, -w)]
        cap += [None, 0]

    def shortest(source):  # Bellman-Ford over the arcs with capacity left
        dist, last = [None] * (n + 1), [None] * (n + 1)
        dist[source] = 0
        changed = True
        while changed:  # ends: the residual arcs carry no negative cycle
            changed = False
            for k, (u, v, w) in enumerate(arcs):
                if cap[k] != 0 and dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                    dist[v], last[v], changed = dist[u] + w, k, True
        return dist, last

    for source in range(n + 1):
        while supply[source] > 0:
            dist, last = shortest(source)
            sinks = [v for v in range(n + 1) if supply[v] < 0 and dist[v] is not None]
            if not sinks:
                raise UnboundedError("objective is unbounded along a feasible ray")
            sink = min(sinks, key=dist.__getitem__)
            path, v = [], sink
            while v != source:
                path.append(last[v])
                v = arcs[last[v]][0]
            amount = min([supply[source], -supply[sink]] + [cap[k] for k in path if cap[k] is not None])
            for k in path:
                if cap[k] is None:
                    cap[k ^ 1] += amount
                else:
                    cap[k] -= amount
            supply[source] -= amount
            supply[sink] += amount

    dist, _ = shortest(n)
    x = [Fraction(-dist[v], sw) for v in range(n)]
    objective = sum(ci * xi for ci, xi in zip(c, x))
    return [float(v) for v in x], float(objective)
