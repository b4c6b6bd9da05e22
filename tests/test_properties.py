"""Property-based checks with a fixed seed (derandomized hypothesis)."""
import cmath
import json
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nemprism import RationalMapSpec, minimize_1d

MARGIN = 1e-12  # the spec validator's distance from 0 and 1

# positions up to the margin from 0 and from 1; sign +1 a zero, -1 a pole
positions = st.floats(MARGIN, 1.0 - MARGIN, exclude_min=True, exclude_max=True)
signs = st.sampled_from((1, -1))
# distinct positions, so no zero/pole pair cancels
axis_factors = st.lists(st.tuples(positions, signs), max_size=3, unique_by=lambda f: f[0])
# complex positions off both axes and inside the unit disc, up to the margin
# from the axes (Cartesian draws) and from the unit circle (polar draws)
offsets = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > MARGIN)
complex_positions = st.one_of(
    st.builds(complex, offsets, offsets),
    st.builds(lambda d, phi: cmath.rect(1.0 - d, phi), positions, st.floats(-math.pi, math.pi)),
).filter(lambda t: min(abs(t.real), abs(t.imag)) > MARGIN and abs(t) < 1.0 - MARGIN)
complex_factors = st.lists(
    st.tuples(complex_positions, signs),
    max_size=2,
    unique_by=lambda f: (abs(f[0].real), abs(f[0].imag)),
)
specs = st.builds(
    RationalMapSpec,
    signs,
    st.sampled_from((-3, -1, 1, 3)),
    axis_factors.map(tuple),
    axis_factors.map(tuple),
    complex_factors.map(tuple),
    st.sampled_from(("conformal", "anticonformal")),
)


# every kind of position within twice the margin of its boundary
AT_THE_MARGINS = RationalMapSpec(
    -1,
    3,
    real_factors=((2 * MARGIN, 1), (1.0 - 2 * MARGIN, -1)),
    imag_factors=((2 * MARGIN, -1),),
    complex_factors=((cmath.rect(1.0 - 2 * MARGIN, 1.0), 1), (complex(-2 * MARGIN, 0.5), -1)),
    orientation="anticonformal",
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(specs)
@example(AT_THE_MARGINS)
def test_spec_survives_a_json_round_trip(spec):
    again = RationalMapSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.to_dict() == spec.to_dict()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 10.0),
    st.sampled_from((1e-12, 1e-8, 1e-4, 1e-2)),
    st.floats(-1.0, 2.0),
)
def test_minimize_1d_finds_the_clipped_minimum_of_a_parabola(a, width, tol, t):
    b = a + width
    c = a + t * width  # inside [a, b] for t in [0, 1], outside otherwise
    assume(min(abs(c - a), abs(c - b)) >= 2 * tol)
    calls = []

    def f(xs):
        calls.append(xs.tolist())
        return (xs - c) ** 2

    res = minimize_1d(f, (a, b), tol=tol)
    assert abs(res.argmin - min(max(c, a), b)) <= tol
    assert res.bracket[0] <= res.argmin <= res.bracket[1]
    assert res.at_boundary == (not a < c < b)
    assert calls[0] == np.linspace(a, b, 101).tolist()
