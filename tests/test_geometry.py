import math

import numpy as np
import pytest

from nemprism import (
    DimensionOrderError,
    InvalidDimensionError,
    edge_length,
    make_prism,
    vertex_trapped_areas,
)


def test_make_prism_orders_and_validates():
    p = make_prism(3.0, 2.0, 1.0)
    assert p.sides == (3.0, 2.0, 1.0)
    with pytest.raises(InvalidDimensionError):
        make_prism(1.0, 1.0, 0.0)
    with pytest.raises(InvalidDimensionError):
        make_prism(1.0, -2.0, 0.5)
    with pytest.raises(DimensionOrderError) as exc:
        make_prism(1.0, 2.0, 3.0)
    # the message suggests the sorted ordering
    assert "(3.0, 2.0, 1.0)" in str(exc.value)


def test_order_error_is_value_error():
    with pytest.raises(ValueError):
        make_prism(1.0, 2.0, 3.0)


def test_volume_diagonal_aspect():
    p = make_prism(3.0, 2.0, 1.0)
    assert p.volume == 6.0
    assert p.diagonal == pytest.approx(math.sqrt(14.0), abs=1e-15)
    assert p.aspect("x", "z") == 3.0
    assert p.aspect("y", "z") == 2.0
    assert p.aspect("z", "z") == 1.0


def test_vertices_parity_and_coords():
    p = make_prism(3.0, 2.0, 1.0)
    vs = p.vertices
    assert len(vs) == 8
    for v in vs:
        bits = (v.index & 1, (v.index >> 1) & 1, (v.index >> 2) & 1)
        assert v.coords == (bits[0] * 3.0, bits[1] * 2.0, bits[2] * 1.0)
        # parity flips with each set bit
        assert v.parity == (-1) ** sum(bits)
    assert sum(v.parity for v in vs) == 0


def test_octant_faces():
    p = make_prism(3.0, 2.0, 1.0)
    oc = p.octant
    assert oc.half_lengths == (1.5, 1.0, 0.5)
    interior = {(f.axis, f.value) for f in oc.interior_faces}
    assert interior == {("x", 1.5), ("y", 1.0), ("z", 0.5)}
    assert all(f.kind == "interior" for f in oc.interior_faces)
    assert all(f.value == 0.0 and f.kind == "exterior" for f in oc.exterior_faces)
    # face area is the product of the other two half lengths
    assert oc.interior_face_area("x") == pytest.approx(0.5)
    assert oc.interior_face_area("y") == pytest.approx(0.75)
    assert oc.interior_face_area("z") == pytest.approx(1.5)


def test_edge_length_adjacency():
    p = make_prism(3.0, 2.0, 1.0)
    vs = p.vertices
    assert edge_length(p, vs[0], vs[1]) == 3.0
    assert edge_length(p, vs[0], vs[2]) == 2.0
    assert edge_length(p, vs[0], vs[4]) == 1.0
    # non-adjacent pairs (face or body diagonals) are not edges
    assert edge_length(p, vs[0], vs[3]) is None
    assert edge_length(p, vs[0], vs[7]) is None
    assert edge_length(p, vs[0], vs[0]) is None
    # 12 edges total
    count = sum(
        1
        for i in range(8)
        for j in range(i + 1, 8)
        if edge_length(p, vs[i], vs[j]) is not None
    )
    assert count == 12


def test_vertex_trapped_areas_alternate_and_cancel():
    p = make_prism(3.0, 2.0, 1.0)
    omega = math.pi / 2
    areas = vertex_trapped_areas(p, omega)
    assert len(areas) == 8
    for v, val in areas.items():
        assert val == v.parity * omega
    assert sum(areas.values()) == 0.0


def test_random_prisms_octant_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = np.sort(rng.uniform(0.2, 9.0, size=3))[::-1]
        p = make_prism(*map(float, d))
        assert p.octant.half_lengths == tuple(s / 2.0 for s in p.sides)
        assert p.volume == pytest.approx(float(np.prod(d)), rel=1e-14)


def test_prism_refuses_sides_whose_squares_overflow_or_underflow():
    for sides in ((1e200, 1.0, 1.0), (1e154, 1e154, 1.0)):
        with pytest.raises(InvalidDimensionError, match="overflows"):
            make_prism(*sides)
    for sides in ((1e-200, 1e-200, 1e-200), (1.0, 1.0, 1e-160)):
        with pytest.raises(InvalidDimensionError, match="underflows"):
            make_prism(*sides)
    # the extremes that stay representable keep the diagonal formula
    big = make_prism(1e153, 1e153, 1e153)
    assert big.diagonal == math.sqrt(3e306)
    small = make_prism(1.5e-154, 1.5e-154, 1.5e-154)
    assert small.diagonal > 0.0
