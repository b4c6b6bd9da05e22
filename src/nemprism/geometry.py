"""Right rectangular box geometry: vertices, parities, and the corner octant.

The box is axis aligned with side lengths Lx >= Ly >= Lz > 0 and is centred
at the origin of its own frame only implicitly: all field computations work
in the octant attached to one vertex, a box of half lengths (Lx/2, Ly/2,
Lz/2) with the distinguished vertex at the origin.  Vertices carry a parity
sign that alternates under reflection through each mid-plane; the trapped
solid angles at the eight vertices are parity * omega0 and sum to zero.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import DomainError, DimensionOrderError, InvalidDimensionError

__all__ = [
    "PrismVertex",
    "Face",
    "Octant",
    "Prism",
    "make_prism",
    "edge_length",
    "vertex_trapped_areas",
]

Vec3 = Tuple[float, float, float]


@dataclass(frozen=True)
class PrismVertex:
    """One box vertex: a 3-bit index, its coordinates, and its parity.

    Bit i of ``index`` is 0 when the coordinate along axis i is 0 and 1 when
    it equals the full side length (bit 0 = x, bit 1 = y, bit 2 = z).
    ``parity`` is +1 for an even number of set bits, -1 otherwise, so the
    origin has parity +1 and each single reflection flips the sign.
    """

    index: int
    coords: Vec3
    parity: int


@dataclass(frozen=True)
class Face:
    """An axis-aligned octant face: the plane ``axis = value``."""

    axis: str
    value: float
    kind: str  # "exterior" (through the vertex) or "interior" (mid-plane)


@dataclass(frozen=True)
class Octant:
    """The corner octant [0, Lx/2] x [0, Ly/2] x [0, Lz/2] of a box."""

    half_lengths: Vec3

    @property
    def exterior_faces(self) -> Tuple[Face, Face, Face]:
        return tuple(Face(ax, 0.0, "exterior") for ax in "xyz")

    @property
    def interior_faces(self) -> Tuple[Face, Face, Face]:
        hx, hy, hz = self.half_lengths
        return (
            Face("x", hx, "interior"),
            Face("y", hy, "interior"),
            Face("z", hz, "interior"),
        )

    def interior_face_area(self, axis: str) -> float:
        hx, hy, hz = self.half_lengths
        areas = {"x": hy * hz, "y": hx * hz, "z": hx * hy}
        if axis not in areas:
            raise DomainError(f"unknown axis {axis!r}, expected one of x, y, z")
        return areas[axis]


@dataclass(frozen=True)
class Prism:
    """Axis-aligned box with side lengths sorted as Lx >= Ly >= Lz > 0.

    Sides whose squares would overflow (Lx^2 + Ly^2 + Lz^2 not finite) or
    underflow (Lz^2 below the smallest normal float) are refused: the
    diagonal, and with it the upper bound, would come out inf or 0.
    """

    Lx: float
    Ly: float
    Lz: float

    def __post_init__(self):
        sides = (self.Lx, self.Ly, self.Lz)
        for name, L in zip(("Lx", "Ly", "Lz"), sides):
            if not (isinstance(L, (int, float)) and math.isfinite(L)):
                raise InvalidDimensionError(f"{name} must be a finite number, got {L!r}")
            if L <= 0:
                raise InvalidDimensionError(f"{name} must be positive, got {L!r}")
        if not (self.Lx >= self.Ly >= self.Lz):
            suggestion = tuple(sorted(sides, reverse=True))
            raise DimensionOrderError(
                f"side lengths must satisfy Lx >= Ly >= Lz; got {sides}, "
                f"did you mean {suggestion}?"
            )
        # The diagonal and the bounds need every square as a normal float.
        if not math.isfinite(self.Lx * self.Lx + self.Ly * self.Ly + self.Lz * self.Lz):
            raise InvalidDimensionError(
                f"Lx^2 + Ly^2 + Lz^2 overflows a float for sides {sides}"
            )
        if self.Lz * self.Lz < sys.float_info.min:
            raise InvalidDimensionError(
                f"Lz^2 underflows below the smallest normal float for sides {sides}"
            )

    @property
    def sides(self) -> Vec3:
        return (self.Lx, self.Ly, self.Lz)

    @property
    def volume(self) -> float:
        return self.Lx * self.Ly * self.Lz

    @property
    def diagonal(self) -> float:
        """Length of the space diagonal."""
        return math.sqrt(self.Lx**2 + self.Ly**2 + self.Lz**2)

    def aspect(self, i: str, j: str) -> float:
        """Aspect ratio a_ij = L_i / L_j."""
        L = {"x": self.Lx, "y": self.Ly, "z": self.Lz}
        if i not in L or j not in L:
            raise DomainError(f"axes must be x, y or z, got {(i, j)!r}")
        return L[i] / L[j]

    @property
    def vertices(self) -> Tuple[PrismVertex, ...]:
        out = []
        for index in range(8):
            bits = (index & 1, (index >> 1) & 1, (index >> 2) & 1)
            coords = (bits[0] * self.Lx, bits[1] * self.Ly, bits[2] * self.Lz)
            parity = 1 if (bits[0] + bits[1] + bits[2]) % 2 == 0 else -1
            out.append(PrismVertex(index, coords, parity))
        return tuple(out)

    @property
    def octant(self) -> Octant:
        return Octant((self.Lx / 2.0, self.Ly / 2.0, self.Lz / 2.0))


def make_prism(Lx: float, Ly: float, Lz: float) -> Prism:
    """Construct a box, validating positivity and the Lx >= Ly >= Lz order."""
    return Prism(float(Lx), float(Ly), float(Lz))


def edge_length(prism: Prism, a: PrismVertex, b: PrismVertex) -> Optional[float]:
    """Edge length between two box vertices, or None when not adjacent.

    Raises DomainError when either vertex does not belong to the box.
    """
    table = {v.index: v for v in prism.vertices}
    for v in (a, b):
        if not isinstance(v, PrismVertex) or table.get(v.index) != v:
            raise DomainError(f"{v!r} is not a vertex of {prism!r}")
    differing = [k for k in range(3) if a.coords[k] != b.coords[k]]
    if len(differing) != 1:
        return None
    k = differing[0]
    return abs(a.coords[k] - b.coords[k])


def vertex_trapped_areas(prism: Prism, omega0: float) -> Dict[PrismVertex, float]:
    """Signed trapped solid angle at every vertex: parity * omega0.

    Returned in vertex index order; the eight values sum to zero exactly
    (four +omega0 and four -omega0 cancel in pairs).
    """
    return {v: v.parity * omega0 for v in prism.vertices}
