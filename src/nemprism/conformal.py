"""Rational maps of the unit disc and the tangent director fields they induce.

A configuration is described by an odd power w^n times quadratic factors
whose zeros sit on the open unit interval (real factors), on the open
imaginary unit interval (imaginary factors), or strictly inside the open
quarter disc off both axes (complex factors, entering together with their
mirror):

    f(w) = eps * w^n * prod_j ((w^2 - r_j^2) / (r_j^2 w^2 - 1))^rho_j
                     * prod_k ((w^2 + s_k^2) / (s_k^2 w^2 + 1))^sigma_k
                     * prod_l (((w^2 - t_l^2)(w^2 - conj(t_l)^2))
                               / ((t_l^2 w^2 - 1)(conj(t_l)^2 w^2 - 1)))^tau_l

with eps = +-1, n odd, and every exponent +-1.  Such maps have real
coefficients, are odd, and satisfy f(w) f(1/w) = 1, which makes the lifted
unit vector field

    n(r) = stereo_lift(f(w)),  w = (x + i y) / (|r| + z)

tangent on the coordinate planes and on the unit sphere directions of the
box faces.  Anticonformal variants evaluate f at conj(w) instead, which
reflects n_y pointwise and reverses the orientation of the induced sphere
map.

Evaluation is projective, so poles need no special casing and the area
density stays finite everywhere.  It is written once, in a shared kernel:
``_accumulate`` (f = eps w^n Pt/Qt with Pt, Qt and, unless skipped, their
derivatives accumulated as polynomials in w^2, w conjugated first for
anticonformal maps), ``_parts`` (the projective parts), ``_density`` (the
area or sphere density in one fused pass), ``_log_norm`` (log |(P, Q)|,
half the Fubini-Study potential, from Pt and Qt alone), ``_potential``
(the same from w in one fused pass, the energy's phi kernel),
``_log_norm_gradient`` (its derivative in w), ``_lift`` (the unit vector
of a pair) and ``_project`` (a point to w, the -z axis to infinity).
The director, flux and density functions below, the energy integrand,
the trapped-area integrand and the winding sampler all call it.
``_spec_points`` lets one kernel call evaluate many specs of one
structure, each point under its own spec (a batched family scan).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from ._json import check, layout
from .errors import AccuracyError, DomainError, InvalidSpecError, NormalizationError, UndefinedAtVertexError

__all__ = [
    "RationalMapSpec",
    "HomogeneousValue",
    "DirectorSample",
    "eval_f",
    "stereo_lift",
    "stereo_project",
    "director",
    "director_sample",
    "area_density",
    "sphere_density",
    "flux_field",
]

_BOUNDARY_TOL = 1e-12

ComplexLike = Union[complex, float]


def _is_inf(w: ComplexLike) -> bool:
    w = complex(w)
    return math.isinf(w.real) or math.isinf(w.imag)


@dataclass(frozen=True)
class RationalMapSpec:
    """Validated parameters of one rational tangent map.

    real_factors and imag_factors hold (position, sign) pairs with position
    in the open interval (0, 1); complex_factors holds (position, sign)
    pairs with a truly complex position strictly inside the unit disc.
    Signs are +1 for a zero factor and -1 for its reciprocal (pole) factor.
    orientation is "conformal" or "anticonformal".

    Python arguments follow the JSON type rules of ``from_dict``: epsilon,
    n and every sign must be ints (not bools), every position a real or,
    for a complex factor, complex number, and a factor list may be a tuple
    or a list; nothing is converted, so ``n=True``, a sign -1.5 or a
    position "0.5" raises InvalidSpecError naming the field by its JSON key.
    """

    epsilon: int
    n: int
    real_factors: Tuple[Tuple[float, int], ...] = field(default=(), metadata={"json": "real"})
    imag_factors: Tuple[Tuple[float, int], ...] = field(default=(), metadata={"json": "imag"})
    complex_factors: Tuple[Tuple[complex, int], ...] = field(default=(), metadata={"json": "complex"})
    orientation: str = "conformal"

    def __post_init__(self):
        try:
            for name, key, hint, _ in layout(RationalMapSpec):
                object.__setattr__(self, name, check(getattr(self, name), hint, f"spec field {key!r}"))
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        if self.epsilon not in (1, -1):
            raise InvalidSpecError(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        if self.n % 2 == 0:
            raise InvalidSpecError(f"n must be an odd integer, got {self.n!r}")
        if self.orientation not in ("conformal", "anticonformal"):
            raise InvalidSpecError(
                f"orientation must be 'conformal' or 'anticonformal', "
                f"got {self.orientation!r}"
            )
        _check_axis(self.real_factors, "real")
        _check_axis(self.imag_factors, "imag")
        _check_complex(self.complex_factors)

    @property
    def a(self) -> int:
        return len(self.real_factors)

    @property
    def b(self) -> int:
        return len(self.imag_factors)

    @property
    def c(self) -> int:
        return len(self.complex_factors)

    @property
    def degree(self) -> int:
        """Topological degree |n| + 2(a + b) + 4c of the extended map."""
        return abs(self.n) + 2 * (self.a + self.b) + 4 * self.c

    @property
    def is_anticonformal(self) -> bool:
        return self.orientation == "anticonformal"

    @cached_property
    def pair_factors(self) -> list:
        """``_pair_factors`` of this spec, built once."""
        return _pair_factors(self.real_factors, self.imag_factors, self.quartics)

    @property
    def quartics(self) -> Tuple[Tuple[float, float, int], ...]:
        """(u, v, sign) per complex factor, where the real-coefficient
        quartic (w^2 - t^2)(w^2 - conj(t)^2) equals w^4 - u w^2 + v."""
        return tuple((2.0 * (t * t).real, abs(t) ** 4, sign) for t, sign in self.complex_factors)

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n": self.n,
            "real": [[pos, sign] for pos, sign in self.real_factors],
            "imag": [[pos, sign] for pos, sign in self.imag_factors],
            "complex": [[t.real, t.imag, sign] for t, sign in self.complex_factors],
            "orientation": self.orientation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RationalMapSpec":
        """The spec of a JSON object; each value must have its key's JSON type
        (the constructor checks them), and a complex factor is [re, im, sign]."""
        if not isinstance(data, dict):
            raise InvalidSpecError(f"spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {key for _, key, _, _ in layout(cls)}
        if unknown:
            raise InvalidSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "epsilon" not in data or "n" not in data:
            raise InvalidSpecError("spec requires 'epsilon' and 'n' fields")
        try:
            cplx = check(
                data.get("complex", ()), Tuple[Tuple[float, float, int], ...], "spec field 'complex'"
            )
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        kwargs = {name: data[key] for name, key, _, _ in layout(cls) if key in data}
        kwargs["complex_factors"] = tuple((complex(re, im), sign) for re, im, sign in cplx)
        return cls(**kwargs)


def _check_axis(factors, label) -> None:
    for pos, sign in factors:
        if not (_BOUNDARY_TOL < pos < 1.0 - _BOUNDARY_TOL):
            raise InvalidSpecError(
                f"{label} factor position must lie strictly inside (0, 1) "
                f"(tolerance {_BOUNDARY_TOL}), got {pos!r}"
            )
        if sign not in (1, -1):
            raise InvalidSpecError(f"{label} factor sign must be +1 or -1, got {sign!r}")
    for i, (pos, sign) in enumerate(factors):
        for pos2, sign2 in factors[i + 1:]:
            if pos == pos2 and sign == -sign2:
                raise InvalidSpecError(
                    f"{label} factors at {pos!r} with opposite signs cancel and "
                    f"would silently lower the degree"
                )


def _check_complex(factors) -> None:
    for t, sign in factors:
        if abs(t.real) <= _BOUNDARY_TOL or abs(t.imag) <= _BOUNDARY_TOL:
            raise InvalidSpecError(
                f"complex factor position must sit off both axes, got {t!r}"
            )
        if not (_BOUNDARY_TOL < abs(t) < 1.0 - _BOUNDARY_TOL):
            raise InvalidSpecError(
                f"complex factor modulus must lie strictly inside (0, 1), got {t!r}"
            )
        if sign not in (1, -1):
            raise InvalidSpecError(f"complex factor sign must be +1 or -1, got {sign!r}")
    canon = [(abs(t.real), abs(t.imag)) for t, _ in factors]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if canon[i] == canon[j] and factors[i][1] == -factors[j][1]:
                raise InvalidSpecError(
                    f"complex factors at {factors[i][0]!r} with opposite signs cancel "
                    f"and would silently lower the degree"
                )


@dataclass(frozen=True)
class HomogeneousValue:
    """f(w) as a projective pair with derivatives: f = P/Q, f' = (dP Q - P dQ)/Q^2."""

    P: complex
    Q: complex
    dP: complex
    dQ: complex


# ----------------------------------------------------------------------
# The projective kernel
# ----------------------------------------------------------------------

def _power(x, k: int):
    """x**k for an integer k >= 0 by repeated squaring (1.0 for k = 0):
    numpy's integer power of a complex array costs many products."""
    out = 1.0 if k == 0 else x
    for bit in bin(k)[3:]:
        out = out * out * x if bit == "1" else out * out
    return out


def _factors(spec: RationalMapSpec, zeta, derivatives: bool = True, out=(None, None)):
    """(num, num', den, den', sign) of each zero factor at zeta = w^2, in the
    order real, imaginary, complex, with num' and den' the zeta-derivatives:
    None is a derivative 1, and without ``derivatives`` a quartic's are None.
    num and den are written through ``out[0]`` and ``out[1]``, read anew for
    each factor: arrays shaped as zeta, or None for fresh ones."""
    for r, sign in spec.real_factors:
        r2 = r * r
        den = np.multiply(r2, zeta, out=out[1])
        den -= 1.0
        yield np.subtract(zeta, r2, out=out[0]), None, den, r2, sign
    for s, sign in spec.imag_factors:
        s2 = s * s
        den = np.multiply(s2, zeta, out=out[1])
        den += 1.0
        yield np.add(zeta, s2, out=out[0]), None, den, s2, sign
    quartics = spec.quartics
    z2 = zeta * zeta if quartics else None
    for u, v, sign in quartics:
        uz = u * zeta
        num = np.subtract(z2, uz, out=out[0])
        num += v
        den = np.multiply(v, z2, out=out[1])
        den -= uz
        den += 1.0
        if derivatives:
            yield num, 2.0 * zeta - u, den, 2.0 * v * zeta - u, sign
        else:
            yield num, None, den, None, sign


def _accumulate(spec: RationalMapSpec, w, derivatives: bool = True) -> tuple:
    """(w, zeta, Pt, dPt, Qt, dQt) at finite w (scalar or ndarray): f(w) =
    eps w^n Pt(zeta)/Qt(zeta), zeta = w^2, with Pt, Qt the products of the
    factor numerators and denominators and dPt, dQt their zeta-derivatives
    (None without ``derivatives``, whose products are then skipped).
    ``spec`` may also be a per-point view from ``_spec_points``.  The first
    factor's arrays become the products; every later factor is written
    over one pair of temporaries."""
    w = np.asarray(w, dtype=complex)
    if spec.is_anticonformal:
        # asarray keeps a 0-d input an array: numpy scalars round differently
        w = np.asarray(np.conj(w))
    zeta = w * w
    parts = None
    out = [None, None]
    for num, dnum, den, dden, sign in _factors(spec, zeta, derivatives, out):
        if sign < 0:
            num, dnum, den, dden = den, dden, num, dnum
        if parts is None:
            parts = [num, 1.0 if dnum is None else dnum, den, 1.0 if dden is None else dden]
            if isinstance(zeta, np.ndarray):  # a numpy scalar keeps its own arithmetic
                out[:] = np.empty_like(zeta), np.empty_like(zeta)
            continue
        # (T t)' = T' t + T t', in place on the arrays made here
        Pt, dPt, Qt, dQt = parts
        if derivatives:
            dPt = dPt * num
            dPt += Pt if dnum is None else Pt * dnum
            dQt = dQt * den
            dQt += Qt if dden is None else Qt * dden
        Pt *= num
        Qt *= den
        parts = [Pt, dPt, Qt, dQt]
    Pt, dPt, Qt, dQt = parts or (1.0, 0.0, 1.0, 0.0)
    return (w, zeta, Pt, dPt, Qt, dQt) if derivatives else (w, zeta, Pt, None, Qt, None)


def _parts(spec: RationalMapSpec, acc: tuple):
    """Projective parts (P, Q, dP, dQ) of ``_accumulate``'s result, with
    f = P/Q and f' = (dP Q - P dQ)/Q^2: w^|n| joins Pt for n > 0 and Qt
    for n < 0."""
    w, zeta, Pt, dPt, Qt, dQt = acc
    na = abs(spec.n)
    wk = _power(zeta, na // 2)  # w^(|n| - 1)

    def mono(T, dT):  # w^|n| T(zeta) and its w-derivative
        return wk * w * T, wk * (na * T + 2.0 * zeta * dT)

    def plain(T, dT):  # T(zeta) and its w-derivative
        return T, 2.0 * w * dT

    (P, dP), (Q, dQ) = (mono(Pt, dPt), plain(Qt, dQt)) if spec.n > 0 else (plain(Pt, dPt), mono(Qt, dQt))
    return spec.epsilon * P, Q, spec.epsilon * dP, dQ


def _density(spec: RationalMapSpec, acc: tuple, sphere: bool):
    """Area density 4 |f'|^2 / (1 + |f|^2)^2 from ``_accumulate``'s result,
    or with ``sphere`` the sphere density, that times (1 + |w|^2)^2 / 4.

    It is 4 |W|^2 / (|P|^2 + |Q|^2)^2 with W = dP Q - P dQ = eps w^(|n|-1)
    [n Pt Qt + 2 zeta (dPt Qt - Pt dQt)] and |P|^2 + |Q|^2 = rho^|n| |Pt|^2
    + |Qt|^2 (rho = |w|^2, on Qt for n < 0), all over max(|Pt|, |Qt|) so
    that no square over- or underflows at zeros and poles."""
    _, zeta, Pt, dPt, Qt, dQt = acc
    modP, modQ = np.abs(Pt), np.abs(Qt)
    inv = 1.0 / np.maximum(modP, modQ)
    scale = inv.astype(complex)  # complex-by-complex products are the cheaper
    p, q = Pt * scale, Qt * scale
    scale *= 2.0 * zeta
    bracket = spec.n * p * q + scale * (dPt * q - p * dQt)
    rho = np.abs(zeta)  # |w|^2
    modP, modQ = (modP * inv) ** 2, (modQ * inv) ** 2
    na = abs(spec.n)
    if spec.n > 0:
        modP *= _power(rho, na)
    else:
        modQ *= _power(rho, na)
    # |W| / (|P|^2 + |Q|^2), times (1 + rho) / 2 for the sphere density
    root = np.abs(bracket)
    root *= _power(rho, na // 2) * ((1.0 + rho) if sphere else 2.0)
    root /= modP + modQ
    return root * root


def _log_norm(spec: RationalMapSpec, acc: tuple):
    """log |(P, Q)| = log sqrt(|P|^2 + |Q|^2), half the Fubini-Study
    potential, from ``_accumulate``'s result (its derivatives are not read).

    |P| = |w|^|n| |Pt| and |Q| = |Qt| (the power joins Qt for n < 0), and
    |(P, Q)| is the modulus of the complex number |P| + i |Q|.  numpy takes
    a complex modulus as ``np.hypot`` does, scaled by the larger part, so
    this is log max(|P|, |Q|) plus half the log of the scaled sum and no
    square over- or underflows at zeros and poles; it is also several times
    faster than ``np.hypot``."""
    w, _, Pt, _, Qt, _ = acc
    pair = np.empty(np.shape(w), dtype=complex)
    np.abs(Pt, out=pair.real)
    np.abs(Qt, out=pair.imag)
    return _log_pair(spec, w, pair)


def _log_pair(spec: RationalMapSpec, w, pair: np.ndarray):
    """log |(P, Q)| from ``pair`` = |Pt| + i |Qt|, which it overwrites."""
    row = pair.real if spec.n > 0 else pair.imag
    row *= _power(np.abs(w), abs(spec.n))
    out = np.abs(pair)
    return np.log(out, out=out)


def _pair_factors(real, imag, quartics) -> list:
    """Per factor, in the order real, imaginary, complex, the data from which
    ``_potential`` writes the factor's numerator and denominator: (q, u,
    shift, sign), q = r^2 on a real factor (shift np.subtract), s^2 on an
    imaginary one (np.add) and the quartic's v on a complex one, whose u is
    also held (None on the others).  The factors come as a spec holds them,
    (position, sign) and (u, v, sign); a position, u or v may also be an
    array over several specs.  q and u are complex (0-d for one spec), so
    that numpy neither converts a Python scalar nor casts an array on each
    call."""
    terms = [(r * r, None, np.subtract, sign) for r, sign in real]
    terms += [(s * s, None, np.add, sign) for s, sign in imag]
    terms += [(v, u, np.add, sign) for u, v, sign in quartics]
    return [(np.array(q, dtype=complex), u if u is None else np.array(u, dtype=complex), shift, sign)
            for q, u, shift, sign in terms]


# 1 as a 0-d complex operand, which numpy takes faster than a Python float
_ONE = np.array(1.0 + 0.0j)


def _potential(spec: RationalMapSpec, w: np.ndarray) -> np.ndarray:
    """log |(P, Q)| at a 1-d array of points w, bit for bit as
    ``_log_norm(spec, _accumulate(spec, w, derivatives=False))``, in one
    pass over ``spec.pair_factors``: Pt and Qt are the two rows of one
    (2, N) array, each later factor writes its numerator and denominator
    over the two rows of one more, and both products take one
    multiplication.  w is not conjugated for anticonformal maps, since
    conjugation changes no modulus (every product rounds symmetrically in
    the sign of an imaginary part).  ``spec`` may be a per-point view from
    ``_spec_points``."""
    zeta = w * w
    pair = np.empty(len(w), dtype=complex)
    factors = spec.pair_factors
    if not factors:
        pair.fill(1.0 + 1.0j)
        return _log_pair(spec, w, pair)
    work = np.empty((4, len(w)), dtype=complex)  # Pt, Qt, then a factor's pair
    rows = work[0], work[1], work[2], work[3]
    z2 = None
    for i, (q, u, shift, sign) in enumerate(factors):
        num, den = rows[2:] if i else rows[:2]
        if sign < 0:
            num, den = den, num
        if u is None:  # (zeta -+ q, q zeta -+ 1)
            shift(zeta, q, out=num)
            np.multiply(q, zeta, out=den)
            shift(den, _ONE, out=den)
        else:  # (zeta^2 - u zeta + v, v zeta^2 - u zeta + 1), q = v
            if z2 is None:
                z2 = zeta * zeta
            uz = u * zeta
            np.subtract(z2, uz, out=num)
            num += q
            np.multiply(q, z2, out=den)
            den -= uz
            den += _ONE
        if i:
            work[:2] *= work[2:]
    np.abs(rows[0], out=pair.real)
    np.abs(rows[1], out=pair.imag)
    return _log_pair(spec, w, pair)


def _log_norm_gradient(spec: RationalMapSpec, acc: tuple):
    """g = (P' conj(P) + Q' conj(Q)) / (|P|^2 + |Q|^2) from ``_accumulate``'s
    result with its derivatives, so that d log |(P, Q)| = Re(g dw); the pair
    is divided by max(|P|, |Q|) first.  w is the point the kernel evaluated
    (conjugated for anticonformal maps)."""
    P, Q, dP, dQ = _parts(spec, acc)
    inv = 1.0 / np.maximum(np.abs(P), np.abs(Q))
    p, q = P * inv, Q * inv
    return inv * (dP * np.conj(p) + dQ * np.conj(q)) / (np.abs(p) ** 2 + np.abs(q) ** 2)


def _structure(spec: RationalMapSpec) -> tuple:
    return (
        spec.epsilon,
        spec.n,
        spec.orientation,
        tuple(sign for _, sign in spec.real_factors),
        tuple(sign for _, sign in spec.imag_factors),
        tuple(sign for _, sign in spec.complex_factors),
    )


def _spec_points(specs: Sequence[RationalMapSpec]) -> Callable[[np.ndarray], object]:
    """A per-point view of specs that share one structure.

    The specs must agree in epsilon, n, orientation and the sign of every
    factor; only factor positions may differ (DomainError otherwise).
    Returns ``at(k)``: a stand-in for a spec in the kernel (``_accumulate``,
    ``_potential`` and the functions that read their results) with the
    attributes they read (epsilon, n, is_anticonformal, pair_factors,
    real_factors, imag_factors, quartics), where the factor data of point i
    are those of ``specs[k[i]]``.  The data are computed per spec as the
    spec itself computes them and only gathered per point, so every density
    is bit-identical to the one the spec gives; the pair factors are
    gathered at once, the others when first read.  One spec is its own
    view: nothing is gathered.
    """
    first = specs[0]
    key = _structure(first)
    for spec in specs:
        if _structure(spec) != key:
            raise DomainError(
                f"specs must share one structure (epsilon, n, orientation, factor "
                f"counts and signs): {spec!r} differs from {first!r}"
            )
    if len(specs) == 1:
        return lambda k: first

    def columns(rows):
        return [np.array(col) for col in zip(*rows)] if rows[0] else []

    real = columns([[pos for pos, _ in spec.real_factors] for spec in specs])
    imag = columns([[pos for pos, _ in spec.imag_factors] for spec in specs])
    quartics = columns([[(u, v) for u, v, _ in spec.quartics] for spec in specs])
    real_signs, imag_signs, complex_signs = key[3:]
    # per factor: its q and u of all the specs, (specs,)
    pairs = _pair_factors(zip(real, real_signs), zip(imag, imag_signs),
                          [(col[:, 0], col[:, 1], sign) for col, sign in zip(quartics, complex_signs)])

    class At:
        epsilon, n, is_anticonformal = first.epsilon, first.n, first.is_anticonformal

        def __init__(self, k: np.ndarray):
            self.k = k
            self.pair_factors = [(q[k], u if u is None else u[k], shift, sign) for q, u, shift, sign in pairs]

        real_factors = cached_property(lambda self: [(col[self.k], sign) for col, sign in zip(real, real_signs)])
        imag_factors = cached_property(lambda self: [(col[self.k], sign) for col, sign in zip(imag, imag_signs)])
        quartics = cached_property(lambda self: [(col[self.k, 0], col[self.k, 1], sign)
                                                 for col, sign in zip(quartics, complex_signs)])

    return At


def _lift(P, Q):
    """Components (e_x, e_y, e_z) of the unit vector with
    (e_x + i e_y)/(1 + e_z) = P/Q.  The pair is first divided by
    max(|P|, |Q|), so that it stays of order one at zeros and poles alike;
    dividing keeps the sign of their zeros in ``field``."""
    scale = np.maximum(np.abs(P), np.abs(Q))
    p, q = P / scale, Q / scale
    denom = np.abs(p) ** 2 + np.abs(q) ** 2
    cross = 2.0 * p * np.conj(q)
    return cross.real / denom, cross.imag / denom, (np.abs(q) ** 2 - np.abs(p) ** 2) / denom


def _project(x, y, z):
    """Stereographic projection w = (x + i y)/(|r| + z) of points, with
    r^2 and |r|.

    Takes coordinate scalars or arrays.  A single point on the -z axis,
    where |r| + z = 0, projects to infinity.  w is built from one
    reciprocal, as numpy's complex division by a real number builds it.
    """
    r2 = x * x
    r2 += y * y  # in place on arrays, as (x x + y y) + z z
    r2 += z * z
    r = np.sqrt(r2)
    inv = r + z
    if np.ndim(inv) == 0:
        if inv == 0.0:
            return complex(math.inf, 0.0), r2, r
        inv = 1.0 / inv
    else:
        np.divide(1.0, inv, out=inv)
    w = np.empty(np.shape(inv), dtype=complex)
    np.multiply(x, inv, out=w.real)
    np.multiply(y, inv, out=w.imag)
    return w, r2, r


def eval_f(spec: RationalMapSpec, w: ComplexLike) -> HomogeneousValue:
    """Evaluate f at a single point, the point at infinity included.

    For anticonformal orientation the input is conjugated first.  At
    infinity the reciprocal symmetry f(w) f(1/w) = 1 gives the projective
    value (Q(0), P(0)); the chart derivative degenerates there and the
    derivative slots are zero (consistent with the vanishing area density).
    """
    if _is_inf(w):
        P0, Q0, _, _ = _parts(spec, _accumulate(spec, 0.0))
        return HomogeneousValue(complex(Q0), complex(P0), 0.0, 0.0)
    return HomogeneousValue(*(complex(part) for part in _parts(spec, _accumulate(spec, complex(w)))))


# ----------------------------------------------------------------------
# Stereographic correspondence
# ----------------------------------------------------------------------

def stereo_lift(w: ComplexLike) -> np.ndarray:
    """Inverse stereographic projection: complex plane (plus infinity) to S^2.

    Maps 0 to +z, the unit circle to the equator, infinity to -z.
    """
    if _is_inf(w):
        return np.array([0.0, 0.0, -1.0])
    return np.array(_lift(complex(w), 1.0 + 0.0j))


def stereo_project(e: Sequence[float]) -> complex:
    """Stereographic projection (e_x + i e_y)/(1 + e_z) of a unit vector.

    Returns complex infinity at the south pole.  Raises NormalizationError
    when |e| deviates from 1 by more than 1e-9.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (3,):
        raise NormalizationError(f"expected a 3-vector, got shape {e.shape}")
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > 1e-9:
        raise NormalizationError(f"input must be a unit vector, |e| = {norm!r}")
    denom = 1.0 + e[2]
    if denom == 0.0:
        return complex(math.inf, 0.0)
    return complex(e[0], e[1]) / denom


# ----------------------------------------------------------------------
# Director field and derived quantities
# ----------------------------------------------------------------------

def _box_point(r: Sequence[float], what: str) -> np.ndarray:
    """r as a 3-vector away from the box vertex, where ``what`` has no limit."""
    pt = np.asarray(r, dtype=float)
    if pt.shape != (3,):
        raise UndefinedAtVertexError(f"expected a 3-vector, got shape {pt.shape}")
    if float(np.dot(pt, pt)) == 0.0:
        raise UndefinedAtVertexError(f"{what} has no limit at the box vertex")
    return pt


def _director_many(spec: RationalMapSpec, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    w = _project(pts[..., 0], pts[..., 1], pts[..., 2])[0]
    return np.stack(_lift(*_parts(spec, _accumulate(spec, w))[:2]), axis=-1)


def director(spec: RationalMapSpec, r: Sequence[float]) -> np.ndarray:
    """Unit director at a point (radially constant; undefined at the origin)."""
    hv = eval_f(spec, _project(*_box_point(r, "the director"))[0])
    return np.array(_lift(hv.P, hv.Q))


def area_density(spec: RationalMapSpec, w) -> Union[float, np.ndarray]:
    """Pulled-back sphere area density 4 |f'|^2 / (1 + |f|^2)^2 in the w chart.

    Computed projectively as 4 |dP Q - P dQ|^2 / (|P|^2 + |Q|^2)^2, which is
    finite everywhere, poles included.  Vanishes in the limit at infinity.
    Accepts a scalar or an ndarray of points.
    """
    scalar = np.ndim(w) == 0
    if scalar and _is_inf(w):
        return 0.0
    density = _density(spec, _accumulate(spec, w), sphere=False)
    return float(density) if scalar else density


def sphere_density(spec: RationalMapSpec, w) -> Union[float, np.ndarray]:
    """Unsigned Jacobian density of the sphere map at the direction with
    projection w: area_density(w) * (1 + |w|^2)^2 / 4.

    This is the factor that turns the radial flux field into
    density * rhat / r^2; for the identity map it is 1 everywhere.  At
    infinity it equals its value at 0 by the reciprocal symmetry.
    """
    scalar = np.ndim(w) == 0
    if scalar and _is_inf(w):
        w = 0.0
    density = _density(spec, _accumulate(spec, w), sphere=True)
    return float(density) if scalar else density


@lru_cache(maxsize=16)
def factor_scales(spec: RationalMapSpec) -> Tuple[Tuple[complex, float], ...]:
    """The scale of every density bump: each first-quadrant factor point w0
    with the relative width delta of its bump, then, when it is a bump of
    its own, w = 0 with its radius b.

    Each factor concentrates its share of the covering mass near its
    position.  The concentration scale is the distance from the factor's
    zero to the nearest pole, relative to the modulus: its own inverse
    image as the modulus approaches 1, or an opposite-sign factor close by.
    Quadratures seed cell boundaries bracketing these spots; without the
    bracket a tight zero/pole pair hides its mass between the nodes of a
    large cell.

    Near a point w0, f ~ C (w - w0)^k with k the factor's sign (n at
    w = 0), so |f| crosses 1 at the radius rho0 = |C|^(-1/k), inside which
    the point's bump lies.  log |C| is a sum of logs, so that small factors
    cannot underflow C: n log |w0| (none at w = 0), plus sg log |num / den|
    of every factor at w0, the point's own num taken by its derivative.  A
    factor's width narrows to rho0 / |w0| when that lies below delta / 64,
    so far inside delta that no partner sits within rho0 to spoil the
    linear form (below delta / 1024 only, the bubble of a crowded pair at a
    hundredth of its gap went unseeded and unseen by the rounding floor);
    it stays at least eps, below which the float spacing of w hides any
    bump.  w = 0 is listed when b = rho0 lies below the modulus of every
    factor (and below 1, where |f| = 1 on the unit circle); a factor of the
    sign opposite to w^n near the origin puts it there, unseen by seeds at
    the factors.  The scales of a spec are cached: each of its oracles
    reads them.
    """
    w = np.array([complex(r, 0.0) for r, _ in spec.real_factors] + [complex(0.0, s) for s, _ in spec.imag_factors]
                 + [complex(abs(t.real), abs(t.imag)) for t, _ in spec.complex_factors] + [0j])
    sg = np.array([sign for _, sign in spec.real_factors + spec.imag_factors + spec.complex_factors])
    # moduli by hypot, which rounds as abs of a Python complex does and np.abs does not
    diff, m = w[:-1, None] - w[:-1], np.hypot(w.real[:-1], w.imag[:-1])
    gaps = np.where(sg[:, None] == -sg, np.hypot(diff.real, diff.imag), np.inf)  # to the opposite-sign factors
    delta = np.minimum((1.0 - m * m) / m, gaps.min(axis=1, initial=np.inf) / m)
    factors = list(_factors(spec, w * w))
    for i, (num, dnum, *_) in enumerate(factors):  # w - w0 carries the own factor's num'(w0) = 2 w0 dnum/dzeta
        num[i] = 2.0 * w[i] * (1.0 if dnum is None else dnum[i])
    with np.errstate(all="ignore"):  # log 0 where factors coincide, exp overflow where no width narrows
        log_c = sum((sign * np.log(np.abs(num / den)) for num, _, den, _, sign in factors), np.zeros(w.shape))
        log_width = -sg * (log_c[:-1] + spec.n * np.log(m)) - np.log(m)  # log (rho0 / |w0|)
        narrow = np.maximum(np.exp(log_width), sys.float_info.epsilon)
        delta = np.where(log_width < np.log(delta / 64.0), narrow, delta)
    out = tuple(zip(w[:-1].tolist(), delta.tolist()))
    log_b = max(-log_c[-1] / spec.n, math.log(sys.float_info.min))  # b a normal float, so that b / 64 > 0
    return out + ((0j, math.exp(log_b)),) if log_b < math.log(min(m, default=1.0)) else out


def check_rounding_floor(scales: Sequence[Tuple[complex, float]], tol: float) -> None:
    """Raise AccuracyError when ``tol`` lies below four times the rounding
    floor of the narrowest factor bump of ``scales`` (``factor_scales``).

    A node's w is rounded to about eps relative to |w|, so a bump of
    relative width delta is sampled with a relative error of about
    eps / delta, and a density quadrature is biased by up to about
    2 eps / delta, which its error estimate does not see.  The origin bubble
    has no such floor: w is as fine near 0 as b.  A ``tol`` that is not
    positive is left to the quadrature's DomainError.  Its one caller is
    ``invariants._trapped_area``, the density quadrature of
    ``numeric_trapped_area`` and ``energy.face_flux``.
    """
    floor = 2.0 * sys.float_info.epsilon / min((delta for w0, delta in scales if w0), default=math.inf)
    if 0.0 < tol < 4.0 * floor:
        raise AccuracyError(f"tolerance {tol:.3e} is below four times the rounding floor {floor:.3e} "
                            "of the narrowest density bump", math.nan, math.inf, 0)


def ladder(first: float, stop: float) -> List[float]:
    """first, 4 first, 16 first, ... below stop: the one geometric ladder of
    root cuts, on long box sides and around density bumps alike."""
    out: List[float] = []
    while first < stop:
        out.append(first)
        first *= 4.0
    return out


def bracket(center: float, delta: float, span: float) -> List[float]:
    """Cuts through a bump of width delta at ``center`` and bracketing it:
    center, center +- 2 delta and center +- ``ladder(8 delta, span)``.

    The mass of a tight zero/pole pair decays like a fourth-power tail, so
    a single bracket at the bump scale leaves annuli wider than any node
    gap; the ladder keeps each annulus comparable to its inner radius.
    """
    out = [center]
    for off in [2.0 * delta] + ladder(8.0 * delta, span):
        out.extend((center - off, center + off))
    return out


def flux_field(spec: RationalMapSpec, r: Sequence[float]) -> np.ndarray:
    """Divergence-free topological flux D at a point.

    D(r) = sign * density(rhat) * rhat / |r|^2 with the sign negative for
    anticonformal orientation (the sphere map reverses orientation).  For
    the identity map this is r / |r|^3.
    """
    pt = _box_point(r, "the flux field")
    w, _, norm = _project(*pt)
    sign = -1.0 if spec.is_anticonformal else 1.0
    return sign * sphere_density(spec, w) * pt / norm**3


@dataclass(frozen=True)
class DirectorSample:
    """Director, flux, and chart density evaluated at one point."""

    position: Tuple[float, float, float]
    n: np.ndarray
    D: np.ndarray
    density: float


def director_sample(spec: RationalMapSpec, r: Sequence[float]) -> DirectorSample:
    pt = tuple(float(v) for v in np.asarray(r, dtype=float))
    n = director(spec, pt)
    D = flux_field(spec, pt)
    return DirectorSample(pt, n, D, area_density(spec, _project(*pt)[0]))
