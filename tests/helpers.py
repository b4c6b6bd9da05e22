"""Shared random generators for property tests.

All randomness flows through an explicit numpy Generator so every test run
is reproducible from its seed.
"""

import math

import numpy as np

from nemprism import InvalidSpecError, RationalMapSpec, make_prism


def random_spec(rng, max_degree=9):
    """Draw a valid spec of degree <= max_degree.

    Factor positions stay away from 0 and 1 (constructions degenerate at
    both limits) and complex factors keep off the axes.  Rejection handles
    the rare cancelling-pair draw.
    """
    while True:
        n = int(rng.choice([-3, -1, 1, 3]))
        budget = (max_degree - abs(n)) // 2
        c = int(rng.integers(0, budget // 2 + 1))
        rem = budget - 2 * c
        a = int(rng.integers(0, rem + 1))
        b = int(rng.integers(0, rem - a + 1))
        eps = int(rng.choice([-1, 1]))
        real = tuple(
            (float(rng.uniform(0.08, 0.92)), int(rng.choice([-1, 1])))
            for _ in range(a)
        )
        imag = tuple(
            (float(rng.uniform(0.08, 0.92)), int(rng.choice([-1, 1])))
            for _ in range(b)
        )
        comp = []
        for _ in range(c):
            m = float(rng.uniform(0.15, 0.85))
            th = float(rng.uniform(0.15, math.pi / 2 - 0.15))
            comp.append(
                (complex(m * math.cos(th), m * math.sin(th)), int(rng.choice([-1, 1])))
            )
        orientation = "anticonformal" if rng.random() < 0.3 else "conformal"
        try:
            return RationalMapSpec(eps, n, real, imag, tuple(comp), orientation)
        except InvalidSpecError:
            continue


def near_spec(rng):
    """Draw a spec whose factors crowd 0, 1 and each other, or None when the
    validator refuses the draw.

    Each position is uniform in (0.01, 0.99), 10^U(-8, -1) or
    1 - 10^U(-9, -1).  Up to 3 real and up to 3 imaginary factors each get,
    with probability 0.4, an opposite-sign partner at relative distance
    10^U(-9, -2); up to 2 complex factors each get one at relative modulus
    distance 10^U(-7, -2), on the same ray.
    """
    def position():
        kind = rng.integers(3)
        if kind == 0:
            return float(rng.uniform(0.01, 0.99))
        if kind == 1:
            return float(10.0 ** rng.uniform(-8, -1))
        return float(1.0 - 10.0 ** rng.uniform(-9, -1))

    def sign():
        return int(rng.choice([-1, 1]))

    def axis():
        out = []
        for _ in range(rng.integers(4)):
            pos, sg = position(), sign()
            out.append((pos, sg))
            if rng.random() < 0.4:
                out.append((pos * (1.0 + sign() * 10.0 ** rng.uniform(-9, -2)), -sg))
        return tuple(out)

    n, eps = int(rng.choice([-3, -1, 1, 3, 5])), sign()
    orientation = "anticonformal" if rng.random() < 0.5 else "conformal"
    real, imag, comp = axis(), axis(), []
    for _ in range(rng.integers(3)):
        th = rng.uniform(0.05, 0.5 * math.pi - 0.05)
        ray = complex(math.cos(th), math.sin(th))
        m, sg = position(), sign()
        comp += [(m * ray, sg), (m * (1.0 + sign() * 10.0 ** rng.uniform(-7, -2)) * ray, -sg)]
    try:
        return RationalMapSpec(eps, n, real, imag, tuple(comp), orientation)
    except InvalidSpecError:
        return None


def random_prism(rng, lo=0.5, hi=4.0):
    d = np.sort(rng.uniform(lo, hi, size=3))[::-1]
    return make_prism(float(d[0]), float(d[1]), float(d[2]))


def reference_parts(spec, w):
    """Projective parts (P, Q, dP, dQ) by the w-form push loop the kernel
    used before it accumulated in zeta = w^2: each factor pushes its
    numerator, denominator and their w-derivatives onto P, Q, dP, dQ."""
    w = np.asarray(w, dtype=complex)
    if spec.is_anticonformal:
        # asarray keeps a 0-d input an array: numpy scalars round differently
        w = np.asarray(np.conj(w))
    na = abs(spec.n)
    if spec.n > 0:
        P = spec.epsilon * w**na
        dP = spec.epsilon * na * w ** (na - 1)
        Q = np.ones_like(w)
        dQ = np.zeros_like(w)
    else:
        P = spec.epsilon * np.ones_like(w)
        dP = np.zeros_like(w)
        Q = w**na
        dQ = na * w ** (na - 1)
    w2, tw = w * w, 2.0 * w

    def push(num, dnum, den, dden, sign):
        nonlocal P, Q, dP, dQ
        if sign < 0:
            num, den = den, num
            dnum, dden = dden, dnum
        dP *= num
        dP += P * dnum
        P *= num
        dQ *= den
        dQ += Q * dden
        Q *= den

    for r, sign in spec.real_factors:
        r2 = r * r
        push(w2 - r2, tw, r2 * w2 - 1.0, r2 * tw, sign)
    for s, sign in spec.imag_factors:
        s2 = s * s
        push(w2 + s2, tw, s2 * w2 + 1.0, s2 * tw, sign)
    for u, v, sign in spec.quartics:
        num = w2 * w2 - u * w2 + v
        dnum = 4.0 * w2 * w - 2.0 * u * w
        den = v * w2 * w2 - u * w2 + 1.0
        dden = 4.0 * v * w2 * w - 2.0 * u * w
        push(num, dnum, den, dden, sign)
    return P, Q, dP, dQ


def reference_area_density(spec, w):
    """Area density 4 |dp q - p dq|^2 / (|p|^2 + |q|^2)^2 of the reference
    parts over max(|P|, |Q|)."""
    P, Q, dP, dQ = reference_parts(spec, w)
    scale = np.maximum(np.abs(P), np.abs(Q))
    inv = 1.0 / scale
    p, q, dp, dq = P / scale, Q / scale, dP * inv, dQ * inv
    return 4.0 * np.abs(dp * q - p * dq) ** 2 / (np.abs(p) ** 2 + np.abs(q) ** 2) ** 2
