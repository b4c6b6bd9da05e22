"""One-parameter configuration families: sweeps and minimization.

A family is a rational-map template whose factor positions may contain the
placeholder "$s"; instantiating at a parameter value produces a concrete
map.  The built-in families are the single imaginary zero family "imag1"
(degree 3, one kink on the z face) and the eight parameter-free identity
variants generated by w -> -w, 1/w and the anticonformal reflection, which
all share one energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .conformal import RationalMapSpec
from .energy import conformal_energies, lower_bound_prism, scaled_energy, upper_bound_prism
from .errors import AccuracyError, DomainError, UnknownFamilyError
from .geometry import Prism
from .invariants import TopologicalInvariants, invariants_of
from .numerics import MinimizeResult, _search_interval, minimize_1d

__all__ = [
    "ConfigFamily",
    "SweepRow",
    "builtin_family",
    "UNWRAPPED_VARIANTS",
    "sweep_energy",
    "minimize_family",
]

_PLACEHOLDER = "$s"


@dataclass(frozen=True)
class ConfigFamily:
    """A rational-map template over one scalar parameter in (0, 1)."""

    name: str
    template: dict

    @property
    def has_parameter(self) -> bool:
        return any(
            _PLACEHOLDER in row
            for key in ("real", "imag", "complex")
            for row in self.template.get(key, [])
        )

    def instantiate(self, s: Optional[float] = None) -> RationalMapSpec:
        """Concrete map at parameter value s (omit s for a fixed family)."""
        if self.has_parameter:
            if s is None:
                raise DomainError(f"family {self.name!r} needs a parameter value")
            if not (0.0 < s < 1.0):
                raise DomainError(
                    f"parameter for family {self.name!r} must lie in (0, 1), got {s!r}"
                )
        elif s is not None:
            raise DomainError(f"family {self.name!r} takes no parameter")
        data = {}
        for key, val in self.template.items():
            if key in ("real", "imag", "complex"):
                data[key] = [
                    [s if cell == _PLACEHOLDER else cell for cell in row] for row in val
                ]
            else:
                data[key] = val
        return RationalMapSpec.from_dict(data)


_FAMILIES = {
    "imag1": ConfigFamily(
        "imag1",
        {
            "epsilon": 1,
            "n": 1,
            "real": [],
            "imag": [[_PLACEHOLDER, 1]],
            "complex": [],
            "orientation": "conformal",
        },
    ),
    # the identity map under w -> -w ("neg"), 1/w ("inv") and conj(w) ("anti")
    **{
        "unwrapped" + neg + inv + anti: ConfigFamily(
            "unwrapped" + neg + inv + anti,
            {
                "epsilon": -1 if neg else 1,
                "n": -1 if inv else 1,
                "real": [],
                "imag": [],
                "complex": [],
                "orientation": "anticonformal" if anti else "conformal",
            },
        )
        for anti in ("", "-anti")
        for inv in ("", "-inv")
        for neg in ("", "-neg")
    },
}

UNWRAPPED_VARIANTS: Tuple[str, ...] = tuple(
    name for name in _FAMILIES if name.startswith("unwrapped")
)


def builtin_family(name: str) -> ConfigFamily:
    """Look up a built-in family by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {name!r}; available: {', '.join(sorted(_FAMILIES))}"
        ) from None


@dataclass(frozen=True)
class SweepRow:
    """Energy data at one parameter value of a family sweep."""

    s: Optional[float]
    energy: float
    energy_err: float
    scaled: float
    lower: float
    upper: float
    invariants: TopologicalInvariants
    accuracy_failed: bool = False


def sweep_energy(
    family: ConfigFamily,
    prism: Prism,
    s_values: Sequence[float],
    K: float = 1.0,
    tol: float = 1e-6,
) -> List[SweepRow]:
    """Exact energy across parameter values, with bounds attached.

    The invariants do not depend on the parameter (factor counts and signs
    are fixed along a family), so they are computed once, and all the
    energies are one batched quadrature (``conformal_energies``).  A
    parameter-free family yields one row with ``s`` None.  A point whose
    quadrature fails (budget exhausted, or ``tol`` below the round-off
    floor) yields a row flagged ``accuracy_failed`` carrying the best
    estimate; the other points are unaffected.
    """
    points = [float(s) for s in s_values] if family.has_parameter else [None]
    specs = [family.instantiate(s) for s in points]
    inv = invariants_of(specs[0])
    lower = lower_bound_prism(prism, inv.omega0, K)
    upper = upper_bound_prism(prism, inv.omega0, K)
    return [
        SweepRow(
            s,
            res.value,
            res.error_estimate,
            scaled_energy(res.value, prism),
            lower,
            upper,
            inv,
            isinstance(res, AccuracyError),
        )
        for s, res in zip(points, conformal_energies(prism, specs, K, tol))
    ]


def minimize_family(
    family: ConfigFamily,
    prism: Prism,
    K: float = 1.0,
    tol: float = 1e-3,
    quad_tol: float = 1e-5,
) -> Tuple[MinimizeResult, str]:
    """Minimize the scaled energy over the family parameter and classify.

    The search runs ``minimize_1d`` on [delta, 1 - delta] with delta = 1e-3,
    so ``tol`` may not lie below its floor of about 4.4e-16 (checked first,
    for a parameter-free family too).  A minimum at the upper endpoint
    means the family is running into the factor-coalescence limit there,
    where the density concentrates along an edge: classification
    "edge-singular"; ``at_boundary`` is set only when
    the argmin is an endpoint.  Any other minimum is "smooth".
    Parameter-free families yield a single evaluation, classified "smooth".

    Every call of the objective is one batched quadrature
    (``conformal_energies``): the 101-point scan, each golden-section
    point, and the one evaluation of a parameter-free family.  A point
    whose quadrature fails counts as +inf, and its ``s`` and AccuracyError
    are listed in the result's ``failures``.  AccuracyError is raised only
    when every scan point fails (or the one evaluation of a parameter-free
    family does).
    """
    interval = (1e-3, 1.0 - 1e-3)
    _search_interval(interval, tol)
    failed = []

    def energies(points: List[Optional[float]]) -> List[float]:
        results = conformal_energies(prism, [family.instantiate(s) for s in points], K, quad_tol)
        failed.extend((s, res) for s, res in zip(points, results) if isinstance(res, AccuracyError))
        return [math.inf if isinstance(res, AccuracyError) else scaled_energy(res.value, prism)
                for res in results]

    if not family.has_parameter:
        (value,) = energies([None])
        if failed:
            raise failed[0][1]
        return MinimizeResult(math.nan, value, False, (math.nan, math.nan)), "smooth"

    result = minimize_1d(lambda grid: energies(grid.tolist()), interval, tol=tol)
    if result.min_value == math.inf:
        s, first = failed[0]
        raise AccuracyError(
            f"all {len(failed)} scan points failed; at s={s!r}: {first}",
            first.value,
            first.error_estimate,
            first.evaluations,
        )
    result = replace(result, failures=tuple(failed))
    return result, ("edge-singular" if result.argmin == interval[1] else "smooth")
