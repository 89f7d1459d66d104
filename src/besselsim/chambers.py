"""Weyl-chamber geometry for the type A and type B root systems.

Type A configurations are weakly decreasing coordinate vectors, type B
configurations are weakly decreasing and nonnegative.  Full-space points
carry no ordering constraint; they are the state space of the
sign-changing jump dynamics, whose reflections (single sign flip,
coordinate swap, swap with double sign flip) are implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHAMBER_A = "A"
CHAMBER_B = "B"
FULL_SPACE = "full"

_CHAMBERS = (CHAMBER_A, CHAMBER_B, FULL_SPACE)


class SingularConfigurationError(ValueError):
    """Configuration lies on a reflecting hyperplane where a drift term blows up."""


@dataclass(frozen=True, eq=False)
class ChamberPoint:
    """An N-particle configuration together with its chamber tag."""

    coords: np.ndarray
    chamber: str

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if self.chamber not in _CHAMBERS:
            raise ValueError(f"unknown chamber tag {self.chamber!r}")
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("coords must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        if self.chamber == CHAMBER_A and np.any(np.diff(coords) > 0):
            raise ValueError("type A point must be weakly decreasing")
        if self.chamber == CHAMBER_B and (
            np.any(np.diff(coords) > 0) or coords[-1] < 0
        ):
            raise ValueError("type B point must be weakly decreasing and nonnegative")

    @property
    def n(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class Reflection:
    """One of the three reflection kinds: ``flip``, ``swap``, ``sign_swap``.

    Indices are 0-based.  ``flip`` negates coordinate ``i``; ``swap``
    exchanges ``i`` and ``j``; ``sign_swap`` exchanges and negates both.
    """

    kind: str
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("flip", "swap", "sign_swap"):
            raise ValueError(f"unknown reflection kind {self.kind!r}")
        if self.kind == "flip":
            if self.j is not None:
                raise ValueError("flip takes a single index")
        else:
            if self.j is None or self.j == self.i:
                raise ValueError("pair reflections need two distinct indices")


def project_to_chamber(x, chamber: str) -> ChamberPoint:
    """Project raw coordinates onto the closed chamber.

    Type A sorts descending, type B takes absolute values and sorts
    descending, full space is the identity.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input coordinates")
    if chamber == CHAMBER_A:
        return ChamberPoint(np.sort(x)[::-1].copy(), CHAMBER_A)
    if chamber == CHAMBER_B:
        return ChamberPoint(np.sort(np.abs(x))[::-1].copy(), CHAMBER_B)
    if chamber == FULL_SPACE:
        return ChamberPoint(x.copy(), FULL_SPACE)
    raise ValueError(f"unknown chamber tag {chamber!r}")


def apply_reflection(point: ChamberPoint, r: Reflection) -> ChamberPoint:
    """Apply a reflection to a full-space point."""
    if point.chamber != FULL_SPACE:
        raise ValueError("reflections act on full-space points only")
    x = point.coords.copy()
    n = x.size
    if not (0 <= r.i < n) or (r.j is not None and not (0 <= r.j < n)):
        raise IndexError("reflection index out of range")
    if r.kind == "flip":
        x[r.i] = -x[r.i]
    elif r.kind == "swap":
        x[r.i], x[r.j] = x[r.j], x[r.i]
    else:
        x[r.i], x[r.j] = -x[r.j], -x[r.i]
    return ChamberPoint(x, FULL_SPACE)


def regularity_gap(point: ChamberPoint) -> float:
    """Distance to the nearest reflecting hyperplane of the chamber's root system.

    Zero iff the point lies on a hyperplane.  For type A this is the
    minimum pairwise coordinate difference; type B (and full space, which
    hosts the type B jump dynamics) additionally includes the pairwise
    sums and the coordinates themselves.  A single type A particle has no
    hyperplanes, so the gap is +inf by convention.
    """
    return drift_gap(point, 1.0)


def drift_gap(point: ChamberPoint, nu: float) -> float:
    """Gap relevant for the singular drift, used for step-size caps.

    Like :func:`regularity_gap`, except the distance-to-zero part only
    counts when ``nu > 0``: with ``nu == 0`` the drift has no singularity
    at the coordinate hyperplanes, and trajectories may approach them.
    """
    x = point.coords
    if point.chamber == CHAMBER_A:
        return float(np.min(np.diff(np.sort(x)))) if x.size > 1 else np.inf
    # B hyperplanes: x_i = x_j, x_i = -x_j, x_i = 0.  For arbitrary signs,
    # min over |x_i - x_j| and |x_i + x_j| equals the minimum gap between
    # sorted absolute values.
    a = np.sort(np.abs(x))
    gap = float(a[0]) if nu > 0 else np.inf
    return min(gap, float(np.min(np.diff(a)))) if a.size > 1 else gap
