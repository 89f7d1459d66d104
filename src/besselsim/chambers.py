"""Weyl-chamber geometry for the type A and type B root systems.

Type A configurations are weakly decreasing coordinate vectors, type B
configurations are weakly decreasing and nonnegative.  Full-space points
carry no ordering constraint; they are the state space of the
sign-changing jump dynamics, whose reflections (single sign flip,
coordinate swap, swap with double sign flip) are implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHAMBER_A = "A"
CHAMBER_B = "B"
FULL_SPACE = "full"

_CHAMBERS = (CHAMBER_A, CHAMBER_B, FULL_SPACE)

# Doubles per row block of ``pair_sums`` (1 MB).
_PAIR_BLOCK = 1 << 17


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


def _gaps(x, wall):
    """Adjacent gaps of a descending state and the step gap (wall included when active).

    The step gap of a type A state is its distance to the nearest reflecting
    hyperplane; of the descending |x| of a type B or full-space point, the
    smallest |x_i -+ x_j|, and ``wall`` adds the hyperplanes x_i = 0.
    """
    d = x[:-1] - x[1:]
    g = float(d.min()) if d.size else math.inf
    if wall:
        g = min(g, float(x[-1]))
    return d, g


def pair_sums(num, y) -> np.ndarray:
    """Row sums sum_{j != i} num_i/(y_i - y_j) for a scalar or per-row ``num``.

    The N x N pair matrix is never held whole: row blocks of at most
    ``_PAIR_BLOCK`` entries of one buffer are filled, divided and summed in
    place, so each element and each row reduction is the one a dense
    evaluation makes, while memory stays bounded.  Coincident ``y`` raise
    SingularConfigurationError; non-finite input raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n < 2:
        return out
    num = np.asarray(num, dtype=float)
    rows = min(n, max(1, _PAIR_BLOCK // n))
    buf = np.empty((rows, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, rows):
            d = buf[: min(rows, n - lo)]
            np.subtract(y[lo : lo + rows, None], y, out=d)
            d.ravel()[lo :: n + 1] = np.inf  # the block's diagonal entries (i, i)
            np.divide(num if num.ndim == 0 else num[lo : lo + rows, None], d, out=d)
            d.sum(axis=1, out=out[lo : lo + rows])
    if not (np.isfinite(out).all() and np.isfinite(y).all()):
        if not (np.isfinite(y).all() and np.isfinite(num).all()):
            raise ValueError("non-finite input to a pair sum")
        raise SingularConfigurationError("coincident coordinates in a pair sum")
    return out
