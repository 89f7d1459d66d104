"""Deterministic integrators for the frozen interacting-particle ODEs.

Type A particles obey dx_i/dt = sum_{j != i} 1/(x_i - x_j); type B
particles obey dx_i/dt = sum_{j != i} 2 x_i/(x_i^2 - x_j^2) + nu/x_i.
Both drifts are singular on the chamber walls, so the integrator is an
embedded Dormand-Prince pair with the step additionally capped by the
squared hyperplane gap.  Boundary or coincident starts are bootstrapped
with the exact self-similar zero profiles over a short initial interval.

The mean-reverting variant (extra -lambda*x drift) is obtained from the
plain type A flow by an exact space-time transformation rather than a
separate integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chambers import (
    CHAMBER_A,
    CHAMBER_B,
    ChamberPoint,
    SingularConfigurationError,
    _gaps,
    project_to_chamber,
)
from .zeros import profile_solution_a, profile_solution_b


# Dormand-Prince tolerances, the step cap h <= _GAP_SAFETY * gap^2, the horizon
# of the zero-profile split of boundary starts, and the RK step budget per solve.
_RTOL = 1e-10
_ATOL = 1e-12
_GAP_SAFETY = 0.5
_BOOT_DELTA = 1e-8
_MAX_STEPS = 2_000_000


class IntegrationError(RuntimeError):
    """Step-size underflow or persistent rejection; carries diagnostics."""

    def __init__(self, message, t, dt):
        super().__init__(f"{message} at t={t:.6g}, dt={dt:.3e}")
        self.t = t
        self.dt = dt


@dataclass
class FrozenTrajectory:
    chamber: str
    nu: float | None
    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, N)
    n_accepted: int = 0
    n_rejected: int = 0
    min_gap: float = np.inf

    def point(self, idx: int) -> ChamberPoint:
        return ChamberPoint(self.states[idx].copy(), self.chamber)


def drift_a(x) -> np.ndarray:
    """Type A drift: component i is sum_{j != i} 1/(x_i - x_j)."""
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return np.zeros(1)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    if np.any(d == 0.0):
        raise SingularConfigurationError("coincident coordinates in type A drift")
    return (1.0 / d).sum(axis=1)


def drift_b(x, nu: float) -> np.ndarray:
    """Type B drift: component i is sum_{j != i} 2 x_i/(x_i^2 - x_j^2) + nu/x_i.

    Valid for coordinates of either sign (the full-space jump dynamics
    reuse it); the nu/x term is only formed when nu > 0.
    """
    x = np.asarray(x, dtype=float)
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    sq = x * x
    out = np.zeros_like(x)
    if x.size > 1:
        d = sq[:, None] - sq[None, :]
        np.fill_diagonal(d, np.inf)
        if np.any(d == 0.0):
            raise SingularConfigurationError("coincident squared coordinates in type B drift")
        out = (2.0 * x[:, None] / d).sum(axis=1)
    if nu > 0:
        if np.any(x == 0.0):
            raise SingularConfigurationError("zero coordinate in type B drift with nu > 0")
        out = out + nu / x
    return out


# Dormand-Prince 5(4) tableau.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _order_ok(x, chamber):
    if np.any(np.diff(x) > 0):
        return False
    if chamber == CHAMBER_B and x[-1] < 0:
        return False
    return True


def _bootstrap_start(x0: np.ndarray, chamber: str, nu: float, delta: float):
    """Split coincident clusters by local zero profiles at time delta.

    Returns (needs_bootstrap, state at t=delta).  Interior clusters of
    either type split by the local Hermite pattern scaled by sqrt(2 delta);
    a type B cluster at zero splits by sqrt(2 delta) * sqrt(Laguerre zeros),
    which for a full zero start is the exact solution.  Both patterns are
    the zero profiles ``profile_solution_a/b`` with c = 0 at t = delta.
    """
    x = x0.copy()
    n = x.size
    clusters = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        clusters.append((i, j + 1))
        i = j + 1
    touched = False
    for lo, hi in clusters:
        m = hi - lo
        at_zero = chamber == CHAMBER_B and x[lo] == 0.0
        if m == 1 and not (at_zero and nu > 0):
            continue
        touched = True
        if at_zero:
            # nu = 0 keeps no wall repulsion; split by the vanishing-nu
            # Laguerre pattern, which is strictly interior for t > 0.
            nu_loc = nu if nu > 0 else m * 1e-6
            x[lo:hi] = profile_solution_b(m, nu_loc, 0.0, delta).coords
        else:
            x[lo:hi] = x[lo] + profile_solution_a(m, 0.0, delta).coords
    if touched and not _order_ok(x, chamber):
        raise IntegrationError("bootstrap clusters overlap; reduce delta", 0.0, delta)
    return touched, x


def solve_frozen(
    system: str,
    x0,
    t_grid,
    nu: float | None = None,
) -> FrozenTrajectory:
    """Integrate the frozen ODE of type ``"a"`` or ``"b"`` over ``t_grid``.

    ``x0`` may lie on the chamber boundary (including the origin); such
    starts are bootstrapped by the exact zero-profile split up to
    ``_BOOT_DELTA`` and integrated onward.  Output states land exactly on
    ``t_grid``.
    """
    if system not in ("a", "b"):
        raise ValueError("system must be 'a' or 'b'")
    chamber = CHAMBER_A if system == "a" else CHAMBER_B
    if system == "b":
        if nu is None or nu < 0:
            raise ValueError("type B requires nu >= 0")
        nu_val = float(nu)
    else:
        nu_val = 0.0

    point0 = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, chamber)
    if point0.chamber != chamber:
        raise ValueError("start point chamber does not match system")
    x_init = point0.coords.copy()

    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or np.any(np.diff(t_grid) < 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be nonnegative and nondecreasing")

    rhs = (lambda y: drift_a(y)) if system == "a" else (lambda y: drift_b(y, nu_val))

    boot, x_boot = _bootstrap_start(x_init, chamber, nu_val, _BOOT_DELTA)
    t = _BOOT_DELTA if boot else 0.0
    x = x_boot if boot else x_init.copy()

    states = np.empty((t_grid.size, x.size))
    traj = FrozenTrajectory(chamber, nu if system == "b" else None, t_grid.copy(), states)

    wall = chamber == CHAMBER_B and nu_val > 0
    # Outputs at or before the bootstrap horizon come from the bootstrap
    # profile itself (exact for a full zero start, O(sqrt(delta)) otherwise).
    out_idx = 0
    while out_idx < t_grid.size and t_grid[out_idx] <= t:
        if boot and t_grid[out_idx] > 0:
            _, y = _bootstrap_start(x_init, chamber, nu_val, float(t_grid[out_idx]))
            states[out_idx] = y
        else:
            states[out_idx] = x_init
        out_idx += 1
    if out_idx == t_grid.size:
        traj.min_gap = _gaps(x, wall)[1]
        return traj

    gap = _gaps(x, wall)[1]
    traj.min_gap = gap
    dt = min(1e-3 * (1.0 + t_grid[-1] - t), _GAP_SAFETY * gap * gap)
    n_steps = 0
    k = np.empty((7, x.size))
    while out_idx < t_grid.size:
        t_target = float(t_grid[out_idx])
        while t_target - t > 1e-12 * max(1.0, t_grid[-1] if t_grid[-1] > 0 else 1.0):
            if n_steps > _MAX_STEPS:
                raise IntegrationError("step budget exhausted", t, dt)
            gap = _gaps(x, wall)[1]
            traj.min_gap = min(traj.min_gap, gap)
            h = min(dt, t_target - t, _GAP_SAFETY * gap * gap)
            if h <= 0.0 or t + h == t:
                raise IntegrationError("step size underflow", t, h)
            ok = True
            try:
                k[0] = rhs(x)
                for s in range(1, 7):
                    ys = x + h * (_DP_A[s] @ k[:s])
                    if not np.all(np.isfinite(ys)) or not _order_ok(ys, chamber):
                        ok = False
                        break
                    k[s] = rhs(ys)
            except SingularConfigurationError:
                ok = False
            if ok:
                x5 = x + h * (_DP_B5 @ k)
                x4 = x + h * (_DP_B4 @ k)
                ok = bool(np.all(np.isfinite(x5))) and _order_ok(x5, chamber)
            n_steps += 1
            if not ok:
                dt = h * 0.5
                traj.n_rejected += 1
                continue
            scale = _ATOL + _RTOL * np.maximum(np.abs(x), np.abs(x5))
            err = math.sqrt(float(np.mean(((x5 - x4) / scale) ** 2)))
            if err <= 1.0:
                t += h
                x = x5
                traj.n_accepted += 1
            else:
                traj.n_rejected += 1
            factor = 0.9 * max(err, 1e-10) ** (-0.2)
            dt = h * min(5.0, max(0.2, factor))
        states[out_idx] = x
        out_idx += 1
    traj.min_gap = min(traj.min_gap, _gaps(x, wall)[1])
    return traj


def ou_transform_frozen(x0, lam: float, t: float) -> ChamberPoint:
    """State at time t of the type A flow with extra drift -lam*x.

    Uses the exact space-time transform: the mean-reverting solution at
    time t equals the plain flow evaluated at time (1 - exp(-2 lam t))/(2 lam)
    from the start exp(-lam t) * x0.  lam = 0 reduces to the plain flow.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    point0 = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, CHAMBER_A)
    if lam == 0.0 or t == 0.0:
        grid = [0.0, t] if t > 0 else [0.0]
        return solve_frozen("a", point0, grid).point(-1)
    s = -math.expm1(-2.0 * lam * t) / (2.0 * lam)
    y0 = math.exp(-lam * t) * point0.coords
    traj = solve_frozen("a", project_to_chamber(y0, CHAMBER_A), [0.0, s])
    return traj.point(-1)
