"""Deterministic integrators for the frozen interacting-particle ODEs.

Type A particles obey dx_i/dt = sum_{j != i} 1/(x_i - x_j); type B
particles obey dx_i/dt = sum_{j != i} 2 x_i/(x_i^2 - x_j^2) + nu/x_i.
Both drifts are singular on the chamber walls, so the integrator is an
embedded Dormand-Prince pair with the step additionally capped by the
squared hyperplane gap.  It steps on its own controller to the last output
time and fills the output times between step ends from the pair's
continuous extension, so the output grid does not set the cost.  Boundary
or coincident starts are bootstrapped with the exact self-similar zero
profiles over a short initial interval.

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
    pair_sums,
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


def _check_nu(nu):
    """Refuse a type B multiplicity nu that is not finite and >= 0 (NaN fails every comparison)."""
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")


def drift_a(x) -> np.ndarray:
    """Type A drift: component i is sum_{j != i} 1/(x_i - x_j)."""
    return pair_sums(1.0, x)


def drift_b(x, nu: float) -> np.ndarray:
    """Type B drift: component i is sum_{j != i} 2 x_i/(x_i^2 - x_j^2) + nu/x_i.

    Valid for coordinates of either sign (the full-space jump dynamics
    reuse it); the nu/x term is only formed when nu > 0.
    """
    x = np.asarray(x, dtype=float)
    _check_nu(nu)
    out = pair_sums(2.0 * x, x * x)
    if nu > 0:
        if np.any(x == 0.0):
            raise SingularConfigurationError("zero coordinate in type B drift with nu > 0")
        out = out + nu / x
    return out


# Dormand-Prince 5(4) tableau.  The last row of _DP_A is the 5th-order
# solution, so the 7th stage is evaluated at x5 and its slope opens the next
# step (FSAL: six right-hand sides per attempted step).  _DP_E weighs the
# stages into the error estimate x5 - x4.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# 4th-order continuous extension (Shampine, Math. Comp. 46, 1986): the state
# at t + theta*h is x + h * (_DP_DENSE @ theta**[1, 2, 3, 4]) @ k.
_DP_DENSE = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_POWERS = np.arange(1, 5)


def _order_ok(x, chamber):
    """Whether ``x`` is finite, descending and, in chamber B, nonnegative."""
    if not np.isfinite(x).all() or (x[1:] > x[:-1]).any():
        return False
    return not (chamber == CHAMBER_B and x[-1] < 0)


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
            # at nu = 0 the pattern keeps one coordinate at 0, where its drift is 0
            x[lo:hi] = profile_solution_b(m, nu, 0.0, delta).coords
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
    ``_BOOT_DELTA`` and integrated onward.  The steps depend on ``t_grid``
    only through its last entry: the entries inside an accepted step come
    from the continuous extension, an entry at its end (and the last one)
    takes the 5th-order state, and an entry outside the open chamber
    rejects the step as a failing stage does.
    """
    if system not in ("a", "b"):
        raise ValueError("system must be 'a' or 'b'")
    chamber = CHAMBER_A if system == "a" else CHAMBER_B
    if system == "b":
        if nu is None:
            raise ValueError("type B requires nu >= 0")
        _check_nu(nu)
        nu_val = float(nu)
    else:
        nu_val = 0.0

    point0 = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, chamber)
    if point0.chamber != chamber:
        raise ValueError("start point chamber does not match system")
    x_init = point0.coords.copy()

    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or not np.isfinite(t_grid).all() or np.any(np.diff(t_grid) < 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be nonnegative, nondecreasing and finite")

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

    t_end = float(t_grid[-1])
    gap = _gaps(x, wall)[1]
    traj.min_gap = gap
    dt = min(1e-3 * (1.0 + t_end - t), _GAP_SAFETY * gap * gap)
    grow = 5.0
    k = np.empty((7, x.size))
    k[0] = rhs(x)
    while t_end - t > 1e-12 * max(1.0, t_end):
        if traj.n_accepted + traj.n_rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t, dt)
        h = min(dt, t_end - t, _GAP_SAFETY * gap * gap)
        if h <= 0.0 or t + h == t:
            raise IntegrationError("step size underflow", t, h)
        t_new = t_end if h == t_end - t else t + h
        # err stays inf when a stage, x5 (the last stage) or a node fails.
        err = math.inf
        try:
            for s in range(1, 7):
                ys = x + h * (_DP_A[s] @ k[:s])
                if not _order_ok(ys, chamber):
                    break
                k[s] = rhs(ys)
            else:
                scale = _ATOL + _RTOL * np.maximum(np.abs(x), np.abs(ys))
                err = math.sqrt(float(np.mean((h * (_DP_E @ k) / scale) ** 2)))
        except SingularConfigurationError:
            pass
        if err <= 1.0:
            # Nodes inside (t, t_new) from the continuous extension, one at
            # a time so that a node's value does not depend on its
            # neighbours; nodes at t_new take x5 itself.
            past_new = int(np.searchsorted(t_grid, t_new, side="right"))
            nodes = t_grid[out_idx:past_new]
            theta = (nodes[nodes < t_new] - t) / h
            dense = [x + h * ((_DP_DENSE @ th**_POWERS) @ k) for th in theta]
            if not all(_order_ok(y, chamber) for y in dense):
                err = math.inf
        if err <= 1.0:
            for i, y in enumerate(dense, out_idx):
                states[i] = y
            states[out_idx + len(dense) : past_new] = ys
            out_idx = past_new
            t, x = t_new, ys
            k[0] = k[6]
            gap = _gaps(x, wall)[1]
            traj.min_gap = min(traj.min_gap, gap)
            traj.n_accepted += 1
            dt = h * min(grow, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
            grow = 5.0
        else:
            # Never grow the step right after a rejection.
            traj.n_rejected += 1
            dt = h * (0.5 if err == math.inf else max(0.2, 0.9 * err**-0.2))
            grow = 1.0
    # Nodes within rounding of the end take the last state.
    states[out_idx:] = x
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
