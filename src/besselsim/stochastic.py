"""Monte Carlo integrators for the interacting-particle SDEs and jump dynamics.

Bessel-type paths use Euler-Maruyama with gap-adaptive sub-stepping and
exact local flows across the singular hyperplanes: any pair close enough
that an Euler increment stops tracking its mutual repulsion is advanced
by the closed-form gap flow instead (and likewise wall-adjacent type B
coordinates), which preserves each interaction's exact second-moment
production rate.  A sub-step works on raw sorted arrays and re-sorts the
state onto the chamber (type B: of absolute values); the true processes
never hit the walls, so this only corrects scheme overshoot, and the
pre-projection violation is tracked with the sub-step and flow counts.

The full-space jump dynamics of type B superpose reflection jumps on the
type B drift.  Jumps are sampled by first-event thinning: the next jump
time is exponential in the total reflection rate frozen at the window
start, and the firing reflection is drawn proportionally to its rate;
refreshing the rates at every event and at least once per dt bounds the
bias by the rate drift over a window.  At infinite inverse temperature
the absolute values of the coordinates evolve deterministically (jumps
only permute them and flip signs), so the frozen simulator integrates
that envelope with the adaptive ODE solver once per (|x0|, nu, T, dt),
reuses it across seeds and replicas, and overlays the jumps, keeping
even power sums bit-identical across seeds.  At finite beta,
operator splitting (drift, diffusion, jumps) is used.

All randomness flows through numpy Generators derived from (seed,
replica) pairs, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chambers import (
    CHAMBER_A,
    CHAMBER_B,
    FULL_SPACE,
    ChamberPoint,
    Reflection,
    apply_reflection,
    project_to_chamber,
)
from .frozen import IntegrationError, drift_a, drift_b, solve_frozen

# Pairs closer than this to a reflecting hyperplane are excluded from jump
# thinning: their rates are unbounded but the reflections displace the state
# by less than the threshold, so they are near-identities.
_JUMP_EXCLUSION = 1e-8

# Work counters of an Euler-Maruyama path, summed over transform-mode segments.
_EM_COUNTERS = ("substeps", "floor_substeps", "pair_flows", "wall_flows", "clipped")
# Drift corrections of a hot pair (i, j), interleaved as (i, j): -1/u and +1/u.
_PAIR_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class RngStream:
    """Reproducible, independent stream identified by (seed, replica)."""

    seed: int
    replica: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.replica,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class MultiplicityA:
    k: float  # in [1/2, inf]

    def __post_init__(self):
        if not (self.k >= 0.5):
            raise ValueError("regular case requires k >= 1/2")


@dataclass(frozen=True)
class MultiplicityB:
    nu: float
    beta: float  # in [1/2, inf]; beta = inf marks frozen dynamics

    def __post_init__(self):
        if math.isinf(self.beta):
            if self.nu < 0:
                raise ValueError("nu must be nonnegative")
            return
        if not (self.beta >= 0.5 and self.nu * self.beta >= 0.5):
            raise ValueError("regular case requires beta >= 1/2 and nu*beta >= 1/2")


@dataclass
class PathSample:
    chamber: str
    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, N)
    seed: int
    replica: int
    jump_log: list = field(default_factory=list)  # [(time, Reflection)]
    diagnostics: dict = field(default_factory=dict)

    def point(self, idx: int) -> ChamberPoint:
        return ChamberPoint(self.states[idx].copy(), self.chamber)


def _record_grid(T: float, dt: float) -> np.ndarray:
    if T < 0 or dt <= 0:
        raise ValueError("need T >= 0 and dt > 0")
    if T == 0:
        return np.array([0.0])
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def _gaps(x, wall):
    """Adjacent gaps of a sorted state and the step gap (wall included when active)."""
    d = x[:-1] - x[1:]
    g = float(d.min()) if d.size else math.inf
    if wall:
        g = min(g, float(x[-1]))
    return d, g


def _tamed_increment(drift_vec, h, cap):
    """Drift displacement h*b, hard-clipped coordinatewise at cap.

    The identity below the cap (a smooth 1/(1+r) taming would visibly
    distort the drift at large N); it engages only on explosion-scale
    outliers that the exact local flows did not cover.
    """
    disp = h * drift_vec
    return np.clip(disp, -cap, cap)


def _em_path(x0, drift, sigma, chamber, T, dt, rng, gap_scale, nu=0.0):
    """Euler-Maruyama with exact local flows across the singular hyperplanes.

    Sub-steps obey h <= gap^2 * gap_scale with a floor of dt/8, where the
    gap is the smallest adjacent gap (and, for type B with nu > 0, the
    distance to the wall).  Every pair closer than 4 sqrt(h) (the scale
    where an Euler increment stops tracking the singular repulsion) has
    its mutual flow du = 2/u dt applied exactly as u' = sqrt(u^2 + 4h),
    tightest pair first; a type B coordinate inside 4 sqrt(nu h) of the
    wall gets the exact wall flow x' = sqrt(x^2 + 2 nu h).  These maps
    preserve each interaction term's exact second-moment production, they
    bound the remaining Euler drift by sqrt(h)/4 per interaction, and
    their deterministic gap expansion (u' >= 2 sqrt(h)) keeps the step
    controller away from a collapse trap.  Coordinatewise taming remains
    as a pure explosion guard and is inactive in all regular regimes.

    Each sub-step works on raw sorted arrays: one pass of adjacent gaps
    gives the step gap and the taming cap, and the state re-sorts onto the
    chamber afterwards.  Diagnostics: worst pre-projection violation, the
    smallest step gap, and counts of sub-steps, floor-limited sub-steps,
    pair and wall flows, and clipped drift coordinates.
    """
    times = _record_grid(T, dt)
    x, n = x0, x0.size  # never written in place: each sub-step makes a new array
    states = np.empty((times.size, n))
    states[0] = x
    wall = chamber == CHAMBER_B and nu > 0
    h_floor = dt / 8.0
    max_violation = 0.0
    min_gap = _gaps(x, wall)[1]
    count = dict.fromkeys(_EM_COUNTERS, 0)
    for idx in range(1, times.size):
        t, t_target = times[idx - 1], times[idx]
        while t_target - t > 1e-12 * max(1.0, T):
            d, g = _gaps(x, wall)
            min_gap = min(min_gap, g)
            h_gap = g * g * gap_scale
            h = min(dt, t_target - t, max(h_gap, h_floor))
            if h <= 0.0 or t + h == t:
                raise IntegrationError("step size underflow", t, h)
            count["substeps"] += 1
            count["floor_substeps"] += int(h_gap < h_floor)
            noise_scale = sigma * math.sqrt(h)
            root_h = math.sqrt(h)
            b = drift(x)
            # A sorted type B state is inside the wall layer on a suffix.
            n_wall = int(np.count_nonzero(x < 4.0 * math.sqrt(nu * h))) if wall else 0
            if n_wall:
                b[-n_wall:] -= nu / x[-n_wall:]
            # Hot pairs (i, i + k) by offset k: spans grow with k in a sorted state.
            thr = 4.0 * root_h
            hot = []
            s, k = d, 1
            while (i := (s < thr).nonzero()[0]).size:
                hot.append((s[i], i, i + k))
                k += 1
                s = x[:-k] - x[k:]
            ends = []
            if hot:
                spans, hot_i, hot_j = map(np.concatenate, zip(*hot))
                order = np.lexsort((hot_j, hot_i, spans))  # tightest first, then by (i, j)
                inv = 1.0 / spans[order]
                ij = np.empty(2 * order.size, dtype=np.intp)
                ij[0::2] = hot_i[order]
                ij[1::2] = hot_j[order]
                np.add.at(b, ij, (inv[:, None] * _PAIR_SIGNS).ravel())
                ends = ij.tolist()
            # The cap is at least cap0 everywhere, so below cap0 nothing clips.
            disp = h * b
            cap0 = max(16.0 * noise_scale, 4.0 * root_h)
            if np.abs(disp).max() > cap0:
                near = np.full(n, np.inf)
                near[1:] = d
                near[:-1] = np.minimum(near[:-1], d)
                inc = _tamed_increment(b, h, np.maximum(cap0, 0.5 * near))
                count["clipped"] += int(np.count_nonzero(inc != disp))
                disp = inc
            x_raw = x + disp
            if ends or n_wall:
                # Sequential on Python floats: overlapping pairs share particles,
                # and the wall flow keeps the float power of the scalar loop.
                xl = x_raw.tolist()
                h4 = 4.0 * h
                for a, c in zip(ends[0::2], ends[1::2]):
                    mid = 0.5 * (xl[a] + xl[c])
                    u = xl[a] - xl[c]
                    u_new = math.sqrt(u * u + h4)
                    xl[a] = mid + 0.5 * u_new
                    xl[c] = mid - 0.5 * u_new
                for a in range(n - n_wall, n):
                    xl[a] = math.sqrt(max(xl[a], 0.0) ** 2 + 2.0 * nu * h)
                x_raw = np.array(xl)
                count["pair_flows"] += len(ends) // 2
                count["wall_flows"] += n_wall
            if sigma > 0:
                x_raw += noise_scale * rng.standard_normal(n)
            y = x_raw if chamber == CHAMBER_A else np.abs(x_raw)
            viol = float((y[1:] - y[:-1]).max(initial=0.0))
            if chamber == CHAMBER_B:
                viol = max(viol, float(max(0.0, -x_raw.min())))
            max_violation = max(max_violation, viol)
            if not np.isfinite(y).all():
                raise ValueError("non-finite input coordinates")
            x = np.sort(y)[::-1]
            t += h
        states[idx] = x
    return times, states, {"max_violation": max_violation, "min_gap": min_gap, **count}


def _frozen_as_path(system, x0, T, dt, stream, nu=None):
    grid = _record_grid(T, dt)
    traj = solve_frozen(system, x0, grid, nu=nu)
    return PathSample(
        traj.chamber,
        traj.times,
        traj.states,
        stream.seed,
        stream.replica,
        diagnostics={"frozen": True, "min_gap": traj.min_gap},
    )


def simulate_bessel_a(x0, k: float, T: float, dt: float, stream: RngStream) -> PathSample:
    """Renormalized type A path: dX_i = dB_i/sqrt(k) + sum_j 1/(X_i - X_j) dt."""
    k = k.k if isinstance(k, MultiplicityA) else float(k)
    MultiplicityA(k)
    if math.isinf(k):
        return _frozen_as_path("a", x0, T, dt, stream)
    return _em_sample(x0, drift_a, CHAMBER_A, T, dt, stream, k)


def simulate_bessel_b(x0, nu: float, beta: float, T: float, dt: float, stream: RngStream) -> PathSample:
    """Renormalized type B path with drift sum_j 2 X_i/(X_i^2 - X_j^2) + nu/X_i (``drift_b``)."""
    if isinstance(nu, MultiplicityB):
        nu, beta = nu.nu, nu.beta
    MultiplicityB(nu, beta)
    if math.isinf(beta):
        return _frozen_as_path("b", x0, T, dt, stream, nu=nu)
    return _em_sample(x0, lambda y: drift_b(y, nu), CHAMBER_B, T, dt, stream, beta, nu)


def _em_sample(x0, drift, chamber, T, dt, stream, coupling, nu=0.0):
    """Seeded Euler-Maruyama path at coupling k (type A) or beta (type B)."""
    x_start = _em_start(x0, chamber, nu, dt)
    times, states, diag = _em_path(
        x_start, drift, 1.0 / math.sqrt(coupling), chamber, T, dt, stream.generator(),
        min(1.0, coupling), nu,
    )
    return PathSample(chamber, times, states, stream.seed, stream.replica, diagnostics=diag)


def _em_start(x0, chamber, nu, dt):
    """Project the start and split boundary clusters at the dt scale.

    The scheme's pathwise error is O(sqrt(dt)) anyway, so the bootstrap
    horizon for stochastic runs is tied to dt rather than the much smaller
    deterministic default.
    """
    from .frozen import _bootstrap_start

    point = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, chamber)
    delta = min(dt, 1e-3)
    _, x = _bootstrap_start(point.coords.copy(), chamber, nu, delta)
    return x


def simulate_bessel_ou(
    x0,
    k: float,
    lam: float,
    T: float,
    dt: float,
    stream: RngStream,
    mode: str = "direct",
) -> PathSample:
    """Type A path with extra mean-reverting drift -lam * x.

    ``mode="direct"`` runs Euler-Maruyama on the drifted SDE;
    ``mode="transform"`` simulates the lam = 0 process and applies the exact
    space-time transform X_ou(t) = exp(-lam t) X((exp(2 lam t) - 1)/(2 lam)).
    With lam = 0 both modes reproduce simulate_bessel_a exactly.
    """
    k = k.k if isinstance(k, MultiplicityA) else float(k)
    MultiplicityA(k)
    if mode not in ("direct", "transform"):
        raise ValueError("mode must be 'direct' or 'transform'")
    if math.isinf(k):
        grid = _record_grid(T, dt)
        from .frozen import ou_transform_frozen

        point = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, CHAMBER_A)
        states = np.empty((grid.size, point.n))
        for i, t in enumerate(grid):
            states[i] = ou_transform_frozen(point, lam, float(t)).coords
        return PathSample(
            CHAMBER_A, grid, states, stream.seed, stream.replica, diagnostics={"frozen": True}
        )
    if mode == "direct" or lam == 0.0:
        return _em_sample(x0, lambda y: drift_a(y) - lam * y, CHAMBER_A, T, dt, stream, k)
    # transform mode: record the lam = 0 path on the warped grid.
    grid = _record_grid(T, dt)
    warped = (np.expm1(2.0 * lam * grid) / (2.0 * lam)) if lam != 0 else grid
    x_start = _em_start(x0, CHAMBER_A, 0.0, dt)
    rng = stream.generator()
    states = np.empty((grid.size, x_start.size))
    x = x_start.copy()
    states[0] = x
    diag_all = {"max_violation": 0.0, "min_gap": np.inf} | dict.fromkeys(_EM_COUNTERS, 0)
    for i in range(1, grid.size):
        span = warped[i] - warped[i - 1]
        _, seg, diag = _em_path(
            x, drift_a, 1.0 / math.sqrt(k), CHAMBER_A, span, span, rng, min(1.0, k)
        )
        x = seg[-1]
        states[i] = math.exp(-lam * grid[i]) * x
        diag_all["max_violation"] = max(diag_all["max_violation"], diag["max_violation"])
        diag_all["min_gap"] = min(diag_all["min_gap"], diag["min_gap"])
        for key in _EM_COUNTERS:
            diag_all[key] += diag[key]
    return PathSample(CHAMBER_A, grid, states, stream.seed, stream.replica, diagnostics=diag_all)


def dunkl_jump_rates(x, nu: float, include_swaps: bool = True):
    """Reflection rates at a full-space point x.

    Sign flip of coordinate i fires at nu/(2 x_i^2); the swap of (i, j) at
    1/(x_i - x_j)^2 and the sign-swap at 1/(x_i + x_j)^2 (each unordered
    pair aggregates its two ordered generator terms).
    """
    x = np.asarray(getattr(x, "coords", x), dtype=float)
    if np.any(x == 0.0) and nu > 0:
        raise ValueError("zero coordinate: flip rate undefined")
    n = x.size
    rates = []
    if nu > 0:
        for i in range(n):
            rates.append((Reflection("flip", i), nu / (2.0 * x[i] ** 2)))
    for i in range(n):
        for j in range(i + 1, n):
            if include_swaps:
                d = x[i] - x[j]
                if d == 0.0:
                    raise ValueError("coincident coordinates: swap rate undefined")
                rates.append((Reflection("swap", i, j), 1.0 / d**2))
            s = x[i] + x[j]
            if s == 0.0:
                raise ValueError("opposite coordinates: sign-swap rate undefined")
            rates.append((Reflection("sign_swap", i, j), 1.0 / s**2))
    return rates


@functools.lru_cache(maxsize=8)
def _pairs(n):
    """Read-only upper-triangle index arrays (i < j) for n coordinates."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _jump_blocks(v, nu, skip_swaps):
    """Rate blocks at the signed state v: [(kind, rates), ...].

    Pair rates are indexed by the cached upper-triangle order; reflections
    within the exclusion threshold of their hyperplane get rate 0 (they
    are near-identities with unbounded rates).
    """
    n = v.size
    iu, ju = _pairs(n)
    blocks = []
    if nu > 0:
        blocks.append(("flip", nu / (2.0 * v * v)))
    blocks.append(("sign_swap", _excluded_inverse_square(v[iu] + v[ju])))
    if not skip_swaps:
        blocks.append(("swap", _excluded_inverse_square(v[iu] - v[ju])))
    return blocks


def _excluded_inverse_square(a):
    """1/a^2, and 0 where |a| is within the exclusion threshold (never divided)."""
    sq = a * a
    return np.divide(1.0, sq, out=np.zeros_like(sq), where=np.abs(a) > _JUMP_EXCLUSION)


def _next_jump(v, nu, skip_swaps, rng, window):
    """First-event thinning over [0, window] with rates frozen at v.

    Returns (tau, reflection or None): the elapsed time and the reflection
    firing at tau, or None if nothing fires within the window.  With the
    rates held at their window-start values this is exact, so no
    per-window jump-probability cap is needed; the window itself bounds
    the rate-freshness error.
    """
    blocks = _jump_blocks(v, nu, skip_swaps)
    totals = [float(r.sum()) for _, r in blocks]
    grand = sum(totals)
    if grand <= 0.0:
        return window, None
    tau = rng.standard_exponential() / grand
    if tau >= window:
        return window, None
    target = rng.random() * grand
    for (kind, rates), tot in zip(blocks, totals):
        if target >= tot:
            target -= tot
            continue
        pick = int(np.searchsorted(np.cumsum(rates), target, side="right"))
        pick = min(pick, rates.size - 1)
        if kind == "flip":
            return tau, Reflection("flip", pick)
        iu, ju = _pairs(v.size)
        return tau, Reflection(kind, int(iu[pick]), int(ju[pick]))
    raise AssertionError("unreachable jump category")


@functools.lru_cache(maxsize=1)
def _dunkl_envelope(mags: bytes, nu: float, grid: bytes):
    """Frozen type B flow of the sorted magnitudes ``mags`` over ``grid``.

    Keyed on the exact float64 bytes of both arrays, so any change to an
    input is a miss.  Every caller loops over replicas with one start, so
    one entry suffices; the states are read-only because hits share them.
    """
    env = solve_frozen("b", np.frombuffer(mags), np.frombuffer(grid), nu=nu)
    env.states.flags.writeable = False
    return env


def simulate_dunkl_b(
    x0,
    nu: float,
    beta: float,
    T: float,
    dt: float,
    stream: RngStream,
    skip_swaps: bool = True,
) -> PathSample:
    """Full-space type B jump dynamics.

    For beta = inf the coordinate magnitudes follow the frozen type B flow
    exactly while the jumps act on signs and labels, so even power sums
    are deterministic.  The envelope is solved once and reused by every
    seed and replica with the same (|x0|, nu, T, dt): the last solve is
    memoised on the exact bytes of the sorted magnitudes and the envelope
    time grid, plus nu, and its RK step counts are reported as
    ``rk_accepted`` and ``rk_rejected`` on hits and misses alike.
    Finite beta uses operator splitting: Euler drift, diffusion with scale
    1/sqrt(beta), then thinned jumps.
    """
    if isinstance(nu, MultiplicityB):
        nu, beta = nu.nu, nu.beta
    MultiplicityB(nu, beta)
    x0 = np.asarray(getattr(x0, "coords", x0), dtype=float)
    rng = stream.generator()
    times = _record_grid(T, dt)
    jump_log = []

    if math.isinf(beta):
        if nu > 0 and np.any(x0 == 0.0):
            raise ValueError(
                "frozen dunkl-b with nu > 0 needs a start without zero coordinates: "
                "the flip rate nu/(2x^2) is infinite at t = 0"
            )
        # Deterministic envelope of |coordinates| on a grid fine enough for
        # linear interpolation of the jump rates.
        n_fine = max(times.size - 1, min(4096, max(256, int(round(T / dt)))))
        fine = np.linspace(0.0, T, n_fine + 1)
        env_grid = np.union1d(times, fine)
        order = np.argsort(np.abs(x0))[::-1]
        slots_of_label = np.empty(x0.size, dtype=int)
        slots_of_label[order] = np.arange(x0.size)
        env = _dunkl_envelope(np.abs(x0)[order].tobytes(), float(nu), env_grid.tobytes())
        signs = np.where(x0 < 0, -1.0, 1.0)

        def env_at(t):
            i = np.searchsorted(env_grid, t)
            if i == 0:
                return env.states[0]
            if i >= env_grid.size:
                return env.states[-1]
            t0, t1 = env_grid[i - 1], env_grid[i]
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return (1.0 - w) * env.states[i - 1] + w * env.states[i]

        states = np.empty((times.size, x0.size))
        states[0] = signs * env.states[np.searchsorted(env_grid, 0.0)][slots_of_label]
        t = 0.0
        for idx in range(1, times.size):
            t_target = times[idx]
            while t_target - t > 1e-12 * max(1.0, T):
                rho = env_at(t)
                v = signs * rho[slots_of_label]
                h, refl = _next_jump(v, nu, skip_swaps, rng, min(dt, t_target - t))
                if refl is not None:
                    _apply_to_overlay(signs, slots_of_label, refl)
                    jump_log.append((t + h, refl))
                t += h
            rho = env.states[np.searchsorted(env_grid, t_target)]
            states[idx] = signs * rho[slots_of_label]
        return PathSample(
            FULL_SPACE,
            times,
            states,
            stream.seed,
            stream.replica,
            jump_log=jump_log,
            diagnostics={
                "frozen": True,
                "min_gap": env.min_gap,
                "rk_accepted": env.n_accepted,
                "rk_rejected": env.n_rejected,
            },
        )

    # Finite beta: operator splitting with Euler drift and diffusion legs.
    x = x0.copy()
    if np.any(x == 0.0) or np.any(np.diff(np.sort(np.abs(x))) == 0.0):
        from .frozen import _bootstrap_start

        srt = np.argsort(np.abs(x))[::-1]
        _, mags = _bootstrap_start(np.abs(x)[srt], CHAMBER_B, nu, min(dt, 1e-3))
        x = np.where(x[srt] < 0, -mags, mags)[np.argsort(srt)]
    sigma = 1.0 / math.sqrt(beta)
    states = np.empty((times.size, x.size))
    states[0] = x
    t = 0.0
    for idx in range(1, times.size):
        t_target = times[idx]
        while t_target - t > 1e-12 * max(1.0, T):
            a = np.sort(np.abs(x))
            g = float(a[0]) if nu > 0 else np.inf
            if a.size > 1:
                g = min(g, float(np.min(np.diff(a))))
            h_cap = min(dt, t_target - t, max(0.25 * g * g * min(1.0, beta), 1e-3 * dt))
            if h_cap <= 0.0 or t + h_cap == t:
                raise IntegrationError("step size underflow", t, h_cap)
            h, refl = _next_jump(x, nu, skip_swaps, rng, h_cap)
            noise = sigma * math.sqrt(h)
            cap = max(4.0 * noise, 0.5 * g) if g > 0 else 4.0 * noise
            x = x + _tamed_increment(drift_b(x, nu), h, cap) + noise * rng.standard_normal(x.size)
            if refl is not None:
                x = apply_reflection(ChamberPoint(x, FULL_SPACE), refl).coords
                jump_log.append((t + h, refl))
            t += h
        states[idx] = x
    return PathSample(
        FULL_SPACE,
        times,
        states,
        stream.seed,
        stream.replica,
        jump_log=jump_log,
        diagnostics={},
    )


def _apply_to_overlay(signs, slots, refl: Reflection):
    """Apply a reflection to the (sign, envelope slot) overlay in place."""
    if refl.kind == "flip":
        signs[refl.i] = -signs[refl.i]
        return
    i, j = refl.i, refl.j
    slots[i], slots[j] = slots[j], slots[i]
    if refl.kind == "swap":
        signs[i], signs[j] = signs[j], signs[i]
    else:
        signs[i], signs[j] = -signs[j], -signs[i]
