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
type B drift.  At infinite inverse temperature the absolute values of the
coordinates evolve deterministically (jumps only permute them and flip
signs), so the frozen simulator integrates that envelope with the
adaptive ODE solver once per (|x0|, nu, T, dt), reuses it across seeds
and replicas, and keeps even power sums bit-identical across seeds.  Its
jumps are sampled exactly in slot space (the envelope's sorted
magnitudes, one sign per slot and a label map) by Lewis-Shedler thinning
against rate bounds that hold over each record interval, because the
envelope is linear between its nodes; each proposal is accepted with the
exact rate of its reflection at the interpolated envelope.  At finite
beta, operator splitting (drift, diffusion, jumps) is used, with
first-event jumps whose rates are frozen at the window start and
refreshed at every event and at least once per step.

Neither sampler draws the swaps x_i <-> x_j: a swap exchanges two labels
and leaves the configuration as a set and every other rate unchanged, so
the configuration's law is exact and output columns are labels up to swaps.

All randomness flows through numpy Generators derived from (seed,
replica) pairs, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import bisect
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
    _gaps,
    apply_reflection,
    project_to_chamber,
)
from .frozen import IntegrationError, _bootstrap_start, drift_a, drift_b, solve_frozen

# Pairs closer than this to a reflecting hyperplane are excluded from jump
# thinning: their rates are unbounded but the reflections displace the state
# by less than the threshold, so they are near-identities.
_JUMP_EXCLUSION = 1e-8

# Jump counters of a frozen Dunkl path: proposals, then accepted jumps by kind.
_JUMP_COUNTERS = ("proposals", "flips", "sign_swaps")
# Relative excess of an exact jump rate over its thinning bound that is put
# down to rounding: rates and bounds come from the same envelope nodes, the
# difference bounds through a cumulative sum of gap minima.
_BOUND_ROUNDING = 1e-9

# Work counters of an Euler-Maruyama path, summed over transform-mode segments.
_EM_COUNTERS = ("substeps", "floor_substeps", "pair_flows", "wall_flows", "clipped")
# Drift corrections of a hot pair (i, j), interleaved as (i, j): -1/u and +1/u.
_PAIR_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class RngStream:
    """Reproducible, independent stream identified by (seed, replica)."""

    seed: int
    replica: int

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.replica,))
        return np.random.Generator(np.random.Philox(ss))


def _check_a(k):
    """Type A multiplicity: the regular case k in [1/2, inf]."""
    if not (k >= 0.5):
        raise ValueError("regular case requires k >= 1/2")


def _check_b(nu, beta):
    """Type B multiplicities: beta = inf (frozen) needs nu >= 0, else the regular case."""
    if math.isinf(beta):
        if nu < 0:
            raise ValueError("nu must be nonnegative")
        return
    if not (beta >= 0.5 and nu * beta >= 0.5):
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


def _record_grid(T: float, dt: float) -> np.ndarray:
    if T < 0 or dt <= 0:
        raise ValueError(f"need T >= 0 and dt > 0, got T = {T:g}, dt = {dt:g}")
    if T == 0:
        return np.array([0.0])
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def _tamed_increment(drift_vec, h, cap):
    """Drift displacement h*b, hard-clipped coordinatewise at cap.

    The identity below the cap (a smooth 1/(1+r) taming would visibly
    distort the drift at large N); it engages only on explosion-scale
    outliers that the exact local flows did not cover.
    """
    disp = h * drift_vec
    return np.clip(disp, -cap, cap)


def _em_path(x0, drift, coupling, chamber, T, dt, rng, nu=0.0):
    """Euler-Maruyama with exact local flows across the singular hyperplanes.

    The noise scale is 1/sqrt(coupling), for the coupling k (type A) or
    beta (type B).  Sub-steps obey h <= gap^2 * min(1, coupling) with a
    floor of dt/8, where the gap is the smallest adjacent gap (and, for
    type B with nu > 0, the distance to the wall).  Every pair closer
    than 4 sqrt(h) (the scale where an Euler increment stops tracking the
    singular repulsion) has its mutual flow du = 2/u dt applied exactly
    as u' = sqrt(u^2 + 4h), tightest pair first; a type B coordinate
    inside 4 sqrt(nu h) of the wall gets the exact wall flow x' = sqrt(x^2 + 2 nu h).  These maps
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
    sigma = 1.0 / math.sqrt(coupling)
    gap_scale = min(1.0, coupling)
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
    k = float(k)
    _check_a(k)
    if math.isinf(k):
        return _frozen_as_path("a", x0, T, dt, stream)
    return _em_sample(x0, drift_a, CHAMBER_A, T, dt, stream, k)


def simulate_bessel_b(x0, nu: float, beta: float, T: float, dt: float, stream: RngStream) -> PathSample:
    """Renormalized type B path with drift sum_j 2 X_i/(X_i^2 - X_j^2) + nu/X_i (``drift_b``)."""
    _check_b(nu, beta)
    if math.isinf(beta):
        return _frozen_as_path("b", x0, T, dt, stream, nu=nu)
    return _em_sample(x0, lambda y: drift_b(y, nu), CHAMBER_B, T, dt, stream, beta, nu)


def _em_sample(x0, drift, chamber, T, dt, stream, coupling, nu=0.0):
    """Seeded Euler-Maruyama path at coupling k (type A) or beta (type B)."""
    x_start = _em_start(x0, chamber, nu, dt)
    times, states, diag = _em_path(x_start, drift, coupling, chamber, T, dt, stream.generator(), nu)
    return PathSample(chamber, times, states, stream.seed, stream.replica, diagnostics=diag)


def _em_start(x0, chamber, nu, dt):
    """Project the start and split boundary clusters at the dt scale.

    The scheme's pathwise error is O(sqrt(dt)) anyway, so the bootstrap
    horizon for stochastic runs is tied to dt rather than the much smaller
    deterministic default.  A full-space start splits its magnitudes as a
    type B start and keeps its signs.
    """
    point = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, chamber)
    delta = min(dt, 1e-3)
    x = point.coords
    if chamber != FULL_SPACE:
        return _bootstrap_start(x, chamber, nu, delta)[1]
    srt = np.argsort(np.abs(x))[::-1]
    _, mags = _bootstrap_start(np.abs(x)[srt], CHAMBER_B, nu, delta)
    return np.where(x[srt] < 0, -mags, mags)[np.argsort(srt)]


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
    k = float(k)
    _check_a(k)
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
    warped = np.expm1(2.0 * lam * grid) / (2.0 * lam)
    x_start = _em_start(x0, CHAMBER_A, 0.0, dt)
    rng = stream.generator()
    states = np.empty((grid.size, x_start.size))
    x = x_start.copy()
    states[0] = x
    diag_all = {"max_violation": 0.0, "min_gap": np.inf} | dict.fromkeys(_EM_COUNTERS, 0)
    for i in range(1, grid.size):
        span = warped[i] - warped[i - 1]
        _, seg, diag = _em_path(x, drift_a, k, CHAMBER_A, span, span, rng)
        x = seg[-1]
        states[i] = math.exp(-lam * grid[i]) * x
        diag_all["max_violation"] = max(diag_all["max_violation"], diag["max_violation"])
        diag_all["min_gap"] = min(diag_all["min_gap"], diag["min_gap"])
        for key in _EM_COUNTERS:
            diag_all[key] += diag[key]
    return PathSample(CHAMBER_A, grid, states, stream.seed, stream.replica, diagnostics=diag_all)


@functools.lru_cache(maxsize=8)
def _pairs(n):
    """Read-only upper-triangle index arrays (i < j) for n coordinates."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _jump_blocks(v, nu):
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
    return blocks


def _excluded_inverse_square(a):
    """1/a^2 in place, and 0 where |a| is within the exclusion threshold (never divided)."""
    keep = (a > _JUMP_EXCLUSION) | (a < -_JUMP_EXCLUSION)
    np.multiply(a, a, out=a)
    np.divide(1.0, a, out=a, where=keep)
    a[~keep] = 0.0
    return a


def _next_jump(v, nu, rng, window):
    """First-event thinning over [0, window] with rates frozen at v.

    Returns (tau, reflection or None): the elapsed time and the reflection
    firing at tau, or None if nothing fires within the window.  With the
    rates held at their window-start values this is exact, so no
    per-window jump-probability cap is needed; the window itself bounds
    the rate-freshness error.
    """
    blocks = _jump_blocks(v, nu)
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


def _slot_bounds(rho, nu, out):
    """Jump-rate bounds in slot space over envelope nodes ``rho`` (rows: times).

    A slot is one column of the sorted envelope.  Between nodes the
    envelope is linear, so over the nodes' span each slot magnitude is at
    least its smallest node value m_a, and each adjacent gap at least its
    smallest node gap; cumulative sums d of those gap minima bound the
    magnitude differences, rho_a - rho_b >= d_b - d_a for a < b.  Returns the
    flip bounds nu/(2 m_a^2) and the symmetric pair bounds 1/(m_a + m_b)^2
    (``over_sum``) and 1/(d_b - d_a)^2 (``over_diff``).  The sign-swap of
    two slots runs at rate 1/(rho_a + rho_b)^2 when their signs are equal
    and at 1/(rho_a - rho_b)^2 when they are opposite.  A bound whose
    distance is within the exclusion threshold is 0, and so is a diagonal.
    The pair bounds are written into ``out``, two (N, N) arrays reused
    across calls (fresh arrays of that size cost more than the arithmetic).
    """
    m = rho.min(axis=0)
    d = np.concatenate(([0.0], np.cumsum((rho[:, :-1] - rho[:, 1:]).min(axis=0))))
    over_sum = _excluded_inverse_square(np.add.outer(m, m, out=out[0]))
    np.fill_diagonal(over_sum, 0.0)
    over_diff = _excluded_inverse_square(np.subtract.outer(d, d, out=out[1]))
    return 0.5 * nu * _excluded_inverse_square(m), over_sum, over_diff


def _slot_move(sigma, labels, a, b=None):
    """Flip slot a, or sign-swap slots a and b, in the slot state (in place).

    A flip negates sigma_a; a sign-swap negates sigma_a and sigma_b and
    exchanges their labels.  The magnitudes stay with their slots.
    """
    sigma[a] = -sigma[a]
    if b is not None:
        sigma[b] = -sigma[b]
        labels[a], labels[b] = labels[b], labels[a]


def _refresh_bounds(w, row, sigma, over_sum, over_diff, c):
    """Bring row and column c of the sign-swap bounds ``w`` and the row sums to sigma_c."""
    new = np.where(sigma == sigma[c], over_sum[c], over_diff[c])
    row += new - w[c]
    row[c] = new.sum()
    w[c] = new
    w[:, c] = new


def _check_bound(rate, bound, t):
    """Raise unless the exact rate of a proposal is within its thinning bound."""
    if rate > bound * (1.0 + _BOUND_ROUNDING):
        raise RuntimeError(f"jump rate {rate:.6g} above its thinning bound {bound:.6g} at t={t:.6g}")


def _pick(cum, v):
    """Index whose interval of the running sums ``cum`` holds v in [0, cum[-1])."""
    i = int(cum.searchsorted(v, "right"))
    # v rounded up to the total falls on the last positive weight
    return i if i < cum.size else int(cum.searchsorted(cum[-1]))


def _slot_jump_path(rho, grid, times, labels, sigma, nu, rng):
    """Frozen Dunkl jumps over the envelope ``rho`` on ``grid``, by exact thinning.

    The state lives in slot space: the envelope's sorted magnitudes, one
    sign per slot (``sigma``) and the label held by each slot (``labels``),
    both updated in place.  Per record interval the bounds of
    ``_slot_bounds`` over its nodes dominate every rate; proposals are drawn
    from them (Lewis and Shedler, Naval Res. Logist. Q. 26, 1979), a pair
    by its row sum, then by its entry, and accepted with the exact rate at
    the linearly interpolated envelope.  A pair's bound depends on whether
    its signs agree, so a sign change alters one row and one column of the
    sign-swap bounds, kept with their row sums in O(N).
    A rate above its bound by more than rounding raises.  Returns the
    signed states at ``times``, the jump log and the jump counters.
    """
    rec = np.searchsorted(grid, times)
    grid = grid.tolist()
    states = np.empty((times.size, labels.size))
    states[0, labels] = sigma * rho[rec[0]]
    jump_log = []
    counts = dict.fromkeys(_JUMP_COUNTERS, 0)
    bufs = np.empty((3, labels.size, labels.size))
    w = bufs[2]  # sign-swap bounds at the current signs
    for idx in range(1, times.size):
        j0, j1 = int(rec[idx - 1]), int(rec[idx])
        flip, over_sum, over_diff = _slot_bounds(rho[j0 : j1 + 1], nu, bufs[:2])
        flip_cum = np.cumsum(flip)
        flip_total = float(flip_cum[-1])
        nodes = rho[j0 : j1 + 1].tolist()
        np.copyto(w, over_diff)
        np.copyto(w, over_sum, where=sigma[:, None] == sigma)
        row = w.sum(axis=1)
        t, t_end = grid[j0], grid[j1]
        while (total := flip_total + 0.5 * float(row.sum())) > 0.0:
            t += rng.standard_exponential() / total
            if t >= t_end:
                break
            counts["proposals"] += 1
            u = rng.random() * total
            j = bisect.bisect_right(grid, t, j0, j1) - 1
            s = (t - grid[j]) / (grid[j + 1] - grid[j])
            lo, hi = nodes[j - j0], nodes[j + 1 - j0]
            if u < flip_total:
                a, b = _pick(flip_cum, u), None
                r = (1.0 - s) * lo[a] + s * hi[a]
                rate = 0.5 * nu / (r * r)
                _check_bound(rate, flip[a], t)
                if rng.random() * flip[a] >= rate:
                    continue
                kind = "flip"
            else:
                a = _pick(row.cumsum(), 2.0 * (u - flip_total))
                cw = w[a].cumsum()
                a, b = sorted((a, _pick(cw, rng.random() * cw[-1])))
                ra = (1.0 - s) * lo[a] + s * hi[a]
                rb = (1.0 - s) * lo[b] + s * hi[b]
                dist = ra + rb if sigma[a] == sigma[b] else ra - rb
                # an excluded reflection has rate 0 (its distance may be 0)
                rate = 1.0 / dist**2 if w[a, b] > 0.0 else 0.0
                _check_bound(rate, w[a, b], t)
                if rng.random() * w[a, b] >= rate:
                    continue
                kind = "sign_swap"
            ends = (int(labels[a]),) if b is None else sorted((int(labels[a]), int(labels[b])))
            jump_log.append((t, Reflection(kind, *ends)))
            counts[kind + "s"] += 1
            _slot_move(sigma, labels, a, b)
            for c in (a,) if b is None else (a, b):
                _refresh_bounds(w, row, sigma, over_sum, over_diff, c)
        states[idx, labels] = sigma * rho[j1]
    return states, jump_log, counts


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
) -> PathSample:
    """Full-space type B jump dynamics.

    For beta = inf the coordinate magnitudes follow the frozen type B flow
    exactly while the jumps act on signs and labels, so even power sums
    are deterministic.  The envelope is solved once and reused by every
    seed and replica with the same (|x0|, nu, T, dt): the last solve is
    memoised on the exact bytes of the sorted magnitudes and the envelope
    time grid, plus nu, and its RK step counts are reported as
    ``rk_accepted`` and ``rk_rejected`` on hits and misses alike.  The
    jumps are sampled exactly for the linearly interpolated envelope, by
    thinning in slot space (``_slot_jump_path``); ``diagnostics`` count the
    ``proposals`` and the accepted ``flips`` and ``sign_swaps``.
    A reflection within the exclusion threshold of its hyperplane anywhere
    in a record interval stays off for that interval, so a nu = 0 start
    with zero or coincident magnitudes is valid.
    Finite beta uses operator splitting: Euler drift, diffusion with scale
    1/sqrt(beta), then first-event jumps with rates frozen at the window
    start.  Its sub-steps obey h <= 0.25 gap^2 min(1, beta) with a floor of
    dt/1000; ``diagnostics`` count the ``substeps``, the ``floor_substeps``
    set by that floor, the ``flips`` and ``sign_swaps``, and give ``min_gap``.
    Swaps x_i <-> x_j are not sampled: they only exchange labels, so the
    configuration's law is exact and output columns are labels up to swaps.
    """
    _check_b(nu, beta)
    x0 = np.asarray(getattr(x0, "coords", x0), dtype=float)
    rng = stream.generator()
    times = _record_grid(T, dt)

    if math.isinf(beta):
        if nu > 0 and np.any(x0 == 0.0):
            raise ValueError(
                "frozen dunkl-b with nu > 0 needs a start without zero coordinates: "
                "the flip rate nu/(2x^2) is infinite at t = 0"
            )
        # Deterministic envelope of |coordinates| on a grid fine enough for
        # linear interpolation of the jump rates.
        n_fine = max(times.size - 1, min(4096, max(256, int(round(T / dt)))))
        env_grid = np.union1d(times, np.linspace(0.0, T, n_fine + 1))
        labels = np.argsort(np.abs(x0))[::-1]
        env = _dunkl_envelope(np.abs(x0)[labels].tobytes(), float(nu), env_grid.tobytes())
        states, jump_log, counts = _slot_jump_path(
            env.states, env_grid, times, labels, np.where(x0[labels] < 0, -1.0, 1.0),
            nu, rng,
        )
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
                **counts,
            },
        )

    # Finite beta: operator splitting with Euler drift and diffusion legs.
    x = _em_start(x0, FULL_SPACE, nu, dt)
    sigma = 1.0 / math.sqrt(beta)
    wall = nu > 0
    h_floor = 1e-3 * dt
    jump_log = []
    states = np.empty((times.size, x.size))
    states[0] = x
    min_gap = _gaps(np.sort(np.abs(x))[::-1], wall)[1]
    count = {"substeps": 0, "floor_substeps": 0, "flips": 0, "sign_swaps": 0}
    t = 0.0
    for idx in range(1, times.size):
        t_target = times[idx]
        while t_target - t > 1e-12 * max(1.0, T):
            g = _gaps(np.sort(np.abs(x))[::-1], wall)[1]
            min_gap = min(min_gap, g)
            h_gap = 0.25 * g * g * min(1.0, beta)
            h_cap = min(dt, t_target - t, max(h_gap, h_floor))
            if h_cap <= 0.0 or t + h_cap == t:
                raise IntegrationError("step size underflow", t, h_cap)
            count["substeps"] += 1
            count["floor_substeps"] += int(h_gap < h_floor)
            h, refl = _next_jump(x, nu, rng, h_cap)
            noise = sigma * math.sqrt(h)
            cap = max(4.0 * noise, 0.5 * g) if g > 0 else 4.0 * noise
            x = x + _tamed_increment(drift_b(x, nu), h, cap) + noise * rng.standard_normal(x.size)
            if refl is not None:
                x = apply_reflection(ChamberPoint(x, FULL_SPACE), refl).coords
                jump_log.append((t + h, refl))
                count[refl.kind + "s"] += 1
            t += h
        states[idx] = x
    return PathSample(
        FULL_SPACE,
        times,
        states,
        stream.seed,
        stream.replica,
        jump_log=jump_log,
        diagnostics={"min_gap": min_gap, **count},
    )
