"""Monte Carlo integrators for the interacting-particle SDEs and jump dynamics.

Bessel-type paths use Euler-Maruyama at the record step with exact local
flows across the singular hyperplanes: any pair close enough that an
Euler increment stops tracking its mutual repulsion is advanced by the
closed-form gap flow instead (and likewise wall-adjacent type B
coordinates), and the drift leg is rescaled to add no Euler term |h b|^2,
which keeps each interaction's exact second-moment production rate.  A
sub-step re-sorts the state onto the chamber (type B: of absolute
values); the true processes never hit the walls, so this only corrects
scheme overshoot, and the pre-projection violation is tracked.

The full-space jump dynamics of type B superpose reflection jumps on the
type B drift.  At infinite inverse temperature the absolute values of the
coordinates evolve deterministically (jumps only permute them and flip
signs), so the frozen simulator integrates that envelope with the
adaptive ODE solver once per (|x0|, nu, T, dt), reuses it across seeds
and replicas, and keeps even power sums bit-identical across seeds.  Its
jumps are sampled exactly in slot space (the envelope's sorted
magnitudes, one sign per slot and a label map) by Lewis-Shedler thinning
against rate bounds that hold over each record interval, because the
envelope is linear between its nodes, and whatever the signs.  The bounds
depend on the envelope alone, so their tables are built once per envelope
and record grid for every replica; a path draws its proposals interval by
interval, tests them together, and a pass in time order accepts each with
the exact rate its current signs give its reflection at the interpolated
envelope.  At finite
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
from .frozen import IntegrationError, _bootstrap_start, _check_nu, drift_a, drift_b, solve_frozen

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
# Frozen Dunkl proposals tested together: a whole path's (a few thousand at
# N = 150), unless near-coincident magnitudes make millions of them.
_PROPOSAL_BATCH = 1 << 14

# Work counters of an Euler-Maruyama path, summed over transform-mode segments.
_EM_COUNTERS = ("substeps", "pair_flows", "wall_flows", "clipped")
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
    """Type B multiplicities: finite nu >= 0, and beta = +inf (frozen) or the regular case."""
    _check_nu(nu)
    # callers route on math.isinf(beta), so -inf must fail here
    if not (beta == math.inf or (beta >= 0.5 and nu * beta >= 0.5)):
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
    if not (T >= 0 and dt > 0):  # NaN fails here too
        raise ValueError(f"need T >= 0 and dt > 0, got T = {T:g}, dt = {dt:g}")
    if not T / dt < math.inf or dt == math.inf:
        raise ValueError(f"need finite T, dt and T/dt, got T = {T:g}, dt = {dt:g}")
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
    return np.clip(h * drift_vec, -cap, cap)


def _em_path(x0, x, t, drift, coupling, chamber, T, dt, rng, nu=0.0):
    """Euler-Maruyama with exact local flows across the singular hyperplanes.

    Records ``x0`` at t = 0 and runs from ``_em_start``'s split ``x`` at
    time ``t`` to T in sub-steps h = min(dt, time left).  The noise scale
    is 1/sqrt(coupling), for the coupling k (type A) or beta (type B).
    Every pair closer than 4 sqrt(h) (the scale where an Euler increment
    stops tracking the singular repulsion) has its mutual flow
    du = 2/u dt applied exactly as u' = sqrt(u^2 + 4h), tightest pair first; a type B coordinate
    inside 4 sqrt(nu h) of the wall gets the exact wall flow x' = sqrt(x^2 + 2 nu h).  These maps
    preserve each interaction term's exact second-moment production and
    bound the remaining Euler drift by sqrt(h)/4 per interaction.  The
    drift leg y = x + disp becomes c + sqrt(1 - |disp|^2/|y - c|^2) (y - c),
    c = mean(x) (type A, so sum x stays a martingale) or 0 (type B), and
    adds 2 (x - c).disp, not |disp|^2, to |x - c|^2.  Coordinatewise
    taming is a pure explosion guard, inactive in all regular regimes.

    Each sub-step works on raw sorted arrays: one pass of adjacent gaps
    gives the step gap and the taming cap, and the state re-sorts onto the
    chamber afterwards.  Diagnostics: worst pre-projection violation, the
    smallest step gap, counts of sub-steps, pair and wall flows, and
    clipped drift coordinates, and ``euler_term``, the sum of |disp|^2 over
    the rescaled sub-steps: what the leg would have added to |x - c|^2
    without the rescale, so the bias on sum X^2 that the rescale removes.
    """
    times = _record_grid(T, dt)
    sigma = 1.0 / math.sqrt(coupling)
    n = x.size  # x is never written in place: each sub-step makes a new array
    states = np.empty((times.size, n))
    states[0] = x0
    wall = chamber == CHAMBER_B and nu > 0
    max_violation = 0.0
    min_gap = _gaps(x, wall)[1]
    count = dict.fromkeys(_EM_COUNTERS, 0)
    euler_term = 0.0
    for idx in range(1, times.size):
        t_target = times[idx]
        while t_target - t > 1e-12 * max(1.0, T):
            d, g = _gaps(x, wall)
            min_gap = min(min_gap, g)
            h = min(dt, t_target - t)
            count["substeps"] += 1
            noise_scale, root_h = sigma * math.sqrt(h), math.sqrt(h)
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
            center = x.mean() if chamber == CHAMBER_A else 0.0
            v = x_raw - center
            vv, dd = v @ v, disp @ disp
            if vv > dd > 0.0:
                x_raw = center + math.sqrt(1.0 - dd / vv) * v
                euler_term += float(dd)
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
        states[idx], t = x, t_target
    return times, states, {"max_violation": max_violation, "min_gap": min_gap, **count, "euler_term": euler_term}


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
    start = _em_start(x0, chamber, nu, dt)
    times, states, diag = _em_path(*start, drift, coupling, chamber, T, dt, stream.generator(), nu)
    return PathSample(chamber, times, states, stream.seed, stream.replica, diagnostics=diag)


def _em_start(x0, chamber, nu, dt):
    """The projected start, its boundary clusters split at delta = min(dt, 1e-3), and delta (0 if none split).

    The scheme's pathwise error is O(sqrt(dt)) anyway, so the bootstrap
    horizon for stochastic runs is tied to dt rather than the much smaller
    deterministic default.  A full-space start splits its magnitudes as a
    type B start and keeps its signs.
    """
    point = x0 if isinstance(x0, ChamberPoint) else project_to_chamber(x0, chamber)
    delta = min(dt, 1e-3)
    x = point.coords
    if chamber != FULL_SPACE:
        split, y = _bootstrap_start(x, chamber, nu, delta)
    else:
        srt = np.argsort(np.abs(x))[::-1]
        split, mags = _bootstrap_start(np.abs(x)[srt], CHAMBER_B, nu, delta)
        y = np.where(x[srt] < 0, -mags, mags)[np.argsort(srt)]
    return x, y, delta if split else 0.0


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
    space-time transform X_ou(t) = exp(-lam t) X((exp(2 lam t) - 1)/(2 lam)),
    restarted (the process is Markov) at every multiple of 2/|lam| so that
    each warped interval ends by (e^4 - 1)/(2 |lam|); its Euler-Maruyama
    counters and ``euler_term`` are summed over record intervals and
    restarts.  At k = inf either mode is that transform of frozen solves.  With lam = 0 both modes
    are simulate_bessel_a.  -lam * T > 700 overflows float64 and is refused.
    """
    k = float(k)
    _check_a(k)
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam:g}")
    if mode not in ("direct", "transform"):
        raise ValueError("mode must be 'direct' or 'transform'")
    if -lam * T > 700.0:
        raise ValueError(f"OU states overflow at lam = {lam:g}, T = {T:g}")
    if lam == 0.0:
        return simulate_bessel_a(x0, k, T, dt, stream)
    if math.isinf(k):
        diag = {"frozen": True}
        flow = lambda x, warped: solve_frozen("a", x, warped).states
    elif mode == "direct":
        return _em_sample(x0, lambda y: drift_a(y) - lam * y, CHAMBER_A, T, dt, stream, k)
    else:
        rng = stream.generator()
        diag = {"max_violation": 0.0, "min_gap": np.inf} | dict.fromkeys(_EM_COUNTERS, 0) | {"euler_term": 0.0}

        def flow(x, warped):
            # split within the first warped step, warped[1] (T = 0 has none)
            x, y, t = _em_start(x, CHAMBER_A, 0.0, min(warped[1:2], default=dt))
            seg = [x]
            for w in np.diff(warped):
                _, s, d = _em_path(y, y, t, drift_a, k, CHAMBER_A, w, w, rng)
                y, t = s[-1], 0.0
                seg.append(y)
                diag["max_violation"] = max(diag["max_violation"], d["max_violation"])
                diag["min_gap"] = min(diag["min_gap"], d["min_gap"])
                for key in (*_EM_COUNTERS, "euler_term"):
                    diag[key] += d[key]
            return np.array(seg)

    grid = _record_grid(T, dt)
    cuts = np.arange(2.0, abs(lam) * T, 2.0) / abs(lam)
    nodes = np.union1d(grid, cuts)
    x, rows, a = x0, [], 0
    for b in [*nodes.searchsorted(cuts), nodes.size - 1]:
        span = nodes[a : b + 1] - nodes[a]
        # math.exp: np.exp is an ulp off at some nodes, which moves seeded paths
        scale = np.array([math.exp(-lam * s) for s in span])[:, None]
        rows.append((scale * flow(x, np.expm1(2.0 * lam * span) / (2.0 * lam)))[bool(rows) :])
        x, a = rows[-1][-1], b
    states = np.vstack(rows)[nodes.searchsorted(grid)]
    return PathSample(CHAMBER_A, grid, states, stream.seed, stream.replica, diagnostics=diag)


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


@functools.lru_cache(maxsize=8)
def _slot_ends(n):
    """Read-only slot ends (a, b) of every reflection: the n flips (b = -1), then the pairs of ``_pairs``."""
    iu, ju = _pairs(n)
    a, b = np.concatenate((np.arange(n), iu)), np.concatenate((np.full(n, -1), ju))
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _reflection_bounds(ma, mb, da, db, flips, nu):
    """Sign-blind thinning bounds of reflections from the slot minima at their ends (see ``_slot_bounds``).

    A sign-swap of slots a < b has ``over_sum`` = 1/(m_a + m_b)^2 and
    ``over_diff`` = 1/(d_b - d_a)^2, each 0 where its distance is within
    the exclusion threshold; a flip of slot a (``flips``) has nu/(2 m_a^2)
    as both.  Returns the bounds max(over_sum, over_diff), ``over_sum`` and
    ``over_diff``.
    """
    over_sum = np.where(flips, 0.5 * nu, 1.0) * _excluded_inverse_square(np.where(flips, ma, ma + mb))
    over_diff = np.where(flips, over_sum, _excluded_inverse_square(db - da))
    return np.maximum(over_sum, over_diff), over_sum, over_diff


def _slot_bounds(rho, nu):
    """Jump-rate bounds in slot space over envelope nodes ``rho`` (rows: times).

    A slot is one column of the sorted envelope.  Between nodes the
    envelope is linear, so over the nodes' span each slot magnitude is at
    least its smallest node value m_a, and each adjacent gap at least its
    smallest node gap; cumulative sums d of those gap minima bound the
    magnitude differences, rho_a - rho_b >= d_b - d_a for a < b.  The
    sign-swap of slots a < b runs at rate 1/(rho_a + rho_b)^2 when their
    signs are equal and at 1/(rho_a - rho_b)^2 when they are opposite, with
    the bounds ``over_sum`` and ``over_diff`` of ``_reflection_bounds``.  As
    m_a + m_b >= d_b - d_a, the sign-blind bound max(over_sum, over_diff)
    dominates either rate and is ``over_diff`` wherever that is not
    excluded.  Returns m, d, and the sign-blind bounds, ``over_sum`` and
    ``over_diff`` of every reflection in the order of ``_slot_ends``.
    """
    m = rho.min(axis=0)
    d = np.concatenate(([0.0], np.cumsum((rho[:, :-1] - rho[:, 1:]).min(axis=0))))
    a, b = _slot_ends(m.size)
    return m, d, *_reflection_bounds(m[a], m[b], d[a], d[b], b < 0, nu)


def _thinning_tables(rho, rec, nu):
    """What every path over the envelope ``rho`` draws its thinning proposals from.

    Per record interval (envelope rows ``rec[i]`` to ``rec[i + 1]``): the
    cumulative sign-blind bound and the index of its last positive entry;
    and the interval's slot minima m and d as rows of two arrays, from
    which a proposal's bounds are recomputed, so that only the cumulative
    bound is kept at pair size.  Returns ``rec``, the (cum, last) pairs, m
    and d.
    """
    cums, m, d = [], [], []
    for j0, j1 in zip(rec[:-1], rec[1:]):
        m_i, d_i, bound, _, _ = _slot_bounds(rho[j0 : j1 + 1], nu)
        cum = np.cumsum(bound)
        # a draw rounded up to the total falls on the last positive bound
        cums.append((cum, int(cum.searchsorted(cum[-1]))))
        m.append(m_i)
        d.append(d_i)
    n = rho.shape[1]
    return rec, cums, np.reshape(m, (-1, n)), np.reshape(d, (-1, n))


def _slot_move(sigma, labels, a, b=None):
    """Flip slot a, or sign-swap slots a and b, in the slot state (in place).

    A flip negates sigma_a; a sign-swap negates sigma_a and sigma_b and
    exchanges their labels.  The magnitudes stay with their slots.
    """
    sigma[a] = -sigma[a]
    if b is not None:
        sigma[b] = -sigma[b]
        labels[a], labels[b] = labels[b], labels[a]


def _check_bound(rate, bound, t):
    """Raise unless every proposal's exact rate is within its thinning bound."""
    for i in np.flatnonzero(rate > bound * (1.0 + _BOUND_ROUNDING))[:1]:
        raise RuntimeError(f"jump rate {rate[i]:.6g} above its thinning bound {bound[i]:.6g} at t={t[i]:.6g}")


def _slot_jump_path(rho, grid, tables, labels, sigma, nu, rng):
    """Frozen Dunkl jumps over the envelope ``rho`` on ``grid``, by exact thinning.

    Lewis and Shedler (Naval Res. Logist. Q. 26, 1979) thinning in slot
    space: the state is the envelope's sorted magnitudes, one sign per slot
    (``sigma``) and the label held by each slot (``labels``).  The
    sign-blind bounds of ``_thinning_tables`` hold whatever the signs, so
    each record interval draws a Poisson count of sorted uniform times and
    of reflections (slot ends a, b; b = -1 for a flip) picked by bound.
    The path's proposals are then tested together, at the interpolated
    envelope, against both rates a sign-swap can have, and a pass in time
    order accepts each by its current signs.  Returns the signed states at
    the record times, the jump log and the jump counters.
    """
    rec, cums, m, d = tables
    n = labels.size
    states = np.empty((rec.size, n))
    states[0, labels] = sigma * rho[rec[0]] + 0.0  # a zero magnitude is 0, not -0
    sigma, labels = sigma.tolist(), labels.tolist()
    jump_log = []
    counts = dict.fromkeys(_JUMP_COUNTERS, 0)
    row = 1  # the first record row not yet written

    def record(upto):
        """Write the current state to the record rows from ``row`` to ``upto``."""
        nonlocal row
        states[row : upto + 1, labels] = np.multiply(sigma, rho[rec[row : upto + 1]]) + 0.0
        row = upto + 1

    def thin(t, pick, w_unit, iv):
        """Test proposals at times ``t`` in record intervals ``iv`` together, then accept them in time order."""
        a, b = (ends[pick] for ends in _slot_ends(n))
        j = np.minimum(grid.searchsorted(t, "right") - 1, rec[iv + 1] - 1)
        s = (t - grid[j]) / (grid[j + 1] - grid[j])
        ra = (1.0 - s) * rho[j, a] + s * rho[j + 1, a]
        rb = (1.0 - s) * rho[j, b] + s * rho[j + 1, b]
        # a flip has one rate; an excluded reflection has rate 0 (its distance may be 0)
        flips = b < 0
        w, over_sum, over_diff = _reflection_bounds(m[iv, a], m[iv, b], d[iv, a], d[iv, b], flips, nu)
        scale = np.where(flips, 0.5 * nu, 1.0)
        same = np.divide(scale, np.where(flips, ra, ra + rb) ** 2, out=np.zeros(t.size), where=over_sum > 0.0)
        opp = np.divide(scale, np.where(flips, ra, ra - rb) ** 2, out=np.zeros(t.size), where=over_diff > 0.0)
        _check_bound(np.maximum(same, opp), w, t)
        w *= w_unit
        same_ok, opp_ok = w < same, w < opp
        live = np.flatnonzero(same_ok | opp_ok)
        for i, tj, x, y, by_sum, by_diff in zip(*(v[live].tolist() for v in (iv, t, a, b, same_ok, opp_ok))):
            if y < 0:
                kind, refl, y = "flip", (labels[x],), None
            elif by_sum if sigma[x] == sigma[y] else by_diff:
                kind, refl = "sign_swap", sorted((labels[x], labels[y]))
            else:
                continue
            if i >= row:
                record(i)
            jump_log.append((tj, Reflection(kind, *refl)))
            counts[kind + "s"] += 1
            _slot_move(sigma, labels, x, y)

    drawn, size = [], 0
    for i, ((cum, last), j0, j1) in enumerate(zip(cums, rec[:-1], rec[1:])):
        g0, g1 = grid[j0], grid[j1]
        k = int(rng.poisson(cum[-1] * (g1 - g0)))
        counts["proposals"] += k
        if k:
            u = rng.random((3, k))
            pick = np.minimum(cum.searchsorted(u[1] * cum[-1], "right"), last)
            drawn.append((g0 + (g1 - g0) * np.sort(u[0]), pick, u[2], np.full(k, i)))
            size += k
        if drawn and (size >= _PROPOSAL_BATCH or i == len(cums) - 1):
            batch = [np.concatenate(x) for x in zip(*drawn)]
            for lo in range(0, size, _PROPOSAL_BATCH):
                thin(*(x[lo : lo + _PROPOSAL_BATCH] for x in batch))
            drawn, size = [], 0
    record(len(cums))
    return states, jump_log, counts


@functools.lru_cache(maxsize=1)
def _dunkl_envelope(mags: bytes, nu: float, grid: bytes):
    """Frozen type B flow of the sorted magnitudes ``mags`` over ``grid``, and a memo for its thinning tables.

    Keyed on the exact float64 bytes of both arrays, so any change to an
    input is a miss.  Every caller loops over replicas with one start, so
    one entry suffices; the states are read-only because hits share them.
    The memo maps the bytes of a record grid to its ``_thinning_tables``,
    and goes with the envelope when the next start replaces it.
    """
    env = solve_frozen("b", np.frombuffer(mags), np.frombuffer(grid), nu=nu)
    env.states.flags.writeable = False
    return env, {}


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
    solve steps on its own controller to T and fills the fine grid from
    the Dormand-Prince continuous extension, so the grid's nodes cost no
    steps.  The jumps are sampled exactly for the linearly interpolated envelope, by
    thinning in slot space against sign-blind bounds (``_slot_jump_path``);
    the bound tables of each record interval are built with the envelope's
    first path on a record grid and reused by the others, so a path only
    draws and tests its proposals.  ``diagnostics`` count the
    ``proposals`` and the accepted ``flips`` and ``sign_swaps``.  A reflection within the exclusion threshold of its
    hyperplane anywhere in a record interval stays off for that interval, so
    a nu = 0 start with zero or coincident magnitudes is valid.  From an
    all-zero start every rate scales as 1/t, so the signs and labels are
    drawn uniformly at t = 0; a start with some but not all coordinates 0
    is refused at nu > 0.
    Finite beta uses operator splitting: Euler drift, diffusion with scale
    1/sqrt(beta), then first-event jumps with rates frozen at the window
    start, and runs from ``_em_start``'s split time.  Its sub-steps obey
    h <= 0.25 gap^2 min(1, beta) with a floor of dt/1000; ``diagnostics``
    count the ``substeps``, the ``floor_substeps`` set by that floor, the
    ``flips`` and ``sign_swaps``, and give ``min_gap``.
    Swaps x_i <-> x_j are not sampled: they only exchange labels, so the
    configuration's law is exact and output columns are labels up to swaps.
    """
    _check_b(nu, beta)
    x0 = np.asarray(getattr(x0, "coords", x0), dtype=float)
    rng = stream.generator()
    times = _record_grid(T, dt)

    if math.isinf(beta):
        zero_start = not x0.any()
        if nu > 0 and not zero_start and np.any(x0 == 0.0):
            raise ValueError(
                "frozen dunkl-b with nu > 0 needs all or no coordinates 0: the flip rate nu/(2x^2) is infinite at t = 0"
            )
        # Deterministic envelope of |coordinates| on a grid fine enough for
        # linear interpolation of the jump rates.
        n_fine = max(times.size - 1, min(4096, max(256, int(round(T / dt)))))
        env_grid = np.union1d(times, np.linspace(0.0, T, n_fine + 1))
        labels = np.argsort(np.abs(x0))[::-1]
        env, memo = _dunkl_envelope(np.abs(x0)[labels].tobytes(), float(nu), env_grid.tobytes())
        key = times.tobytes()
        if key not in memo:
            memo.clear()  # one record grid at a time: about 4.5 MB at N = 150, T/dt = 50
            memo[key] = _thinning_tables(env.states, env_grid.searchsorted(times), nu)
        sigma = np.where(x0[labels] < 0, -1.0, 1.0)
        if zero_start:
            # every rate scales as 1/t, so at any t > 0 the signs are uniform
            # and the labels a uniform permutation
            labels, sigma = rng.permutation(x0.size), rng.choice([-1.0, 1.0], x0.size)
        states, jump_log, counts = _slot_jump_path(env.states, env_grid, memo[key], labels, sigma, nu, rng)
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
    x0, x, t = _em_start(x0, FULL_SPACE, nu, dt)
    sigma = 1.0 / math.sqrt(beta)
    wall = nu > 0
    h_floor = 1e-3 * dt
    jump_log = []
    states = np.empty((times.size, x.size))
    states[0] = x0
    min_gap = _gaps(np.sort(np.abs(x))[::-1], wall)[1]
    count = {"substeps": 0, "floor_substeps": 0, "flips": 0, "sign_swaps": 0}
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
        FULL_SPACE, times, states, stream.seed, stream.replica, jump_log, {"min_gap": min_gap, **count}
    )
