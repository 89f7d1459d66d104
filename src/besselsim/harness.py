"""Convergence experiments: empirical measures against predicted limit laws.

An experiment takes a config (preset name plus overrides), runs the
deterministic or Monte Carlo dynamics over the requested N and t values,
measures Kolmogorov-Smirnov and momentwise distances to the predicted
limit, and emits a machine-readable report.  Identical configs (same
seed) produce byte-identical outputs; replicas run and are reduced in
index order.

Thresholds for the stochastic presets are engineering calibrations
stored with the preset defaults (the limit theorems are asymptotic and
come with no rates); deterministic presets use exact finite-N identities
where those exist.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chambers import CHAMBER_A, CHAMBER_B, ChamberPoint, project_to_chamber
from .freeprob import (
    LimitLaw,
    atom_law,
    beta_law,
    dunkl_limit_law,
    limit_law_a,
    quartercircle_law,
    semicircle,
)
from .moments import (
    finite_size_moments_a,
    finite_size_moments_b,
    limit_moments_a,
    limit_moments_b,
    limit_moments_dunkl,
)
from .stochastic import (
    RngStream,
    simulate_bessel_a,
    simulate_bessel_b,
    simulate_bessel_ou,
    simulate_dunkl_b,
)
from .frozen import ou_transform_frozen, solve_frozen
from .zeros import hermite_zeros, laguerre_zeros, profile_solution_a

SCALE_SQRT_N = "sqrt_n"
SCALE_SQRT_2N = "sqrt_2n"


def _root_n(n: int, scaling: str) -> float:
    """sqrt(n) for ``SCALE_SQRT_N`` and sqrt(2n) for ``SCALE_SQRT_2N``."""
    if scaling not in (SCALE_SQRT_N, SCALE_SQRT_2N):
        raise ValueError(f"unknown scaling {scaling!r}")
    return math.sqrt(n) if scaling == SCALE_SQRT_N else math.sqrt(2 * n)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """N equal-weight atoms, e.g. coordinates rescaled by sqrt(N) or sqrt(2N)."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        if atoms.size < 1:
            raise ValueError("empirical measure must have at least one atom")

    @classmethod
    def from_point(cls, point, scaling: str = SCALE_SQRT_N) -> "EmpiricalMeasure":
        """Atoms x_i / sqrt(N) (``SCALE_SQRT_N``) or x_i / sqrt(2N) (``SCALE_SQRT_2N``)."""
        x = np.asarray(getattr(point, "coords", point), dtype=float)
        return cls(x / _root_n(x.size, scaling))

    @property
    def n(self) -> int:
        return self.atoms.size

    def squared(self) -> "EmpiricalMeasure":
        return EmpiricalMeasure(self.atoms**2)

    def moments(self, L: int) -> np.ndarray:
        out = np.empty(L + 1)
        power = np.ones_like(self.atoms)
        out[0] = 1.0
        for l in range(1, L + 1):
            power = power * self.atoms
            out[l] = power.mean()
        return out


def ks_distance(mu: EmpiricalMeasure, law) -> float:
    """sup_x |F_emp(x) - F_law(x)|, evaluated at the atoms and their left limits.

    The lower comparison uses the law CDF's left limit as well, so purely
    atomic laws sitting exactly on the empirical atoms give distance 0.
    """
    xs = np.sort(mu.atoms)
    n = xs.size
    both = np.asarray(law.cdf(np.concatenate([xs, xs - 1e-9 * (1.0 + np.abs(xs))])), dtype=float)
    fl, fl_left = both[:n], both[n:]
    upper = np.abs(np.arange(1, n + 1) / n - fl)
    lower = np.abs(np.arange(0, n) / n - fl_left)
    return float(np.max(np.maximum(upper, lower)))


def moment_distance(mu: EmpiricalMeasure, law, L: int) -> np.ndarray:
    """|S_l - m_l(law)| for l = 0..L."""
    emp = mu.moments(L)
    if isinstance(law, LimitLaw):
        ref = np.array(law.moments(L))
    else:
        ref = np.array([float(v) for v in law])[: L + 1]
    return np.abs(emp - ref)


def law_quantiles(law: LimitLaw, ps, lo: float, hi: float) -> np.ndarray:
    """Quantiles of a law with continuous CDF on [lo, hi] by root bracketing."""
    out = np.empty(len(ps))
    for i, p in enumerate(ps):
        out[i] = _brentq(lambda x: float(law.cdf(x)) - p, lo, hi, xtol=1e-12)
    return out


_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xpre: float, xcur: float, xtol: float) -> float:
    """A root of f in [xpre, xcur] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of the C loop behind ``scipy.optimize.brentq`` at
    its default rtol = 4 eps and maxiter = 100, so it returns scipy's root
    bit for bit: each step interpolates (or extrapolates through the
    contrapoint) when that step is short enough, and bisects otherwise.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def start_law(spec: str) -> LimitLaw:
    """The start law named ``zero`` (the point mass at 0), ``quartercircle`` or ``semicircle[:R]`` (R = 2)."""
    name, colon, arg = spec.partition(":")
    if spec == "zero":
        return atom_law([0.0])
    if spec == "quartercircle":
        return quartercircle_law()
    if name == "semicircle":
        return semicircle(float(arg) if colon else 2.0)
    raise ValueError(f"unknown start measure {spec!r}; the laws are zero, quartercircle and semicircle[:R]")


def starting_profile(spec: str, n: int, scaling: str = SCALE_SQRT_N, chamber: str = CHAMBER_A) -> ChamberPoint:
    """N-particle start whose empirical measure approximates a named law.

    ``spec`` is a ``start_law`` name or ``file:PATH`` (unscaled
    coordinates, one per line).

    Atoms sit at the (i - 1/2)/n quantiles, times sqrt(n) (or sqrt(2n)),
    so the initial empirical measure is within 1/(2n) of the target in KS
    distance.
    """
    scale = _root_n(n, scaling)
    if spec.startswith("file:"):
        return project_to_chamber(np.loadtxt(spec[len("file:"):], ndmin=1), chamber)
    law = start_law(spec)
    r = law.support_radius()
    # bracket the quantiles by [-R, R], or by [0, R] for a law with F(0) = 0
    lo = -r if float(law.cdf(0.0)) > 0 else 0.0
    raw = law_quantiles(law, (np.arange(1, n + 1) - 0.5) / n, lo, r) if r > 0 else np.zeros(n)
    return project_to_chamber(scale * raw, chamber)


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    config: dict
    rows: list
    passed: bool
    manifest: dict = field(default_factory=dict)


def _row(name, n, t, metric, value, threshold, stderr=float("nan")):
    return {
        "name": name,
        "n": n,
        "t": t,
        "metric": metric,
        "value": float(value),
        "stderr": float(stderr),
        "threshold": float(threshold),
        "passed": bool(value <= threshold),
        "hard": True,
    }


def _run_hermite_classical(cfg):
    rows = []
    for n in cfg["n_list"]:
        prof = hermite_zeros(n)
        mu = EmpiricalMeasure.from_point(prof.zeros, SCALE_SQRT_N)
        d = ks_distance(mu, semicircle(math.sqrt(2.0)))
        thr = cfg["thresholds"].get(str(n), cfg["default_threshold"])
        rows.append(_row("hermite-classical", n, 0.0, "ks", d, thr))
    return rows


def _run_laguerre_classical(cfg):
    rows = []
    target = beta_law(0.5, 1.5)
    for n in cfg["n_list"]:
        prof = laguerre_zeros(n, cfg["nu"])
        mu = EmpiricalMeasure(prof.zeros / (4.0 * n))
        d = ks_distance(mu, target)
        thr = cfg["thresholds"].get(str(n), cfg["default_threshold"])
        rows.append(_row("laguerre-classical", n, 0.0, "ks", d, thr))
    return rows


def _run_frozen_a_profile(cfg):
    rows = []
    c = cfg["c"]
    for n in cfg["n_list"]:
        traj = solve_frozen("a", profile_solution_a(n, c, 0.0), cfg["t_list"])
        for i, t in enumerate(cfg["t_list"]):
            dev = float(np.max(np.abs(traj.states[i] - profile_solution_a(n, c, t).coords)))
            rows.append(_row("frozen-a-profile", n, t, "profile-dev", dev, cfg["tol"]))
    return rows


def _run_frozen_a_limit(cfg):
    rows = []
    L = cfg["order"]
    for n in cfg["n_list"]:
        x0 = starting_profile(cfg["start"], n, SCALE_SQRT_N, CHAMBER_A)
        traj = solve_frozen("a", x0, cfg["t_list"])
        start = EmpiricalMeasure.from_point(x0)
        c0 = start.moments(L)
        for i, t in enumerate(cfg["t_list"]):
            mu = EmpiricalMeasure.from_point(traj.states[i])
            ref = limit_moments_a([1.0] + list(c0[1:]), t, L).floats()
            dist = moment_distance(mu, ref, L)
            worst = float(np.max(dist / np.maximum(1.0, np.abs(ref))))
            rows.append(
                _row("frozen-a-limit", n, t, f"moments<= {L}", worst, cfg["moment_coeff"] / n)
            )
            if t > 0:
                d = ks_distance(mu, limit_law_a(atom_law(start.atoms), t))
                rows.append(_row("frozen-a-limit", n, t, "ks", d, cfg["ks_threshold"]))
    return rows


def _sde_moment_rows(name, cfg, run_replica, ref_moments, limit, L, n, t):
    """Monte Carlo moments against ref_moments, in bands of rel_band * |limit| or 3 stderr."""
    reps = cfg["replicas"]
    samples = np.array([run_replica(r) for r in range(reps)])
    rows = []
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / math.sqrt(reps)
    for l in range(1, L + 1):
        band = max(cfg["rel_band"] * abs(limit[l]), 3.0 * stderrs[l])
        rows.append(
            _row(name, n, t, f"moment-{l}", abs(means[l] - ref_moments[l]), band, stderr=stderrs[l])
        )
    return rows, means, stderrs


def _run_bessel_a_sde(cfg):
    """Moments per k against the limit, or for a zero start against the exact
    O(1/N)-corrected expectations; k-pairs compare offsets from those references."""
    rows = []
    n, t, L = cfg["n"], cfg["t"], cfg["order"]
    x0 = starting_profile(cfg["start"], n, SCALE_SQRT_N, CHAMBER_A)
    limit = limit_moments_a(list(EmpiricalMeasure.from_point(x0).moments(L)), t, L).floats()
    per_k = {}
    for k in cfg["k_list"]:
        def one(r, k=k):
            p = simulate_bessel_a(x0, k, t, cfg["dt"], RngStream(cfg["seed"], r))
            return EmpiricalMeasure.from_point(p.states[-1]).moments(L)

        ref = np.array(finite_size_moments_a(k, L, n, t)) if cfg["start"] == "zero" else limit
        krows, means, stderrs = _sde_moment_rows(
            f"bessel-a-sde[k={k}]", cfg, one, ref, limit, L, n, t
        )
        rows.extend(krows)
        per_k[k] = (means - ref, stderrs)
    for ka, kb in itertools.combinations(per_k, 2):
        (oa, sa), (ob, sb) = per_k[ka], per_k[kb]
        for l in range(1, L + 1):
            band = max(cfg["rel_band"] * abs(limit[l]), 3.0 * math.hypot(sa[l], sb[l]))
            gap = abs(oa[l] - ob[l])
            rows.append(_row(f"bessel-a-sde[k={ka} vs k={kb}]", n, t, f"moment-{l}", gap, band))
    return rows


def _run_bessel_b_sde(cfg):
    rows = []
    n, t, L = cfg["n"], cfg["t"], cfg["order"]
    nu = cfg["nu0"] * n
    x0 = starting_profile(cfg["start"], n, SCALE_SQRT_2N, CHAMBER_B)
    sq0 = EmpiricalMeasure.from_point(x0, SCALE_SQRT_2N).squared().moments(L)
    limit = limit_moments_b([1.0] + list(sq0[1:]), cfg["nu0"], t, L).floats()
    for beta in cfg["beta_list"]:
        def one(r, beta=beta):
            p = simulate_bessel_b(x0, nu, beta, t, cfg["dt"], RngStream(cfg["seed"], r))
            return EmpiricalMeasure.from_point(p.states[-1], SCALE_SQRT_2N).squared().moments(L)

        ref = limit
        if cfg["start"] == "zero":
            ref = np.array(finite_size_moments_b(cfg["nu0"], beta, L, n, t))
        krows, _, _ = _sde_moment_rows(
            f"bessel-b-sde[beta={beta}]", cfg, one, ref, limit, L, n, t
        )
        rows.extend(krows)
    return rows


def _run_dunkl_quartercircle(cfg):
    rows = []
    n, t = cfg["n"], cfg["t"]
    nu = cfg["nu0"] * n
    x0 = starting_profile("quartercircle", n, SCALE_SQRT_N, CHAMBER_B).coords
    L = cfg["order"]
    c0 = EmpiricalMeasure(x0 / math.sqrt(n)).moments(2 * L)
    ref = limit_moments_dunkl([1.0] + list(c0[1:]), cfg["nu0"], t, 2 * L).floats()

    # even-moment determinism across seeds
    finals = []
    for s in range(cfg["n_seeds"]):
        p = simulate_dunkl_b(x0, nu, np.inf, t, cfg["dt"], RngStream(cfg["seed"] + s, 0))
        finals.append(EmpiricalMeasure.from_point(p.states[-1]).moments(2 * L))
    finals = np.array(finals)
    for l in range(2, 2 * L + 1, 2):
        spread = float(finals[:, l].max() - finals[:, l].min())
        rows.append(_row("dunkl-frozen", n, t, f"even-{l}-seed-spread", spread, cfg["even_tol"]))

    # odd moments: replica means against the limiting recurrence
    def one(r):
        p = simulate_dunkl_b(x0, nu, np.inf, t, cfg["dt"], RngStream(cfg["seed"], r))
        return EmpiricalMeasure.from_point(p.states[-1]).moments(2 * L)

    samples = np.array([one(r) for r in range(cfg["replicas"])])
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / math.sqrt(cfg["replicas"])
    for l in range(1, 2 * L + 1, 2):
        band = 3.0 * stderrs[l] + cfg["finite_n_coeff"] * l * l / n
        rows.append(
            _row("dunkl-frozen", n, t, f"odd-{l}", abs(means[l] - ref[l]), band, stderr=stderrs[l])
        )

    # pooled KS against the closed-form density (quartercircle start only)
    if cfg["nu0"] == 0:

        def one_atoms(r):
            p = simulate_dunkl_b(x0, nu, np.inf, t, cfg["dt"], RngStream(cfg["seed"] + 7919, r))
            return p.states[-1] / math.sqrt(n)

        pool = np.concatenate([one_atoms(r) for r in range(cfg["ks_replicas"])])
        edge = 2.0 * math.sqrt(2.0 * t + 1.0)
        law = dunkl_limit_law(quartercircle_law(), 0.0, t)
        d = ks_distance(EmpiricalMeasure(pool), law.spectral_density(np.linspace(-edge, edge, 2001)))
        rows.append(_row("dunkl-frozen", n, t, "pooled-ks", d, cfg["ks_threshold"]))
    return rows


def _run_ou_interchange(cfg):
    rows = []
    n, lam, t = cfg["n"], cfg["lam"], cfg["t"]
    x0 = starting_profile(cfg["start"], n, SCALE_SQRT_N, CHAMBER_A)
    pt = ou_transform_frozen(x0, lam, t)
    mu = EmpiricalMeasure.from_point(pt)
    d = ks_distance(mu, semicircle(math.sqrt(2.0 / lam)))
    rows.append(_row("ou-interchange", n, t, "ks", d, cfg["ks_threshold"]))

    n_s, t_s, L = cfg["sde_n"], cfg["sde_t"], cfg["order"]
    x0s = starting_profile(cfg["start"], n_s, SCALE_SQRT_N, CHAMBER_A)

    def direct(r):
        p = simulate_bessel_ou(x0s, cfg["k"], lam, t_s, cfg["dt"], RngStream(cfg["seed"], r), "direct")
        return EmpiricalMeasure.from_point(p.states[-1]).moments(L)

    def transform(r):
        p = simulate_bessel_ou(
            x0s, cfg["k"], lam, t_s, cfg["dt"], RngStream(cfg["seed"] + 104729, r), "transform"
        )
        return EmpiricalMeasure.from_point(p.states[-1]).moments(L)

    sd = np.array([direct(r) for r in range(cfg["replicas"])])
    st_ = np.array([transform(r) for r in range(cfg["replicas"])])
    for l in range(1, L + 1):
        se = math.hypot(
            sd[:, l].std(ddof=1) / math.sqrt(len(sd)), st_[:, l].std(ddof=1) / math.sqrt(len(st_))
        )
        diff = abs(sd[:, l].mean() - st_[:, l].mean())
        rows.append(
            _row("ou-interchange", n_s, t_s, f"transform-vs-direct-{l}", diff, 3.0 * se + 1e-12, stderr=se)
        )
    return rows


PRESETS = {
    "hermite-classical": (
        {
            "n_list": [25, 50, 100, 200],
            "thresholds": {"200": 0.02, "500": 0.01},
            "default_threshold": 0.05,
        },
        _run_hermite_classical,
    ),
    "laguerre-classical": (
        {
            "n_list": [200],
            "nu": 1.0,
            "thresholds": {"200": 0.02},
            "default_threshold": 0.05,
        },
        _run_laguerre_classical,
    ),
    "frozen-a-profile": (
        {"n_list": [10, 50], "c": 1.0, "t_list": [0.5, 1.0, 2.0], "tol": 1e-8},
        _run_frozen_a_profile,
    ),
    "frozen-a-limit": (
        {
            "n_list": [50, 100],
            "start": "semicircle:2",
            "t_list": [0.0, 0.5, 1.0],
            "order": 6,
            "moment_coeff": 12.0,
            "ks_threshold": 0.05,
        },
        _run_frozen_a_limit,
    ),
    "bessel-a-sde": (
        {
            "n": 100,
            "k_list": [0.5, 1.0, 4.0],
            "t": 1.0,
            "dt": 0.005,
            "replicas": 200,
            "order": 6,
            "rel_band": 0.05,
            "start": "zero",
            "seed": 20240,
        },
        _run_bessel_a_sde,
    ),
    "bessel-b-sde": (
        {
            "n": 100,
            "nu0": 1.0,
            "beta_list": [0.5, 2.0],
            "t": 1.0,
            "dt": 0.002,
            "replicas": 200,
            "order": 6,
            "rel_band": 0.05,
            "start": "zero",
            "seed": 20241,
        },
        _run_bessel_b_sde,
    ),
    "dunkl-quartercircle": (
        {
            "n": 150,
            "nu0": 0.0,
            "t": 0.5,
            "dt": 0.01,
            "n_seeds": 5,
            "replicas": 64,
            "ks_replicas": 300,
            "order": 3,
            "even_tol": 1e-6,
            "finite_n_coeff": 40.0,
            "ks_threshold": 0.06,
            "seed": 20242,
        },
        _run_dunkl_quartercircle,
    ),
    "ou-interchange": (
        {
            "n": 200,
            "lam": 1.0,
            "t": 8.0,
            "start": "semicircle:2",
            "ks_threshold": 0.02,
            "sde_n": 50,
            "sde_t": 0.5,
            "k": 1.0,
            "dt": 0.005,
            "replicas": 300,
            "order": 2,
            "seed": 20243,
        },
        _run_ou_interchange,
    ),
}


def _json_kind(value) -> str:
    """The JSON type of a config value; an int and a float are both numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return {bool: "boolean", dict: "object", list: "array", str: "string"}.get(type(value), "null")


def _members(value):
    """The elements of a JSON array, or the values of a JSON object."""
    return value.values() if isinstance(value, dict) else value


# Replica counts: every preset with ``replicas`` forms a ddof=1 standard error.
_MIN_COUNTS = {"replicas": 2, "ks_replicas": 1}


def run_experiment(config: dict, out_dir=None) -> ExperimentReport:
    """Run a preset experiment (with config overrides) and optionally write reports."""
    if not isinstance(config, dict):
        raise ValueError(f"a config must be a JSON object, got a JSON {_json_kind(config)}")
    name = config.get("preset")
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    defaults, runner = PRESETS[name]
    unknown = sorted(set(config) - set(defaults) - {"preset"})
    if unknown:
        raise ValueError(
            f"unknown config keys for preset {name!r}: {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(defaults))}"
        )
    cfg = dict(defaults)
    cfg.update({k: v for k, v in config.items() if k != "preset"})
    for key, value in cfg.items():
        kind = _json_kind(defaults[key])
        if _json_kind(value) != kind:
            raise ValueError(f"config key {key!r} must be a JSON {kind}, got {value!r}")
        if kind in ("array", "object"):
            (inner,) = {_json_kind(v) for v in _members(defaults[key])}  # one kind per default
            for v in _members(value):
                if _json_kind(v) != inner:
                    raise ValueError(f"config key {key!r} must hold JSON {inner}s, got {v!r}")
    for key, low in _MIN_COUNTS.items():
        if key in cfg:
            if not (cfg[key] >= low and float(cfg[key]).is_integer()):
                raise ValueError(f"config key {key!r} must be a whole number >= {low}, got {cfg[key]!r}")
            cfg[key] = int(cfg[key])
    rows = runner(cfg)
    passed = all(r["passed"] for r in rows)
    blob = json.dumps({"preset": name, **cfg}, sort_keys=True, default=str).encode()
    # only the stochastic presets draw random numbers, so only they carry a seed
    manifest = {"seed": cfg["seed"]} if "seed" in cfg else {}
    manifest |= {"config_hash": hashlib.sha256(blob).hexdigest(), "version": __version__}
    report = ExperimentReport({"preset": name, **cfg}, rows, passed, manifest)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: ExperimentReport, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(
            {
                "config": report.config,
                "rows": report.rows,
                "passed": report.passed,
                "manifest": report.manifest,
            },
            indent=2,
            default=str,
        )
    )
    (out / "manifest.json").write_text(json.dumps(report.manifest, indent=2))
    lines = ["name,n,t,metric,value,stderr,threshold,passed,hard"]
    for r in report.rows:
        lines.append(
            f'{r["name"]},{r["n"]},{r["t"]:.12g},{r["metric"]},{r["value"]:.12g},'
            f'{r["stderr"]:.12g},{r["threshold"]:.12g},{int(r["passed"])},{int(r["hard"])}'
        )
    (out / "distances.csv").write_text("\n".join(lines) + "\n")
