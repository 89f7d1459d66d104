"""The four benchmark workloads: inputs from a seed, the timed program calls, checks.

Each workload has three parts:

* ``setup(bs, seed)`` builds the inputs from the seed (start
  configurations included); it is part of ``setup_s``;
* ``run(bs, inputs)`` makes every program call of the workload, from the
  simulations to the program's own verdict statistics (moments, KS); it is
  the ``wall_s`` window;
* ``check(inputs, outputs, chk)`` compares the outputs with the reference
  computations of ``reference.py`` or with properties the method must
  have; it runs after the window.

``bs`` is the imported ``besselsim`` package.  Program functions are
looked up through their module at call time, so the traced mode's
wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.stats import beta as beta_dist

import reference as ref

# Bands on Monte Carlo means are Z_BAND standard errors plus a stated
# discretisation allowance.  The standard error uses the larger of the
# sample standard deviation and a noise model derived from exact
# variances, so a band stays valid when two or three replicas happen to
# agree closely.
Z_BAND = 5.0
NOISE_MODEL_SLACK = 1.5


class Checks:
    """Counts checks attempted and failed, keeping a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.worst = (0.0, "")

    def __call__(self, ok, what: str):
        self.attempted += 1
        if not bool(ok):
            self.failures.append(what)

    def within(self, value, limit, what: str):
        """Check value <= limit, remembering the check closest to its limit."""
        value, limit = float(value), float(limit)
        ratio = value / limit if limit > 0 else math.inf
        if not ratio <= self.worst[0]:
            self.worst = (ratio, what)
        self(value <= limit, f"{what} ({value:.4g} > {limit:.4g})")


def digest(outputs) -> str:
    """SHA-256 of every array and number a workload returned, in a fixed order."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.shape}{obj.dtype}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj, key=repr):
                h.update(repr(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for item in obj:
                feed(item)
            h.update(b"]")
        elif obj is None or isinstance(obj, (bool, int, float, complex, str, np.generic)):
            h.update(repr(obj).encode())
        else:
            feed(vars(obj))

    feed(outputs)
    return h.hexdigest()


def _program_seed(seed: int, label: str) -> int:
    """Program RNG seed for one part of a workload, derived from the workload seed."""
    key = int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def _power_moments(atoms, L):
    return np.array([np.mean(atoms**l) for l in range(L + 1)])


# ---------------------------------------------------------------------------
# sde-chamber
# ---------------------------------------------------------------------------

SDE_N, SDE_T, SDE_L = 100, 1.0, 6
SDE_A = {"k_list": (0.5, 1.0, 4.0), "dt": 0.005, "replicas": 2}
SDE_B = {"beta_list": (0.5, 2.0), "nu0": 1.0, "dt": 0.002, "replicas": 2}
# Euler-Maruyama weak-error allowances, relative, per power of the scale:
# measured biases at N = 100 are about 1.1% on E sum X^2 (type A, k = 4)
# and about 1% per squared-side order (type B, beta = 1/2).
ALLOW_S2 = 0.02
ALLOW_PER_POWER = 0.015


def sde_setup(bs, seed):
    harness = bs.harness
    return {
        "x0_a": harness.starting_profile("zero", SDE_N, harness.SCALE_SQRT_N, "A"),
        "x0_b": harness.starting_profile("zero", SDE_N, harness.SCALE_SQRT_2N, "B"),
        "seed_a": _program_seed(seed, "sde-a"),
        "seed_b": _program_seed(seed, "sde-b"),
    }


def sde_run(bs, inp):
    st, harness = bs.stochastic, bs.harness
    out = {"a": {}, "b": {}}
    for k in SDE_A["k_list"]:
        paths = []
        for r in range(SDE_A["replicas"]):
            p = st.simulate_bessel_a(inp["x0_a"], k, SDE_T, SDE_A["dt"], st.RngStream(inp["seed_a"], r))
            mom = harness.EmpiricalMeasure.from_point(p.states[-1]).moments(SDE_L)
            paths.append((p.states, mom))
        out["a"][k] = paths
    nu = SDE_B["nu0"] * SDE_N
    for beta in SDE_B["beta_list"]:
        paths = []
        for r in range(SDE_B["replicas"]):
            p = st.simulate_bessel_b(inp["x0_b"], nu, beta, SDE_T, SDE_B["dt"], st.RngStream(inp["seed_b"], r))
            mu = harness.EmpiricalMeasure.from_point(p.states[-1], harness.SCALE_SQRT_2N)
            paths.append((p.states, mu.squared().moments(SDE_L)))
        out["b"][beta] = paths
    return out


def _band(samples, model_sd, allowance):
    reps = len(samples)
    sd = float(np.std(samples, ddof=1)) if reps > 1 else 0.0
    return Z_BAND * max(sd, model_sd) / math.sqrt(reps) + allowance


def sde_check(inp, out, chk):
    n, t, L = SDE_N, SDE_T, SDE_L
    for system, runs in out.items():
        for param, paths in runs.items():
            tag = f"{system}[{param}]"
            for r, (states, mom) in enumerate(paths):
                ok = np.all(np.isfinite(states)) and np.all(np.diff(states, axis=1) <= 0)
                if system == "b":
                    ok = ok and np.all(states[:, -1] >= 0)
                chk(ok, f"{tag} replica {r}: a recorded state leaves the chamber")
                final = states[-1]
                atoms = final / math.sqrt(n) if system == "a" else final * final / (2 * n)
                mine = _power_moments(atoms, L)
                chk(np.allclose(mom, mine, rtol=1e-10, atol=1e-12), f"{tag} replica {r}: program moments differ")
            finals = np.array([s[-1] for s, _ in paths])
            s2 = np.sum(finals**2, axis=1)
            s4 = np.sum(finals**4, axis=1)
            if system == "a":
                ito = ref.ito_a(n, param, t, np.zeros(n))
                lim, cor = ref.moments_a_zero_start(param, n, L, t)
                atoms = finals / math.sqrt(n)
            else:
                ito = ref.ito_b(n, SDE_B["nu0"] * n, param, t, np.zeros(n))
                lim, cor = ref.moments_b_zero_start(SDE_B["nu0"], param, n, L, t)
                atoms = finals * finals / (2 * n)
            sd2 = math.sqrt(ito["Var_S2"])
            rel2 = sd2 / ito["E_S2"]
            band = Z_BAND * sd2 / math.sqrt(len(s2)) + ALLOW_S2 * ito["E_S2"]
            chk.within(abs(s2.mean() - ito["E_S2"]), band, f"{tag}: E sum X^2 off the Ito identity")
            band = _band(s4, NOISE_MODEL_SLACK * 2 * rel2 * ito["E_S4"], 2 * ALLOW_PER_POWER * ito["E_S4"])
            chk.within(abs(s4.mean() - ito["E_S4"]), band, f"{tag}: E sum X^4 off the Ito identity")
            moms = np.array([_power_moments(a, L) for a in atoms])
            sd_m1 = math.sqrt(t / param) / n if system == "a" else 0.0
            for l in range(1, L + 1):
                if system == "a" and l % 2:
                    # symmetric in law: no bias; centre-of-mass response l c_{l-1} m_1
                    model, allow = NOISE_MODEL_SLACK * l * lim[l - 1] * sd_m1, 0.0
                else:
                    power = l // 2 if system == "a" else l
                    model = NOISE_MODEL_SLACK * power * rel2 * abs(cor[l])
                    allow = ALLOW_PER_POWER * power * abs(lim[l])
                band = _band(moms[:, l], model, allow)
                gap = abs(moms[:, l].mean() - cor[l])
                chk.within(gap, band, f"{tag}: moment {l} off the corrected limit")


# ---------------------------------------------------------------------------
# dunkl-jump
# ---------------------------------------------------------------------------

DJ_N, DJ_T, DJ_DT, DJ_L = 150, 0.5, 0.01, 10
DJ = {"nu0_list": (0.0, 1.0), "extra_seeds": 1, "replicas": 3}


def dunkl_setup(bs, seed):
    harness = bs.harness
    x0 = harness.starting_profile("quartercircle", DJ_N, harness.SCALE_SQRT_N, "B").coords
    return {"x0": x0, "seed": _program_seed(seed, "dunkl")}


def dunkl_run(bs, inp):
    st, harness, fp = bs.stochastic, bs.harness, bs.freeprob
    out = {}
    x0, n = inp["x0"], DJ_N
    for nu0 in DJ["nu0_list"]:
        streams = [st.RngStream(inp["seed"] + 1 + s, 0) for s in range(DJ["extra_seeds"])]
        streams += [st.RngStream(inp["seed"], r) for r in range(DJ["replicas"])]
        paths = []
        for stream in streams:
            p = st.simulate_dunkl_b(x0, nu0 * n, math.inf, DJ_T, DJ_DT, stream)
            mom = harness.EmpiricalMeasure.from_point(p.states[-1]).moments(DJ_L)
            paths.append((p.states, mom, len(p.jump_log)))
        res = {"paths": paths}
        if nu0 == 0:
            edge = 2.0 * math.sqrt(2.0 * DJ_T + 1.0)
            grid = np.linspace(-edge, edge, 2001)
            dens = fp.quartercircle_dunkl_density(DJ_T, grid)
            law = fp.SpectralDensity(grid, dens, 0.0, np.zeros(grid.size, bool), [])
            pool = np.concatenate([s[-1] for s, _, _ in paths]) / math.sqrt(n)
            res["ks"] = harness.ks_distance(harness.EmpiricalMeasure(pool), law)
            res["grid"], res["dens"] = grid, dens
        out[nu0] = res
    return out


def dunkl_check(inp, out, chk):
    n, t, L = DJ_N, DJ_T, DJ_L
    x0 = inp["x0"]
    m0 = _power_moments(x0 / math.sqrt(n), L)
    for nu0, res in out.items():
        tag = f"nu0={nu0}"
        paths = res["paths"]
        finals = np.array([s[-1] for s, _, _ in paths]) / math.sqrt(n)
        for i, (states, mom, _) in enumerate(paths):
            chk(np.all(np.isfinite(states)), f"{tag} path {i}: non-finite state")
            chk(np.allclose(mom, _power_moments(finals[i], L), rtol=1e-10, atol=1e-12), f"{tag} path {i}: program moments differ")
        moms = np.array([_power_moments(f, L) for f in finals])
        spread = float(np.max(moms[:, 2::2].max(axis=0) - moms[:, 2::2].min(axis=0)))
        chk.within(spread, 1e-6, f"{tag}: even moments differ across seeds")
        # jumps only permute and flip, so |x| follows the frozen type B flow,
        # whose S2 grows at the exact rate 2 (N - 1 + nu) per unit time
        s2_gain = float(np.mean(finals[0] ** 2) - m0[2])
        exact = 2.0 * t * (n - 1 + nu0 * n) / n
        chk.within(abs(s2_gain - exact), 1e-8 * (1 + exact), f"{tag}: S2 gain off the exact frozen rate")
        lim = ref.dunkl_limit_moments(m0, nu0, t, L)
        replicas = moms[DJ["extra_seeds"]:]
        for l in (1, 3, 5):
            model = NOISE_MODEL_SLACK * math.sqrt(lim[2 * l] / n)
            band = _band(replicas[:, l], model, l * l * abs(lim[l - 1]) / n)
            gap = abs(replicas[:, l].mean() - lim[l])
            chk.within(gap, band, f"{tag}: odd moment {l} off the limit")
        if "ks" in res:
            pool = finals.ravel()
            grid, dens = res["grid"], res["dens"]
            cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
            cdf /= cdf[-1]
            ks = ref.ks_distance(pool, lambda x: np.interp(x, grid, cdf))
            threshold = 2.5 / math.sqrt(pool.size) + 2.0 / n
            chk.within(ks, threshold, f"{tag}: pooled KS to the closed form")
            chk.within(abs(res["ks"] - ks), 1e-6, f"{tag}: program KS differs")
            # the even part of the nu0 = 0 limit is the semicircle of radius 2 sqrt(2t + 1)
            sym = np.concatenate([finals[0], -finals[0]])
            r = 2.0 * math.sqrt(2.0 * t + 1.0)
            ks_even = ref.ks_distance(sym, lambda x: ref.semicircle_cdf(r, x))
            chk.within(ks_even, 3.0 / n, f"{tag}: even-part KS to the semicircle")


# ---------------------------------------------------------------------------
# frozen-zeros
# ---------------------------------------------------------------------------

FZ = {
    "hermite_n": (400, 1000, 2000),
    "laguerre_n": (400, 1000),
    "flow_n": 150,
    "t_grid": (0.0, 0.25, 0.5, 1.0),
}


# harness.ks_distance takes left limits 1e-9 (1 + |x|) to the left of each
# atom, which moves a steep CDF (beta(1/2, 3/2) near 0) by up to ~1e-6.
KS_AGREE = 1e-5


def frozen_setup(bs, seed):
    harness = bs.harness
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(1.5, 2.5))
    n = FZ["flow_n"]
    return {
        "nu_lag": float(rng.uniform(0.5, 3.0)),
        "nu_flow": float(rng.uniform(0.5, 3.0)),
        "c_a": float(rng.uniform(0.5, 1.5)),
        "c_b": float(rng.uniform(0.5, 1.5)),
        "radius": radius,
        "sc_start": harness.starting_profile(f"semicircle:{radius!r}", n, harness.SCALE_SQRT_N, "A"),
        "qc_start": harness.starting_profile("quartercircle", n, harness.SCALE_SQRT_2N, "B"),
    }


def frozen_run(bs, inp):
    zeros, frozen, harness, fp = bs.zeros, bs.frozen, bs.harness, bs.freeprob
    out = {"hermite": {}, "laguerre": {}}
    sc = fp.semicircle(math.sqrt(2.0))
    for n in FZ["hermite_n"]:
        z = zeros.hermite_zeros(n).zeros
        ks = harness.ks_distance(harness.EmpiricalMeasure(z / math.sqrt(n)), sc)
        out["hermite"][n] = (z, ks)
    target = fp.beta_law(0.5, 1.5)
    for n in FZ["laguerre_n"]:
        z = zeros.laguerre_zeros(n, inp["nu_lag"]).zeros
        ks = harness.ks_distance(harness.EmpiricalMeasure(z / (4.0 * n)), target)
        out["laguerre"][n] = (z, ks)
    n, ts = FZ["flow_n"], FZ["t_grid"]
    za = zeros.hermite_zeros(n).zeros
    zb = zeros.laguerre_zeros(n, inp["nu_flow"]).zeros
    out["profile_a"] = (za, frozen.solve_frozen("a", inp["c_a"] * za, ts).states)
    out["profile_b"] = (zb, frozen.solve_frozen("b", inp["c_b"] * np.sqrt(zb), ts, nu=inp["nu_flow"]).states)
    out["quantile_a"] = frozen.solve_frozen("a", inp["sc_start"], ts).states
    out["quantile_b"] = frozen.solve_frozen("b", inp["qc_start"], ts, nu=inp["nu_flow"]).states
    return out


def frozen_check(inp, out, chk):
    for n, (z, ks) in out["hermite"].items():
        jac = ref.hermite_zeros_jacobi(n)
        err = float(np.max(np.abs(z - jac)) / np.max(np.abs(jac)))
        chk.within(err, 1e-10, f"hermite N={n}: zeros off the Jacobi eigenvalues (relative)")
        mine = ref.ks_distance(z / math.sqrt(n), lambda x: ref.semicircle_cdf(math.sqrt(2.0), x))
        chk.within(mine, 3.0 / n, f"hermite N={n}: KS to the semicircle")
        chk.within(abs(ks - mine), KS_AGREE, f"hermite N={n}: program KS differs")
    nu = inp["nu_lag"]
    for n, (z, ks) in out["laguerre"].items():
        jac = ref.laguerre_zeros_jacobi(n, nu)
        err = float(np.max(np.abs(z - jac)) / np.max(np.abs(jac)))
        chk.within(err, 1e-10, f"laguerre N={n}: zeros off the Jacobi eigenvalues (relative)")
        mine = ref.ks_distance(z / (4.0 * n), lambda x: beta_dist.cdf(x, 0.5, 1.5))
        chk.within(mine, 3.0 / n, f"laguerre N={n}: KS to beta(1/2, 3/2)")
        chk.within(abs(ks - mine), KS_AGREE, f"laguerre N={n}: program KS differs")
    n, ts = FZ["flow_n"], np.array(FZ["t_grid"])
    za, states_a = out["profile_a"]
    zb, states_b = out["profile_b"]
    chk(np.allclose(za, ref.hermite_zeros_jacobi(n), rtol=0, atol=1e-10 * np.abs(za).max()), "profile Hermite zeros off")
    chk(np.allclose(zb, ref.laguerre_zeros_jacobi(n, inp["nu_flow"]), rtol=0, atol=1e-10 * zb.max()), "profile Laguerre zeros off")
    for tag, states, exact in (
        ("a", states_a, ref.self_similar_a(za, inp["c_a"], ts)),
        ("b", states_b, ref.self_similar_b(zb, inp["c_b"], ts)),
    ):
        dev = float(np.max(np.abs(states - exact)))
        chk.within(dev, 1e-8 * (1.0 + np.abs(exact).max()), f"profile {tag}: off the self-similar solution")
    for tag, states in (("profile a", states_a), ("profile b", states_b), ("quantile a", out["quantile_a"]), ("quantile b", out["quantile_b"])):
        ok = np.all(np.isfinite(states)) and np.all(np.diff(states, axis=1) < 0)
        if tag.endswith("b"):
            ok = ok and np.all(states[:, -1] > 0)
        chk(ok, f"{tag}: a state leaves the open chamber")
    s1, s2 = ref.power_sums_a(out["quantile_a"])
    chk.within(np.max(np.abs(s1 - s1[0])), 1e-10, "quantile a: S1 drifts")
    gap = float(np.max(np.abs(s2 - s2[0] - ref.frozen_identities_a(n, ts))))
    chk.within(gap, 1e-8, "quantile a: S2 identity")
    sb = ref.power_sum_b(out["quantile_b"])
    gap = float(np.max(np.abs(sb - sb[0] - ref.frozen_identity_b(n, inp["nu_flow"], ts))))
    chk.within(gap, 1e-8, "quantile b: S1 slope identity")


# ---------------------------------------------------------------------------
# limit-law
# ---------------------------------------------------------------------------

LL = {
    "L": 12,
    # nu0 = 1 Dunkl points: near the axis (characteristic solve) and beyond the support
    "near_axis": (complex(-1.0, 0.5), complex(0.5, 0.5), complex(1.5, 0.5)),
    "dunkl_t": 0.5,
    "qc_grid": 61,
    "mp_grid": 201,
}


# Gauss-Legendre rule in theta for the mass of a density on [-edge, edge]
# through x = edge sin(theta), which removes the square-root edges.
_MASS_NODES, _MASS_WEIGHTS = np.polynomial.legendre.leggauss(400)
_MASS_THETA = _MASS_NODES * math.pi / 2.0
_MASS_WEIGHTS = _MASS_WEIGHTS * math.pi / 2.0


def limit_setup(bs, seed):
    rng = np.random.default_rng(seed)
    return {
        "r0": float(rng.uniform(1.0, 2.0)),
        "t_a": float(rng.uniform(0.5, 1.0)),
        "nu0_b": float(rng.uniform(0.5, 1.5)),
        "t_b": float(rng.uniform(0.5, 1.0)),
        "t_qc": float(rng.uniform(0.25, 1.0)),
        "angles": rng.uniform(0.2, math.pi - 0.2, size=3),
    }


def limit_run(bs, inp):
    fp, mo = bs.freeprob, bs.moments
    L = LL["L"]
    out = {}
    # type A: semicircle start, free convolution with the semicircle
    sc0 = fp.semicircle(inp["r0"])
    law_a = fp.limit_law_a(sc0, inp["t_a"])
    out["a_moments"] = law_a.moments(L)
    out["a_recurrence"] = mo.limit_moments_a(sc0.moments(L), inp["t_a"], L).floats()
    out["a_points"] = [complex(x, 2.0) for x in (-1.0, 0.3, 1.7)]
    out["a_g"] = [law_a.stieltjes(z) for z in out["a_points"]]
    # type B: delta_0 start gives sqrt(MP(1 + nu0, t)); density by Stieltjes inversion
    law_b = fp.limit_law_b([1.0] + [0.0] * (2 * L), inp["nu0_b"], inp["t_b"])
    sq = law_b.sq_law
    hi = inp["t_b"] * (math.sqrt(1.0 + inp["nu0_b"]) + 1.0) ** 2
    out["mp_grid"] = np.linspace(0.0, hi, LL["mp_grid"] + 2)[1:-1]
    out["mp_inv"] = fp.stieltjes_invert(sq.stieltjes, out["mp_grid"])
    out["b_moments"] = sq.moments(L)
    out["b_recurrence"] = mo.limit_moments_b([1.0] + [0.0] * L, inp["nu0_b"], inp["t_b"], L).floats()
    # nu0 = 0 Dunkl law from the quartercircle: composition route and closed form
    qc = fp.quartercircle_law()
    t_qc = inp["t_qc"]
    edge = 2.0 * math.sqrt(2.0 * t_qc + 1.0)
    grid = np.linspace(-0.95 * edge, 0.95 * edge, LL["qc_grid"])
    out["qc_grid"] = grid
    out["qc_inv"] = fp.stieltjes_invert(lambda z: fp.dunkl_limit_stieltjes(qc, 0.0, t_qc, z), grid)
    out["qc_closed"] = fp.quartercircle_dunkl_density(t_qc, grid)
    out["qc_mass_nodes"] = edge * np.sin(_MASS_THETA)
    out["qc_mass_density"] = fp.quartercircle_dunkl_density(t_qc, out["qc_mass_nodes"])
    # nu0 = 1 Dunkl law: characteristic route near the axis and beyond the support
    t = LL["dunkl_t"]
    out["dunkl_moments"] = mo.limit_moments_dunkl(list(fp.quartercircle_moments(2 * L)), 1.0, t, 2 * L).floats()
    out["far_points"] = [5.0 * complex(math.cos(a), math.sin(a)) for a in inp["angles"]]
    out["near_g"] = [fp.dunkl_limit_stieltjes(qc, 1.0, t, z) for z in LL["near_axis"]]
    out["far_g"] = [fp.dunkl_limit_stieltjes(qc, 1.0, t, z) for z in out["far_points"]]
    return out


def _semicircle_g(r, z):
    """Closed-form semicircle Stieltjes transform, branch with G ~ 1/z."""
    root = complex(z - r) ** 0.5 * complex(z + r) ** 0.5
    return 2.0 / (r * r) * (z - root)


def limit_check(inp, out, chk):
    L = LL["L"]
    # semicircle boxplus semicircle is the semicircle of radius sqrt(r0^2 + 4t)
    r = math.sqrt(inp["r0"] ** 2 + 4.0 * inp["t_a"])
    sc_mom = np.array([0.0 if l % 2 else math.comb(l, l // 2) / (l // 2 + 1) * (r / 2.0) ** l for l in range(L + 1)])
    gap = float(np.max(np.abs(np.array(out["a_moments"]) - sc_mom) / np.maximum(1.0, sc_mom)))
    chk.within(gap, 1e-9, "sc boxplus sc: moments off the closed form")
    gap = float(np.max(np.abs(out["a_recurrence"] - sc_mom) / np.maximum(1.0, sc_mom)))
    chk.within(gap, 1e-9, "type A recurrence off the semicircle moments")
    for z, g in zip(out["a_points"], out["a_g"]):
        chk.within(abs(g - _semicircle_g(r, z)), 1e-6, f"sc boxplus sc: G({z}) off the closed form")
        chk(g.imag < 0, f"sc boxplus sc: G({z}) breaks the Herglotz sign")
    # delta_0 start: the squared side is MP(1 + nu0, t).  Inversion at eps >= 1e-4
    # resolves a square-root edge only to O(sqrt(eps)), so the density is
    # compared at points 1% of the support width or more from either edge.
    c, tb = 1.0 + inp["nu0_b"], inp["t_b"]
    inv, grid = out["mp_inv"], out["mp_grid"]
    exact = ref.mp_density(c, tb, grid)
    lo, hi = tb * (math.sqrt(c) - 1.0) ** 2, tb * (math.sqrt(c) + 1.0) ** 2
    ok = ~inv.diverged
    away = ok & (np.minimum(np.abs(grid - lo), np.abs(grid - hi)) >= 0.01 * (hi - lo))
    err = float(np.max(np.abs(inv.density[away] - exact[away]))) if away.any() else math.inf
    chk.within(err, 2e-4 * exact.max(), "MP density by inversion, away from the edges")
    chk(ok.sum() >= 0.95 * grid.size, f"MP inversion flagged {int((~ok).sum())} of {grid.size} points")
    mp = ref.moments_b_zero_start(inp["nu0_b"], 1.0, 1, L, tb)[0]
    for name in ("b_moments", "b_recurrence"):
        gap = float(np.max(np.abs(np.array(out[name]) - mp) / np.maximum(1.0, mp)))
        chk.within(gap, 1e-9, f"{name} off the MP moments")
    # nu0 = 0 Dunkl law from the quartercircle
    t_qc, grid = inp["t_qc"], out["qc_grid"]
    closed, inv = out["qc_closed"], out["qc_inv"]
    err = float(np.max(np.abs(inv.density - closed)))
    chk.within(err, 1e-3, "quartercircle Dunkl: composition route off the closed form")
    even = 0.5 * (closed + closed[::-1])
    edge = 2.0 * math.sqrt(2.0 * t_qc + 1.0)
    err = float(np.max(np.abs(even - ref.semicircle_density(edge, grid))))
    chk.within(err, 1e-10, "quartercircle Dunkl: even part off the semicircle")
    mass = float(np.sum(_MASS_WEIGHTS * out["qc_mass_density"] * edge * np.cos(_MASS_THETA)))
    chk.within(abs(mass - 1.0), 1e-6, "quartercircle Dunkl: mass off 1")
    # nu0 = 1 Dunkl law
    t = LL["dunkl_t"]
    lim = ref.dunkl_limit_moments(ref.quartercircle_moments(2 * L), 1.0, t, 2 * L)
    gap = float(np.max(np.abs(out["dunkl_moments"] - lim) / np.maximum(1.0, np.abs(lim))))
    chk.within(gap, 1e-9, "Dunkl limit moments off the reference recurrence")
    for z, g in zip(LL["near_axis"], out["near_g"]):
        chk(np.isfinite(g) and g.imag < 0, f"Dunkl G({z}) = {g} breaks the Herglotz sign")
    series = ref.dunkl_limit_moments(ref.quartercircle_moments(80), 1.0, t, 80)
    for z, g in zip(out["far_points"], out["far_g"]):
        s = ref.moment_series_stieltjes(series, z)
        chk.within(abs(g - s) / abs(s), 1e-6, f"Dunkl G({z}) off the moment series (relative)")
        chk(g.imag < 0, f"Dunkl G({z}) breaks the Herglotz sign")


WORKLOADS = {
    "sde-chamber": (sde_setup, sde_run, sde_check),
    "dunkl-jump": (dunkl_setup, dunkl_run, dunkl_check),
    "frozen-zeros": (frozen_setup, frozen_run, frozen_check),
    "limit-law": (limit_setup, limit_run, limit_check),
}
