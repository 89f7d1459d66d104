"""Numerical free probability: laws, transforms, and free additive convolution.

Moment sequences and free cumulant sequences are mutually converted
through the non-crossing-partition recursion in its convolution form

    m_n = sum_{s=1}^n k_s [z^{n-s}] M(z)^s,     M(z) = 1 + sum m_n z^n,

which is ring-generic: it runs unchanged over floats, exact rationals,
and polynomials in t (the latter feed the R-transform PDE checks).
Free additive convolution adds cumulants.

Laws are represented by closed forms where available (semicircle,
Marchenko-Pastur, quartercircle, atoms) and otherwise by truncated
moment sequences, evaluated near the real axis through the Gaussian
quadrature rule of the truncated moment problem (Chebyshev algorithm +
Golub-Welsch); the raw moment series diverges inside the support, so it
is only used far from it.  Square-root laws carry their squared-side law
and never form half-integer moments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.linalg import eigh_tridiagonal

from .moments import catalan

__all__ = [
    "FreeProbDomainError",
    "LimitLaw",
    "SpectralDensity",
    "moments_to_cumulants",
    "cumulants_to_moments",
    "free_add",
    "even_part_moments",
    "square_moments",
    "semicircle_moments",
    "mp_cumulants",
    "quartercircle_moments",
    "semicircle",
    "marchenko_pastur",
    "quartercircle_law",
    "atom_law",
    "moment_law",
    "beta_law",
    "sqrt_law",
    "square_pushforward",
    "limit_law_a",
    "limit_law_b",
    "dunkl_limit_law",
    "stieltjes",
    "stieltjes_invert",
    "dunkl_limit_stieltjes",
    "quartercircle_dunkl_density",
    "pde_residual",
    "atoms_from_moments",
]


class FreeProbDomainError(ValueError):
    """Branch selection or functional inversion failed in the requested region."""


# ---------------------------------------------------------------------------
# moment / cumulant algebra (ring-generic)
# ---------------------------------------------------------------------------


def _moment_series_powers(get_m, L):
    """Table P[s][j] = [z^j] M(z)^s, filled along anti-diagonals s + j = n.

    ``get_m(b)`` returns the moment m_b, which is only consulted for b < n
    when the anti-diagonal n is filled, so the same driver serves both the
    forward recursion (moments known) and the inverse (moments produced
    one order at a time).  Runs over any commutative ring.
    """
    P = [[0] * (L + 1) for _ in range(L + 1)]
    P[0][0] = 1

    def fill_diagonal(n):
        for s in range(1, n + 1):
            j = n - s
            acc = 0
            prev = P[s - 1]
            for b in range(j + 1):
                pb = prev[j - b]
                if pb == 0:
                    continue
                mb = 1 if b == 0 else get_m(b)
                if mb == 0:
                    continue
                acc = acc + pb * mb
            P[s][j] = acc

    return P, fill_diagonal


def moments_to_cumulants(m, L: int | None = None) -> list:
    """Free cumulants k_1..k_L from moments m_0..m_L (m_0 = 1).

    Returns a list with index n holding k_n (index 0 unused, set to 0).
    """
    if m[0] != 1:
        raise ValueError("m_0 must be 1")
    L = len(m) - 1 if L is None else min(L, len(m) - 1)
    P, fill = _moment_series_powers(lambda b: m[b], L)
    k = [0] * (L + 1)
    for n in range(1, L + 1):
        fill(n)
        acc = m[n]
        for s in range(1, n):
            acc = acc - k[s] * P[s][n - s]
        k[n] = acc
    return k


def cumulants_to_moments(k, L: int | None = None) -> list:
    """Moments m_0..m_L from free cumulants (k[0] ignored)."""
    L = len(k) - 1 if L is None else L
    m = [1] + [0] * L
    P, fill = _moment_series_powers(lambda b: m[b], L)
    for n in range(1, L + 1):
        fill(n)
        acc = 0
        for s in range(1, n + 1):
            ks = k[s] if s < len(k) else 0
            if ks == 0:
                continue
            acc = acc + ks * P[s][n - s]
        m[n] = acc
    return m


def free_add(m1, m2, L: int | None = None) -> list:
    """Moments of the free additive convolution (cumulants add)."""
    if L is None:
        L = min(len(m1), len(m2)) - 1
    k1 = moments_to_cumulants(m1, L)
    k2 = moments_to_cumulants(m2, L)
    k = [a + b for a, b in zip(k1, k2)]
    return cumulants_to_moments(k, L)


def even_part_moments(m) -> list:
    """Moments of the even part (odd moments zeroed)."""
    return [v if l % 2 == 0 else 0 * v for l, v in enumerate(m)]


def square_moments(m) -> list:
    """Moments of the pushforward under x -> x^2: new m_l = old m_{2l}."""
    return [m[2 * l] for l in range((len(m) - 1) // 2 + 1)]


def semicircle_moments(r2, L: int) -> list:
    """Moments of the semicircle law given the squared radius r2 = R^2.

    Even moments are (r2/4)^n * Catalan(n); exact when r2 is exact.
    """
    quarter = Fraction(r2, 4) if isinstance(r2, (int, Fraction)) else r2 / 4.0
    out = []
    for l in range(L + 1):
        if l % 2:
            out.append(0 * quarter)
        else:
            out.append(catalan(l // 2) * quarter ** (l // 2))
    out[0] = 1 if isinstance(quarter, Fraction) else 1.0
    return out


def mp_cumulants(c, t, L: int) -> list:
    """Free cumulants of the Marchenko-Pastur law: k_n = c * t^n."""
    return [0] + [c * t**n for n in range(1, L + 1)]


@lru_cache(maxsize=None)
def quartercircle_moments(L: int) -> tuple:
    """Moments of the quartercircle density sqrt(4-x^2)/pi on [0, 2]."""
    out = []
    for l in range(L + 1):
        if l % 2 == 0:
            out.append(float(catalan(l // 2)))
        else:
            out.append(
                2.0**l * math.gamma((l + 1) / 2) / (math.sqrt(math.pi) * math.gamma((l + 4) / 2))
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# quadrature representation of a truncated moment sequence
# ---------------------------------------------------------------------------


def _jacobi_from_moments(m, K):
    """Recurrence coefficients (alpha, beta) via the Chebyshev algorithm.

    Stops at the first level k whose beta_k is not positive (the moment
    sequence loses positivity there, a finite-precision effect for long
    float sequences) and returns the k coefficients before it.  Level k's
    values do not depend on the requested depth, so this is the rule a
    restart at depth k would build.
    """
    m = [float(v) for v in m]
    K = min(K, len(m) // 2)
    if K < 1:
        raise FreeProbDomainError("moment sequence admits no positive quadrature rule")
    sigma_prev = None
    sigma = m
    alpha = [m[1] / m[0]]
    beta = [m[0]]
    for k in range(1, K):
        new = [0.0] * len(m)
        for l in range(k, 2 * K - k):
            s = sigma[l + 1] - alpha[k - 1] * sigma[l]
            if sigma_prev is not None:
                s -= beta[k - 1] * sigma_prev[l]
            new[l] = s
        if new[k] <= 0:
            break
        alpha.append(new[k + 1] / new[k] - sigma[k] / sigma[k - 1])
        beta.append(new[k] / sigma[k - 1])
        sigma_prev, sigma = sigma, new
    return np.array(alpha), np.array(beta)


def atoms_from_moments(m, K: int | None = None):
    """Gaussian quadrature (nodes, weights) matching moments m_0..m_{2K-1}."""
    if K is None:
        K = min((len(m)) // 2, 20)
    alpha, beta = _jacobi_from_moments(m, K)
    if alpha.size == 1:
        return np.array([alpha[0]]), np.array([beta[0]])
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    weights = beta[0] * vecs[0] ** 2
    return nodes, weights


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


@dataclass
class LimitLaw:
    """A limit law with evaluable moments, density, CDF and Stieltjes transform.

    ``kind`` selects closed forms; ``sqrt`` laws live on [0, inf) (or on R
    when symmetrized) and carry the law of their square instead of
    half-integer moments.
    """

    kind: str
    moments_: list | None = None
    params: dict = field(default_factory=dict)
    sq_law: "LimitLaw | None" = None
    _atom_cache: tuple | None = field(default=None, repr=False)

    # -- moments ------------------------------------------------------

    def moment(self, l: int) -> float:
        if self.kind == "sqrt":
            if l % 2 == 0:
                return float(self.sq_law.moment(l // 2))
            if self.params.get("symmetrized"):
                return 0.0
            nodes, weights = self.sq_law.quad_atoms()
            return float(np.sum(weights * np.sqrt(np.maximum(nodes, 0.0)) ** l))
        if self.moments_ is None or l >= len(self.moments_):
            ext = self._extend_moments(l)
            if ext is None:
                raise ValueError(f"moment of order {l} not available for kind {self.kind}")
            return float(ext)
        return float(self.moments_[l])

    def _extend_moments(self, l):
        """Closed-form kinds can produce moments of any order on demand."""
        if self.kind == "semicircle":
            r = self.params["r"]
            return 0.0 if l % 2 else float(catalan(l // 2)) * (r * r / 4.0) ** (l // 2)
        if self.kind == "mp":
            m = cumulants_to_moments(mp_cumulants(self.params["c"], self.params["t"], l), l)
            return float(m[l])
        if self.kind == "quartercircle":
            return quartercircle_moments(l)[l]
        if self.kind == "atoms":
            locs, weights = self.quad_atoms()
            return float(np.sum(weights * locs**l))
        if self.kind == "beta":
            from scipy.stats import beta as beta_dist

            return float(beta_dist.moment(l, self.params["a"], self.params["b"]))
        return None

    def moments(self, L: int) -> list:
        return [self.moment(l) for l in range(L + 1)]

    def quad_atoms(self):
        """Discrete quadrature representation (nodes, weights)."""
        if self._atom_cache is None:
            if self.kind == "atoms":
                cache = (
                    np.asarray(self.params["locs"], dtype=float),
                    np.asarray(self.params["weights"], dtype=float),
                )
            elif self.kind == "sqrt":
                nodes, weights = self.sq_law.quad_atoms()
                roots = np.sqrt(np.maximum(nodes, 0.0))
                if self.params.get("symmetrized"):
                    cache = (
                        np.concatenate([-roots[::-1], roots]),
                        np.concatenate([weights[::-1] / 2, weights / 2]),
                    )
                else:
                    cache = (roots, weights)
            else:
                m = self.moments_ if self.moments_ is not None else self.moments(40)
                cache = atoms_from_moments(m)
            self._atom_cache = cache
        return self._atom_cache

    # -- pointwise evaluations -----------------------------------------

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "semicircle":
            r = self.params["r"]
            if r == 0:
                return np.zeros_like(x)
            inside = np.abs(x) < r
            out = np.zeros_like(x)
            out[inside] = 2.0 / (math.pi * r * r) * np.sqrt(r * r - x[inside] ** 2)
            return out
        if self.kind == "mp":
            c, t = self.params["c"], self.params["t"]
            xm = t * (math.sqrt(c) - 1) ** 2
            xp = t * (math.sqrt(c) + 1) ** 2
            out = np.zeros_like(x)
            inside = (x > xm) & (x < xp) & (x > 0)
            out[inside] = np.sqrt((xp - x[inside]) * (x[inside] - xm)) / (
                2 * math.pi * t * x[inside]
            )
            return out
        if self.kind == "quartercircle":
            out = np.zeros_like(x)
            inside = (x > 0) & (x < 2)
            out[inside] = np.sqrt(4.0 - x[inside] ** 2) / math.pi
            return out
        if self.kind == "beta":
            from scipy.stats import beta as beta_dist

            return beta_dist.pdf(x, self.params["a"], self.params["b"])
        if self.kind == "sqrt":
            y = x * x
            base = self.sq_law.density(y)
            if self.params.get("symmetrized"):
                return np.abs(x) * base
            return np.where(x >= 0, 2.0 * x * base, 0.0)
        raise ValueError(f"no closed density for kind {self.kind}")

    def atom_at_zero(self) -> float:
        if self.kind == "mp" and self.params["c"] < 1:
            return 1.0 - self.params["c"]
        if self.kind == "sqrt":
            return self.sq_law.atom_at_zero()
        return 0.0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "semicircle":
            r = self.params["r"]
            if r == 0:
                return (x >= 0).astype(float)
            xc = np.clip(x, -r, r)
            return 0.5 + (xc * np.sqrt(r * r - xc * xc) / (r * r) + np.arcsin(xc / r)) / math.pi
        if self.kind == "beta":
            from scipy.stats import beta as beta_dist

            return beta_dist.cdf(x, self.params["a"], self.params["b"])
        if self.kind == "quartercircle":
            xc = np.clip(x, 0.0, 2.0)
            return (xc * np.sqrt(4.0 - xc * xc) / 2.0 + 2.0 * np.arcsin(xc / 2.0)) / math.pi
        if self.kind == "mp":
            return self._grid_cdf()(x)
        if self.kind == "atoms":
            locs, weights = self.quad_atoms()
            order = np.argsort(locs)
            locs, weights = locs[order], weights[order]
            cum = np.cumsum(weights)
            idx = np.searchsorted(locs, x, side="right")
            return np.concatenate([[0.0], cum])[idx]
        if self.kind == "sqrt":
            fs = self.sq_law.cdf(x * x)
            if self.params.get("symmetrized"):
                return np.where(x >= 0, 0.5 + fs / 2.0, (1.0 - fs) / 2.0)
            return np.where(x >= 0, fs, 0.0)
        # moment-backed fallback: step CDF of the quadrature atoms
        locs, weights = self.quad_atoms()
        order = np.argsort(locs)
        cum = np.cumsum(weights[order])
        idx = np.searchsorted(locs[order], x, side="right")
        return np.concatenate([[0.0], cum])[idx]

    def _grid_cdf(self):
        if "grid_cdf" not in self.params:
            c, t = self.params["c"], self.params["t"]
            xm = t * (math.sqrt(c) - 1) ** 2
            xp = t * (math.sqrt(c) + 1) ** 2
            xs = np.linspace(xm, xp, 4001)
            pdf = self.density(xs)
            cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xs))])
            atom = self.atom_at_zero()
            cdf = atom + cdf * (1.0 - atom) / cdf[-1]

            def f(x, xs=xs, cdf=cdf, xm=xm, atom=atom):
                x = np.asarray(x, dtype=float)
                out = np.interp(x, xs, cdf, left=0.0, right=1.0)
                return np.where(x < 0, 0.0, np.where(x < xm, atom, out))

            self.params["grid_cdf"] = f
        return self.params["grid_cdf"]

    def stieltjes(self, z: complex) -> complex:
        return stieltjes(self, z)

    def support_radius(self) -> float:
        if self.kind == "semicircle":
            return self.params["r"]
        if self.kind == "mp":
            c, t = self.params["c"], self.params["t"]
            return t * (math.sqrt(c) + 1) ** 2
        if self.kind == "quartercircle":
            return 2.0
        if self.kind == "sqrt":
            return math.sqrt(max(self.sq_law.support_radius(), 0.0))
        if self.kind == "atoms":
            return float(np.max(np.abs(self.params["locs"])))
        return _series_radius(self.moments_)


def semicircle(r: float) -> LimitLaw:
    """Semicircle law with support [-r, r]."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    mom = semicircle_moments(float(r) ** 2, 40)
    return LimitLaw("semicircle", [float(v) for v in mom], {"r": float(r)})


def marchenko_pastur(c: float, t: float) -> LimitLaw:
    """Marchenko-Pastur law with shape c >= 0 and scale t > 0."""
    if c < 0 or t <= 0:
        raise ValueError("require c >= 0 and t > 0")
    mom = cumulants_to_moments(mp_cumulants(float(c), float(t), 40))
    return LimitLaw("mp", [float(v) for v in mom], {"c": float(c), "t": float(t)})


def quartercircle_law() -> LimitLaw:
    """Quartercircle law: density sqrt(4 - x^2)/pi on [0, 2]."""
    return LimitLaw("quartercircle", list(quartercircle_moments(40)), {})


def atom_law(locs, weights=None) -> LimitLaw:
    locs = np.atleast_1d(np.asarray(locs, dtype=float))
    if weights is None:
        weights = np.full(locs.size, 1.0 / locs.size)
    weights = np.asarray(weights, dtype=float)
    mom = [float(np.sum(weights * locs**l)) for l in range(41)]
    return LimitLaw("atoms", mom, {"locs": locs, "weights": weights})


def moment_law(m) -> LimitLaw:
    return LimitLaw("moments", list(m), {})


def beta_law(a: float, b: float) -> LimitLaw:
    """Beta law on [0, 1], used for the classical Laguerre-zero limit."""
    from scipy.stats import beta as beta_dist

    mom = [float(beta_dist.moment(l, a, b)) if l else 1.0 for l in range(25)]
    return LimitLaw("beta", mom, {"a": a, "b": b})


def sqrt_law(squared: LimitLaw, symmetrized: bool = False) -> LimitLaw:
    """Square-root pushforward of a law on [0, inf); optionally symmetrized."""
    return LimitLaw("sqrt", None, {"symmetrized": symmetrized}, sq_law=squared)


def square_pushforward(law: LimitLaw) -> LimitLaw:
    """Pushforward under x -> x^2."""
    if law.kind == "sqrt":
        return law.sq_law
    if law.kind == "semicircle":
        # (semicircle R)^2 = MP(1, R^2/4)
        r = law.params["r"]
        return marchenko_pastur(1.0, r * r / 4.0)
    if law.moments_ is not None:
        return moment_law(square_moments(law.moments_))
    raise ValueError(f"cannot square kind {law.kind}")


def _coerce_moments(mu0, L):
    if isinstance(mu0, LimitLaw):
        return mu0.moments(L)
    return list(mu0)[: L + 1]


def limit_law_a(mu0, t: float, L: int = 24) -> LimitLaw:
    """Long-time law of the type A system: semicircle(2 sqrt(t)) boxplus mu0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    m0 = _coerce_moments(mu0, L)
    if t == 0:
        return mu0 if isinstance(mu0, LimitLaw) else moment_law(m0)
    if all(v == 0 for v in m0[1:]):
        return semicircle(2.0 * math.sqrt(t))
    if isinstance(mu0, LimitLaw) and mu0.kind == "semicircle":
        return semicircle(math.sqrt(mu0.params["r"] ** 2 + 4.0 * t))
    mom = free_add(semicircle_moments(4.0 * t, L), m0, L)
    law = moment_law([float(v) for v in mom])
    law.params.update({"composite": "free-conv-a", "t": t})
    return law


def limit_law_b(mu0, nu0: float, t: float, L: int = 24) -> LimitLaw:
    """Type B limit: sqrt( MP(nu0,t) boxplus (sc(2 sqrt t) boxplus mu0_even)^2 ).

    ``mu0`` is the initial law on [0, inf); the returned law carries the
    squared-side composite.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if nu0 < 0:
        raise ValueError("nu0 must be nonnegative")
    m0 = _coerce_moments(mu0, 2 * L)
    even = even_part_moments(m0)
    inner = free_add(semicircle_moments(4.0 * t, 2 * L), even, 2 * L)
    sq = square_moments(inner)
    if all(v == 0 for v in m0[1:]):
        sq_comp = marchenko_pastur(1.0 + nu0, t)
    else:
        if nu0 > 0:
            total = [
                a + b
                for a, b in zip(moments_to_cumulants(sq, L), mp_cumulants(nu0, t, L))
            ]
            sq_comp = moment_law([float(v) for v in cumulants_to_moments(total, L)])
        else:
            sq_comp = moment_law([float(v) for v in sq[: L + 1]])
        sq_comp.params.update({"composite": "free-conv-b", "t": t, "nu0": nu0})
    return sqrt_law(sq_comp)


def dunkl_limit_law(mu0, nu0: float, t: float, L: int = 24) -> LimitLaw:
    """Full-space jump-system limit: symmetrized even part plus odd transform.

    The even part is the symmetrized sqrt composite with doubled time; the
    odd part is available only through :func:`dunkl_limit_stieltjes` and is
    attached as an evaluator in ``params``.
    """
    m0 = _coerce_moments(mu0, 2 * L)
    even_m = even_part_moments(m0)
    # even part on the sqrt(N) scaling: the type B composite with doubled time.
    inner = free_add(semicircle_moments(8.0 * t, 2 * L), even_m, 2 * L)
    sq = square_moments(inner)
    if nu0 > 0:
        total = [
            a + b for a, b in zip(moments_to_cumulants(sq, L), mp_cumulants(nu0, 2.0 * t, L))
        ]
        sq = cumulants_to_moments(total, L)
    even_law = sqrt_law(moment_law([float(v) for v in sq[: L + 1]]), symmetrized=True)
    law = LimitLaw("dunkl", None, {"nu0": nu0, "t": t, "mu0": mu0}, sq_law=even_law.sq_law)
    law.params["even_law"] = even_law
    law.params["stieltjes"] = lambda z: dunkl_limit_stieltjes(mu0, nu0, t, z, L=L)
    return law


# ---------------------------------------------------------------------------
# Stieltjes transforms
# ---------------------------------------------------------------------------


def _sqrt_two_cuts(z, a, b):
    """sqrt((z-a)(z-b)) with branch cut on [a, b] and ~ z at infinity."""
    return complex(z - a) ** 0.5 * complex(z - b) ** 0.5


def _g_semicircle(r, z):
    if r == 0:
        return 1.0 / z
    return 2.0 / (r * r) * (z - _sqrt_two_cuts(z, -r, r))


def _g_mp(c, t, z):
    xm = t * (math.sqrt(c) - 1) ** 2
    xp = t * (math.sqrt(c) + 1) ** 2
    return (z + t * (1 - c) - _sqrt_two_cuts(z, xm, xp)) / (2 * t * z)


def _g_quartercircle(z):
    def f(x):
        return np.sqrt(4.0 - x * x) / math.pi / (z - x)

    re = integrate.quad(lambda x: f(x).real, 0.0, 2.0, limit=200)[0]
    im = integrate.quad(lambda x: f(x).imag, 0.0, 2.0, limit=200)[0]
    return complex(re, im)


def _series_radius(m) -> float:
    r = 0.0
    for l in range(1, len(m)):
        v = abs(float(m[l]))
        if v > 0:
            r = max(r, v ** (1.0 / l))
    return r


def _g_series(m, z):
    acc = 0j
    zp = z
    for l in range(len(m)):
        acc += float(m[l]) / zp
        zp *= z
    return acc


def stieltjes(law_or_moments, z) -> complex:
    """Cauchy transform G(z) = integral of 1/(z - x) against the law."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must be off the real axis")
    if not isinstance(law_or_moments, LimitLaw):
        m = list(law_or_moments)
        if abs(z) > 2.0 * _series_radius(m) + 1.0:
            return _g_series(m, z)
        nodes, weights = atoms_from_moments(m)
        return complex(np.sum(weights / (z - nodes)))
    law = law_or_moments
    if law.kind == "semicircle":
        return _g_semicircle(law.params["r"], z)
    if law.kind == "mp":
        return _g_mp(law.params["c"], law.params["t"], z)
    if law.kind == "quartercircle":
        return _g_quartercircle(z)
    if law.kind == "atoms":
        locs, weights = law.quad_atoms()
        return complex(np.sum(weights / (z - locs)))
    if law.kind == "sqrt":
        if law.params.get("symmetrized"):
            # even law: G(z) = z * G_squared(z^2)
            return z * stieltjes(law.sq_law, z * z)
        nodes, weights = law.quad_atoms()
        return complex(np.sum(weights / (z - nodes)))
    if law.kind == "dunkl":
        return law.params["stieltjes"](z)
    m = law.moments_
    if abs(z) > 2.0 * _series_radius(m) + 1.0:
        return _g_series(m, z)
    nodes, weights = law.quad_atoms()
    return complex(np.sum(weights / (z - nodes)))


@dataclass
class SpectralDensity:
    grid: np.ndarray
    density: np.ndarray
    clip_mass: float
    diverged: np.ndarray
    atoms: list

    def mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid)) + sum(w for _, w in self.atoms)


def stieltjes_invert(g, grid, eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4)) -> SpectralDensity:
    """Recover a density on ``grid`` from -Im G(x + i eps)/pi, extrapolating eps to 0.

    ``g`` is a callable z -> complex.  Uses 2-point Richardson in eps
    (the Poisson smoothing error is linear in eps for smooth densities),
    flags grid points where the extrapolation is inconsistent, detects
    atom-like plateaus of eps * |G|, and clips negative values.
    """
    eps = np.asarray(eps_schedule, dtype=float)
    if eps.size < 2 or np.any(np.diff(eps) >= 0) or np.any(eps <= 0):
        raise ValueError("eps_schedule must be strictly decreasing and positive")
    grid = np.asarray(grid, dtype=float)
    vals = np.empty((eps.size, grid.size))
    for j, e in enumerate(eps):
        vals[j] = [-(g(complex(x, e)).imag) / math.pi for x in grid]

    def richardson(j1, j2):
        e1, e2 = eps[j1], eps[j2]  # e1 > e2
        return vals[j2] + (vals[j2] - vals[j1]) * e2 / (e1 - e2)

    f_last = richardson(eps.size - 2, eps.size - 1)
    f_prev = richardson(eps.size - 3, eps.size - 2) if eps.size >= 3 else f_last
    diverged = np.abs(f_last - f_prev) > np.maximum(0.5 * np.abs(f_last), 0.05)

    atoms = []
    w_last = math.pi * eps[-1] * vals[-1]
    w_prev = math.pi * eps[-2] * vals[-2]
    for i in range(grid.size):
        if w_last[i] > 0.02 and abs(w_last[i] - w_prev[i]) < 0.25 * w_last[i]:
            atoms.append((float(grid[i]), float(w_last[i])))
            f_last[i] = 0.0
            diverged[i] = False

    negative = np.minimum(f_last, 0.0)
    clip_mass = abs(float(np.trapezoid(negative, grid)))
    return SpectralDensity(grid, np.maximum(f_last, 0.0), clip_mass, diverged, atoms)


# ---------------------------------------------------------------------------
# full-space jump-system Stieltjes transform
# ---------------------------------------------------------------------------


def _even_law_inverse_g(even_law: LimitLaw, target: complex, guess: complex) -> complex:
    """Solve G_even(u) = target for u in the upper half-plane."""
    if even_law.kind == "semicircle":
        r = even_law.params["r"]
        if target == 0:
            raise FreeProbDomainError("cannot invert G at 0")
        return (r * r / 4.0) * target + 1.0 / target
    locs, weights = even_law.quad_atoms()
    u = guess
    for _ in range(100):
        d = u - locs
        gu = complex(np.sum(weights / d))
        dgu = complex(-np.sum(weights / d**2))
        if dgu == 0:
            break
        step = (gu - target) / dgu
        u = u - step
        if abs(step) < 1e-13 * max(1.0, abs(u)):
            return u
    raise FreeProbDomainError("Newton inversion of the even-part transform failed")


def _squared_start_transform(mu_even: LimitLaw, m0):
    """w -> (G_Q0(w), G_Q0'(w)) for Q0, the law of x^2 under the start law.

    Closed form when the even part is a semicircle of radius r (then Q0 is
    MP(1, r^2/4)); otherwise the Gauss rule of the squared even moments.
    """
    if mu_even.kind == "semicircle" and mu_even.params["r"] > 0:
        r2 = mu_even.params["r"] ** 2

        def g_q0(w):
            # G = 2 (1 - root)/r^2 without the cancellation; cut on (0, r^2]
            root = cmath.sqrt(1.0 - r2 / w)
            return 2.0 / (w * (1.0 + root)), -1.0 / (w * w * root)

        return g_q0
    nodes, weights = atoms_from_moments(square_moments(m0))

    def g_q0(w):
        d = 1.0 / (w - nodes)
        return complex(np.sum(weights * d)), complex(-np.sum(weights * d * d))

    return g_q0


def _characteristic_end(g_q0, nu0, t, w0):
    """w(t) = z(t)^2 on the characteristic with foot w0 = z0^2, dw(t)/dw0, and q0.

    Along dz/ds = nu0/z + 2 G_even(s, z) the even PDE gives q = G_even/z with
    dq/ds = -2 q^2 and w = z^2 with dw/ds = 2 nu0 + 4 w q, so
    q(s) = q0/a(s) and w(s) = a(s)^2 w0 + 2 nu0 s a(s), a(s) = 1 + 2 s q0.
    """
    q0, dq0 = g_q0(w0)
    a = 1.0 + 2.0 * t * q0
    w = a * a * w0 + 2.0 * nu0 * t * a
    return w, a * a + 4.0 * t * dq0 * (a * w0 + nu0 * t), q0


def _foot_point_valid(w0, g_q0, nu0, t) -> bool:
    """Whether the characteristic from w0 = z0^2 stays off [0, inf) for s in [0, t].

    Its square w(s) = w0 + b s + c s^2 is a quadratic in s, so this checks
    exactly that the closed-form path keeps to the open half-plane of its
    foot point, which singles out the true foot point among the roots of
    w(t) = z^2.
    """
    if not cmath.isfinite(w0) or (w0.imag == 0 and w0.real >= 0):
        return False
    q0 = g_q0(w0)[0]
    b = 4.0 * q0 * w0 + 2.0 * nu0
    c = 4.0 * q0 * (q0 * w0 + nu0)
    A, B, C = c.imag, b.imag, w0.imag
    if A == 0.0:
        crossings = [-C / B] if B != 0.0 else []
    else:
        disc = B * B - 4.0 * A * C
        crossings = [] if disc < 0 else [(-B + sgn * math.sqrt(disc)) / (2.0 * A) for sgn in (1, -1)]
    return all((w0 + b * s + c * s * s).real < 0 for s in crossings if 0.0 <= s <= t)


def _foot_newton(g_q0, nu0, t, target, w0):
    """Newton on w(t; w0) = target from w0; None when it stalls."""
    for _ in range(40):
        wt, dw, _ = _characteristic_end(g_q0, nu0, t, w0)
        if dw == 0:
            return None
        step = (wt - target) / dw
        w0 = w0 - step
        if not cmath.isfinite(step):
            return None
        if abs(step) <= 1e-13 * max(1.0, abs(w0)):
            return w0
    return None


def _dunkl_foot_point(g_q0, nu0: float, t: float, z: complex):
    """Foot point z0 and q0 = G_Q0(z0^2) of the characteristic through z (Im z > 0).

    Solves w(t; w0) = z^2 for w0 = z0^2 by Newton, continued down the
    vertical segment from x + iY (Y >= 4) to z; a step is halved when
    Newton stalls or lands on a root whose path leaves the half-plane.
    """
    top = max(4.0, z.imag)
    y, h = top, top - z.imag
    zc = complex(z.real, top)
    # far from the support G_even ~ 1/z, so w(t) ~ w0 + (4 + 2 nu0) t
    w0 = _foot_newton(g_q0, nu0, t, zc * zc, zc * zc - (4.0 + 2.0 * nu0) * t)
    if w0 is None or not _foot_point_valid(w0, g_q0, nu0, t):
        raise FreeProbDomainError(f"no characteristic foot point found above z = {z}")
    while y > z.imag:
        y_next = max(z.imag, y - h)
        w = _foot_newton(g_q0, nu0, t, complex(z.real, y_next) ** 2, w0)
        if w is not None and _foot_point_valid(w, g_q0, nu0, t):
            w0, y, h = w, y_next, 2.0 * h
        elif h < 1e-12 * top:
            raise FreeProbDomainError(f"characteristic foot-point continuation stalled at z = {z}")
        else:
            h /= 2.0
    wt, _, q0 = _characteristic_end(g_q0, nu0, t, w0)
    if abs(wt - z * z) > 1e-12 * max(1.0, abs(z) ** 2):
        raise FreeProbDomainError(f"characteristic foot point off by {abs(wt - z * z):.3g} at z = {z}")
    z0 = cmath.sqrt(w0)
    return (z0 if z0.imag > 0 else -z0), q0


def _dunkl_characteristic_g(mu0_law: LimitLaw, g_q0, nu0: float, t: float, z: complex):
    """(G_even, G_odd) at (t, z), Im z > 0, from the foot point of the characteristic.

    G_even(t, z) = z q(t) = z q0/(1 + 2 t q0), and the odd part is constant
    along the characteristic: G_odd(t, z) = (G_mu0(z0) + G_mu0(-z0))/2.
    """
    z0, q0 = _dunkl_foot_point(g_q0, nu0, t, z)
    if z0.imag * z.imag <= 0:
        raise FreeProbDomainError("characteristic crossed the real axis")
    g_even = z * q0 / (1.0 + 2.0 * t * q0)
    return g_even, 0.5 * (stieltjes(mu0_law, z0) + stieltjes(mu0_law, -z0))


def dunkl_limit_stieltjes(mu0, nu0: float, t: float, z: complex, L: int = 24) -> complex:
    """Stieltjes transform of the full-space jump-system limit law at time t.

    For nu0 = 0 this is the closed composition
    G(t, z) = G_mu0( G_even^{-1}( G_{sc(2 sqrt(2t)) boxplus mu0_even}(z) ) );
    for nu0 > 0 the odd part is constant along the characteristics
    dz/ds = nu0/z + 2 G_even(s, z) of its linear transport equation, which
    are integrated in closed form and traced back to their foot point at
    s = 0 (they move away from the real axis).
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must be off the real axis")
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu0_law = mu0 if isinstance(mu0, LimitLaw) else moment_law(mu0)
    if t == 0:
        return stieltjes(mu0_law, z)

    m0 = mu0_law.moments(2 * L) if mu0_law.kind != "quartercircle" else list(
        quartercircle_moments(2 * L)
    )
    if mu0_law.kind == "quartercircle":
        mu_even = semicircle(2.0)
    elif all(v == 0 for l, v in enumerate(m0) if l % 2):
        mu_even = mu0_law  # already even
    else:
        mu_even = moment_law(even_part_moments(m0))

    if nu0 == 0:
        if mu_even.kind == "semicircle":
            r0 = mu_even.params["r"]
            mixed = semicircle(math.sqrt(8.0 * t + r0 * r0))
        else:
            mixed = moment_law(
                [float(v) for v in free_add(semicircle_moments(8.0 * t, 2 * L), even_part_moments(m0), 2 * L)]
            )
        w = stieltjes(mixed, z)
        if w.imag * z.imag >= 0:
            raise FreeProbDomainError("even transform lost the Herglotz sign")
        u = _even_law_inverse_g(mu_even, w, 1.0 / w)
        if mu0_law.kind == "quartercircle" and u.imag < 0:
            # branch guard: the composition maps the upper half-plane into itself
            u = u.conjugate()
        return stieltjes(mu0_law, u)

    # nu0 > 0: closed-form characteristics in the upper half-plane, G(conj z) = conj G(z).
    g_q0 = _squared_start_transform(mu_even, m0)
    below = z.imag < 0
    g_even, g_odd = _dunkl_characteristic_g(mu0_law, g_q0, nu0, t, z.conjugate() if below else z)
    g = g_even + g_odd
    if not g.imag < 0:
        raise FreeProbDomainError(f"characteristic route lost the Herglotz sign at z = {z}")
    return g.conjugate() if below else g


def quartercircle_dunkl_density(t: float, x) -> np.ndarray:
    """Closed-form limit density for a quartercircle start of the jump system.

    Supported on |x| < 2 sqrt(2t + 1); t = 0 degenerates to the
    quartercircle itself (the arctan factor becomes a step in sign(x)).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    edge = 2.0 * math.sqrt(2.0 * t + 1.0)
    out = np.zeros_like(x)
    inside = np.abs(x) < edge
    xi = x[inside]
    s = np.sqrt(edge * edge - xi * xi)
    if t == 0:
        arc = 0.5 * np.pi * np.sign(xi)
        log_term = 0.0
    else:
        arc = np.arctan(xi / (2.0 * t))
        a = 2.0 * (t + 1.0)
        log_term = (t * xi / (2.0 * (2.0 * t + 1.0))) * np.log((a + s) / (a - s)) / math.pi**2
    out[inside] = (0.5 + (t + 1.0) / math.pi * arc) * s / ((2.0 * t + 1.0) * math.pi) - log_term
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

_PDE_KINDS = (
    "burgers_a",
    "transport_b",
    "dunkl_even",
    "dunkl_odd",
    "r_transform_a",
    "r_transform_b",
)


def pde_residual(
    kind: str,
    evaluator=None,
    points=None,
    nu0: float = 0.0,
    h: float = 1e-4,
    even_evaluator=None,
    cumulant_polys=None,
):
    """Residual statistics of the named PDE.

    G-type kinds take ``evaluator``: a callable (t, z) -> complex, sampled
    by central differences at ``points`` (pairs (t, z) with Im z away from
    0).  The R-transform kinds take ``cumulant_polys``: cumulants k_1..k_L
    as polynomials in t, and verify the PDE coefficientwise (exact for
    polynomial representations).  Returns a dict with max/mean absolute
    residual and the per-point values.
    """
    if kind not in _PDE_KINDS:
        raise ValueError(f"unknown PDE kind {kind!r}")

    if kind in ("r_transform_a", "r_transform_b"):
        if cumulant_polys is None:
            raise ValueError("R-transform kinds need cumulant_polys")
        k = cumulant_polys  # k[n] = TPoly for cumulant k_n, n = 1..L
        res = []
        L = len(k) - 1
        for n in range(0, L - 1):
            r = k[n + 1].derivative()
            if kind == "r_transform_a":
                if n == 1:
                    r = r - 1
            else:
                # R_t = nu0 + 1 + 2 z R + z^2 R_z.  (The sign of the 2zR term
                # follows from the derivation and from the explicit
                # Marchenko-Pastur solution.)
                if n == 0:
                    r = r - (nu0 + 1)
                if n >= 1:
                    r = r - 2 * k[n]
                if n >= 2:
                    r = r - (n - 1) * k[n]
            res.append(max(abs(float(c)) for c in r.c))
        arr = np.array(res)
        return {"max_abs": float(arr.max()), "mean_abs": float(arr.mean()), "residuals": arr}

    if evaluator is None or points is None:
        raise ValueError("G-type kinds need evaluator and points")
    vals = []
    for t, z in points:
        z = complex(z)
        g = evaluator(t, z)
        g_t = (evaluator(t + h, z) - evaluator(t - h, z)) / (2 * h)
        g_z = (evaluator(t, z + h) - evaluator(t, z - h)) / (2 * h)
        if kind == "burgers_a":
            r = g_t + g * g_z
        elif kind == "transport_b":
            r = g_t + nu0 * g_z + 2 * z * g_z * g + g * g
        elif kind == "dunkl_even":
            r = g_t - nu0 * (g / z**2 - g_z / z) + 2 * g * g_z
        else:  # dunkl_odd
            if even_evaluator is None:
                raise ValueError("dunkl_odd needs even_evaluator")
            ge = even_evaluator(t, z)
            r = g_t + (nu0 / z + 2 * ge) * g_z
        vals.append(abs(r))
    arr = np.array(vals)
    return {"max_abs": float(arr.max()), "mean_abs": float(arr.mean()), "residuals": arr}
