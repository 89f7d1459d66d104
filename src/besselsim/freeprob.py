"""Numerical free probability: laws, transforms, and free additive convolution.

Moment sequences and free cumulant sequences are mutually converted
through the non-crossing-partition recursion in its convolution form

    m_n = sum_{s=1}^n k_s [z^{n-s}] M(z)^s,     M(z) = 1 + sum m_n z^n,

which is ring-generic: it runs unchanged over floats, exact rationals,
and polynomials in t (the latter feed the R-transform PDE checks).
Free additive convolution adds cumulants.

Each law is a :class:`LimitLaw` subclass giving G and G', moments and a
support radius.  Semicircle, Marchenko-Pastur, quartercircle, beta and
atoms are closed forms.  Square-root laws carry the law of their square.
All composites come from one characteristic foot-point solve
(:func:`_foot_point`): type A by subordination, z = z0 + t G_mu0(z0)
(:class:`FreeConvA`); type B on the squared side as the Dunkl even part at
half time (:class:`FreeConvB`); the Dunkl law for nu0 > 0 by its
closed-form characteristics, for nu0 = 0 by the closed composition
(:class:`DunklLaw`).  Their moments come from the cumulant algebra, their
densities and CDFs from Stieltjes inversion on a grid.  A start given only
by moments becomes atoms once, through the Gauss rule of its truncated
moment problem (Chebyshev algorithm + Golub-Welsch).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betainc, hyp2f1

from .moments import catalan, limit_moments_dunkl


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
    "beta_law",
    "sqrt_law",
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
# Gauss rule of a truncated moment sequence (moments-only starts)
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


def atoms_from_moments(m):
    """Gaussian quadrature (nodes, weights) matching m_0..m_{2K-1}, K = min(len(m) // 2, 20)."""
    alpha, beta = _jacobi_from_moments(m, min(len(m) // 2, 20))
    if alpha.size == 1:
        return np.array([alpha[0]]), np.array([beta[0]])
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    weights = beta[0] * vecs[0] ** 2
    return nodes, weights


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

# grid points of the inverted density behind a composite law's CDF
_CDF_POINTS = 801


class LimitLaw:
    """A law on R.  Subclasses give ``cauchy``, ``moment`` or ``moments``, and
    ``support_radius``; closed forms override ``spectral_density`` and ``_cdf``,
    which otherwise invert G (on a grid over the support, for the CDF).
    """

    def cauchy(self, z: complex) -> tuple[complex, complex]:
        """(G(z), G'(z)) with G(z) = integral of 1/(z - x) against the law."""
        raise NotImplementedError

    def moment(self, l: int) -> float:
        return self.moments(l)[l]

    def moments(self, L: int) -> list:
        return [self.moment(l) for l in range(L + 1)]

    def support_radius(self) -> float:  # the support lies in [-R, R]
        raise NotImplementedError

    def squared(self) -> "LimitLaw":
        """The law of x^2."""
        raise FreeProbDomainError(f"no law of x^2 for {type(self).__name__}")

    def inverse_g(self, target: complex, guess: complex) -> complex:
        """Solve G(u) = target by Newton from ``guess``."""
        u = _newton(self.cauchy, target, guess)
        if u is None:
            raise FreeProbDomainError("Newton inversion of the Cauchy transform failed")
        return u

    def spectral_density(self, grid) -> "SpectralDensity":
        """Density on ``grid`` by Stieltjes inversion, with its quality report."""
        return stieltjes_invert(lambda z: self.cauchy(z)[0], grid)

    def stieltjes(self, z: complex) -> complex:
        return stieltjes(self, z)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return self.spectral_density(x.ravel()).density.reshape(x.shape)

    def cdf(self, x):
        return self._cdf(np.asarray(x, dtype=float))

    def _cdf(self, x):
        r = self.support_radius()
        return self.spectral_density(np.linspace(-r, r, _CDF_POINTS)).cdf(x)


class _ClosedLaw(LimitLaw):
    """A law with a closed-form density ``_density`` and CDF ``_cdf``."""

    def spectral_density(self, grid) -> "SpectralDensity":
        grid = np.asarray(grid, dtype=float)
        return SpectralDensity(grid, self._density(grid), 0.0, np.zeros(grid.size, bool), [])


def _sqrt_two_cuts(z, a, b):
    """sqrt((z-a)(z-b)) with branch cut on [a, b] and ~ z at infinity."""
    return complex(z - a) ** 0.5 * complex(z - b) ** 0.5


class Semicircle(_ClosedLaw):
    """Semicircle law with support [-r, r], r > 0."""

    def __init__(self, r: float):
        self.r = float(r)

    def cauchy(self, z):
        r2 = self.r * self.r
        root = _sqrt_two_cuts(z, -self.r, self.r)
        return 2.0 / r2 * (z - root), 2.0 / r2 * (1.0 - z / root)

    def moments(self, L):
        return [float(v) for v in semicircle_moments(self.r * self.r, L)]

    def support_radius(self):
        return self.r

    def squared(self):
        return marchenko_pastur(1.0, self.r * self.r / 4.0)

    def inverse_g(self, target, guess):
        return (self.r * self.r / 4.0) * target + 1.0 / target

    def _density(self, x):
        r = self.r
        inside = np.abs(x) < r
        out = np.zeros_like(x)
        out[inside] = 2.0 / (math.pi * r * r) * np.sqrt(r * r - x[inside] ** 2)
        return out

    def _cdf(self, x):
        r = self.r
        xc = np.clip(x, -r, r)
        return 0.5 + (xc * np.sqrt(r * r - xc * xc) / (r * r) + np.arcsin(xc / r)) / math.pi


class MarchenkoPastur(_ClosedLaw):
    """Marchenko-Pastur law with shape c >= 0 and scale t > 0 (free cumulants c t^n)."""

    def __init__(self, c: float, t: float):
        self.c, self.t = float(c), float(t)
        self.lo = self.t * (math.sqrt(self.c) - 1) ** 2
        self.hi = self.t * (math.sqrt(self.c) + 1) ** 2

    def cauchy(self, z):
        c, t = self.c, self.t
        root = _sqrt_two_cuts(z, self.lo, self.hi)
        g = (z + t * (1 - c) - root) / (2 * t * z)
        droot = (z - 0.5 * (self.lo + self.hi)) / root
        return g, (1.0 - droot) / (2 * t * z) - g / z

    def moments(self, L):
        return [float(v) for v in cumulants_to_moments(mp_cumulants(self.c, self.t, L), L)]

    def support_radius(self):
        return self.hi

    def atom_at_zero(self):
        return max(0.0, 1.0 - self.c)

    def _density(self, x):
        out = np.zeros_like(x)
        inside = (x > self.lo) & (x < self.hi) & (x > 0)
        xi = x[inside]
        out[inside] = np.sqrt((self.hi - xi) * (xi - self.lo)) / (2 * math.pi * self.t * xi)
        return out

    def _cdf(self, x):
        # x = m + h sin(th) turns the density into (m - h sin th - ab/(m + h sin th))/(2 pi t)
        a, b = self.lo, self.hi
        m, h, root_ab = 0.5 * (a + b), 0.5 * (b - a), self.t * abs(self.c - 1.0)
        th = np.arcsin(np.clip((x - m) / h, -1.0, 1.0)) if h > 0 else np.sign(x - m) * math.pi / 2

        def primitive(th):
            out = m * th + h * np.cos(th)
            if root_ab > 0:
                out = out - 2.0 * root_ab * np.arctan((m * np.tan(th / 2) + h) / root_ab)
            return out

        cont = (primitive(th) - primitive(-math.pi / 2)) / (2 * math.pi * self.t)
        return np.where(x < 0, 0.0, self.atom_at_zero() + cont)


class Quartercircle(_ClosedLaw):
    """Quartercircle law: density sqrt(4 - x^2)/pi on [0, 2]."""

    def cauchy(self, z):
        # G = ((4 - z^2) J + pi z/2 + 2)/pi with J = int_0^2 dx/((z - x) sqrt(4 - x^2)),
        # and G' = (pi/2 + 2/z - z J)/pi
        s = cmath.sqrt(z - 2) * cmath.sqrt(z + 2)
        j = 2.0 / s * (cmath.atan((z - 2) / s) + cmath.atan(2.0 / s))
        return ((4 - z * z) * j + math.pi * z / 2 + 2) / math.pi, (math.pi / 2 + 2 / z - z * j) / math.pi

    def moments(self, L):
        return list(quartercircle_moments(L))

    def support_radius(self):
        return 2.0

    def squared(self):
        return marchenko_pastur(1.0, 1.0)

    def _density(self, x):
        out = np.zeros_like(x)
        inside = (x > 0) & (x < 2)
        out[inside] = np.sqrt(4.0 - x[inside] ** 2) / math.pi
        return out

    def _cdf(self, x):
        xc = np.clip(x, 0.0, 2.0)
        return (xc * np.sqrt(4.0 - xc * xc) / 2.0 + 2.0 * np.arcsin(xc / 2.0)) / math.pi


class BetaLaw(_ClosedLaw):
    """Beta(a, b) law on [0, 1], used for the classical Laguerre-zero limit."""

    def __init__(self, a: float, b: float):
        self.a, self.b = float(a), float(b)

    def cauchy(self, z):
        # G = 2F1(1, a; a + b; 1/z)/z, the Euler integral of the beta density
        a, b, u = self.a, self.b, 1.0 / z
        f = complex(hyp2f1(1.0, a, a + b, u))
        df = a / (a + b) * complex(hyp2f1(2.0, a + 1.0, a + b + 1.0, u))
        return u * f, -u * u * (f + u * df)

    def moment(self, l):
        return float(math.prod((self.a + r) / (self.a + self.b + r) for r in range(l)))

    def support_radius(self):
        return 1.0

    def _density(self, x):
        a, b = self.a, self.b
        log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        out = np.zeros_like(x)
        inside = (x > 0) & (x < 1)
        xi = x[inside]
        out[inside] = np.exp(log_norm + (a - 1) * np.log(xi) + (b - 1) * np.log1p(-xi))
        return out

    def _cdf(self, x):
        return betainc(self.a, self.b, np.clip(x, 0.0, 1.0))


class Atoms(LimitLaw):
    """Finitely many atoms ``locs`` with ``weights``."""

    def __init__(self, locs, weights):
        self.locs = np.atleast_1d(np.asarray(locs, dtype=float))
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))

    def cauchy(self, z):
        d = 1.0 / (z - self.locs)
        return complex(self.weights @ d), complex(-(self.weights @ (d * d)))

    def moment(self, l):
        return float(np.sum(self.weights * self.locs**l))

    def support_radius(self):
        return float(np.max(np.abs(self.locs)))

    def squared(self):
        return Atoms(self.locs**2, self.weights)

    def _cdf(self, x):
        order = np.argsort(self.locs)
        cum = np.concatenate([[0.0], np.cumsum(self.weights[order])])
        return cum[np.searchsorted(self.locs[order], x, side="right")]


# Gauss-Legendre rule in phi for u = tan(phi) on [0, inf), used by SquareRoot
_U_NODES, _U_WEIGHTS = np.polynomial.legendre.leggauss(96)
_U_PHI = (_U_NODES + 1.0) * math.pi / 4.0
_U_WEIGHTS = _U_WEIGHTS * math.pi / 4.0


class SquareRoot(LimitLaw):
    """Law of sqrt(y) for y ~ ``sq_law`` on [0, inf); symmetrized, of +-sqrt(y).

    It carries the law of its square and never forms half-integer moments:
    odd moments exist only for the symmetrized law (where they vanish).
    """

    def __init__(self, sq_law: LimitLaw, symmetrized: bool = False):
        self.sq_law, self.symmetrized = sq_law, symmetrized

    def cauchy(self, z):
        w = z * z
        gq, dgq = self.sq_law.cauchy(w)
        g, dg = z * gq, gq + 2.0 * w * dgq
        if self.symmetrized:
            return g, dg
        # odd part int sqrt(y)/(w - y) dQ(y) = (2/pi) int_0^inf N(u)/(w + u^2) du with
        # N(u) = w G_sq(w) + u^2 G_sq(-u^2), from sqrt(y) = (2/pi) int_0^inf y/(y + u^2) du
        scale = math.sqrt(max(self.sq_law.support_radius(), 1e-300))
        odd = d_odd = 0j
        for phi, wt in zip(_U_PHI, _U_WEIGHTS):
            u = scale * math.tan(phi)
            du = wt * scale / math.cos(phi) ** 2
            u2 = u * u
            num = w * gq + u2 * self.sq_law.cauchy(complex(-u2, 0.0))[0]
            den = w + u2
            odd += du * num / den
            d_odd += du * ((gq + w * dgq) * den - num) / (den * den)
        return g + 2.0 / math.pi * odd, dg + 4.0 / math.pi * z * d_odd

    def moment(self, l):
        if l % 2 == 0:
            return float(self.sq_law.moment(l // 2))
        if self.symmetrized:
            return 0.0
        raise FreeProbDomainError("odd moments of a square-root law are half-integer moments of its square")

    def support_radius(self):
        return math.sqrt(max(self.sq_law.support_radius(), 0.0))

    def squared(self):
        return self.sq_law

    def spectral_density(self, grid):
        """f(x) = 2x f_sq(x^2) for x >= 0, or |x| f_sq(x^2) on R when symmetrized; 0 at x = 0."""
        grid = np.asarray(grid, dtype=float)
        side = np.full(grid.size, True) if self.symmetrized else grid >= 0
        xs = np.abs(grid[side])
        ys, at = np.unique(xs, return_inverse=True)  # each |x| once, ascending
        sd = self.sq_law.spectral_density(ys * ys)
        half = 0.5 if self.symmetrized else 1.0
        density, diverged = np.zeros(grid.size), np.zeros(grid.size, bool)
        density[side] = half * 2.0 * xs * sd.density[at]
        diverged[side] = sd.diverged[at] & (xs > 0)
        signs = (1.0, -1.0) if self.symmetrized else (1.0,)
        atoms = [(sgn * math.sqrt(y), half * w) for y, w in sd.atoms for sgn in signs]
        return SpectralDensity(grid, density, sd.clip_mass, diverged, atoms)

    def _cdf(self, x):
        if type(self.sq_law)._cdf is LimitLaw._cdf:
            # Inverting G of the square on its grid over [-R_sq, R_sq] meets w = 0,
            # where f_sq can grow like 1/sqrt(w); the x-side density is bounded.
            r = self.support_radius()
            return self.spectral_density(np.linspace(-r if self.symmetrized else 0.0, r, _CDF_POINTS)).cdf(x)
        fs = self.sq_law.cdf(x * x)  # closed form: exact
        if self.symmetrized:
            return np.where(x >= 0, 0.5 + fs / 2.0, (1.0 - fs) / 2.0)
        return np.where(x >= 0, fs, 0.0)


class FreeConvA(LimitLaw):
    """Type A limit sc(2 sqrt t) boxplus mu0, by subordination.

    The Burgers characteristics are straight: z = z0 + t G_mu0(z0) carries
    G(z) = G_mu0(z0), and the path is valid iff Im z0 > 0.
    """

    def __init__(self, mu0: LimitLaw, t: float):
        self.mu0, self.t = mu0, float(t)

    def cauchy(self, z):
        t = self.t

        def end(z0):
            g, dg = self.mu0.cauchy(z0)
            return z0 + t * g, 1.0 + t * dg, g, dg

        _, (_, dz, g, dg) = _foot_point(end, lambda z0: z0.imag > 0, lambda zc: zc, z, lambda zc: zc - t / zc)
        return g, dg / dz

    def moments(self, L):
        return [float(v) for v in free_add(semicircle_moments(4.0 * self.t, L), self.mu0.moments(L), L)]

    def support_radius(self):
        return self.mu0.support_radius() + 2.0 * math.sqrt(self.t)


class FreeConvB(LimitLaw):
    """Squared side of the type B limit: MP(nu0, t) boxplus (sc(2 sqrt t) boxplus mu0_even)^2.

    It is the law of x^2 under the Dunkl even part at time t/2: G(w) = q0/(1 + t q0)
    with q0 = G_Q0(z0^2) at the Dunkl foot point z0 through sqrt(w), Q0 = law of x^2 under mu0.
    """

    def __init__(self, mu0: LimitLaw, nu0: float, t: float):
        self.q0_law = mu0.squared()
        self.nu0, self.t = float(nu0), float(t)

    def cauchy(self, w):
        t = self.t
        _, (_, dw, q0, dq0) = _dunkl_foot_point(self.q0_law.cauchy, self.nu0, t / 2.0, cmath.sqrt(w))
        a = 1.0 + t * q0
        return q0 / a, dq0 / (dw * a * a)

    def moments(self, L):
        q0 = self.q0_law.moments(L)
        even = [q0[l // 2] if l % 2 == 0 else 0.0 for l in range(2 * L + 1)]
        sq = square_moments(free_add(semicircle_moments(4.0 * self.t, 2 * L), even, 2 * L))
        k = [a + b for a, b in zip(moments_to_cumulants(sq, L), mp_cumulants(self.nu0, self.t, L))]
        return [float(v) for v in cumulants_to_moments(k, L)]

    def support_radius(self):
        mp = self.t * (math.sqrt(self.nu0) + 1.0) ** 2 if self.nu0 > 0 else 0.0
        return (math.sqrt(self.q0_law.support_radius()) + 2.0 * math.sqrt(self.t)) ** 2 + mp


class DunklLaw(LimitLaw):
    """Full-space jump-system limit at time t: even part plus odd transform.

    The even part is the symmetrized type B law at time 2t.  For nu0 > 0,
    G comes from the foot point of the closed-form characteristics; for
    nu0 = 0 from the closed composition G_mu0(G_even^{-1}(G_mixed(z))),
    mixed = sc(2 sqrt(2t)) boxplus mu0_even.  Moments come from the
    moment recurrence.
    """

    def __init__(self, mu0: LimitLaw, nu0: float, t: float):
        if nu0 < 0:
            raise ValueError("nu0 must be nonnegative")
        self.mu0, self.nu0, self.t = mu0, float(nu0), float(t)

    def cauchy(self, z):
        if z.imag < 0:
            g, dg = self.cauchy(z.conjugate())
            return g.conjugate(), dg.conjugate()
        if self.nu0 == 0:
            mu_even = sqrt_law(self.mu0.squared(), symmetrized=True)
            w, dw = limit_law_a(mu_even, 2.0 * self.t).cauchy(z)
            if w.imag >= 0:
                raise FreeProbDomainError("even transform lost the Herglotz sign")
            u = mu_even.inverse_g(w, 1.0 / w)
            # the composition maps the upper half-plane into itself; Im u < 0 is rounding
            u = complex(u.real, abs(u.imag))
            g, dg = self.mu0.cauchy(u)
            return g, dg * dw / mu_even.cauchy(u)[1]
        (g_even, g_odd), (dg_even, dg_odd) = self.characteristic(z)
        g = g_even + g_odd
        if not g.imag < 0:
            raise FreeProbDomainError(f"characteristic route lost the Herglotz sign at z = {z}")
        return g, dg_even + dg_odd

    def characteristic(self, z):
        """((G_even, G_odd), (G_even', G_odd')) at z, Im z > 0, from the foot point.

        G_even(t, z) = z q(t) = z q0/(1 + 2 t q0), and the odd part is constant
        along the characteristic: G_odd(t, z) = (G_mu0(z0) + G_mu0(-z0))/2.
        """
        t = self.t
        w0, (_, dw, q0, dq0) = _dunkl_foot_point(self.mu0.squared().cauchy, self.nu0, t, z)
        z0 = cmath.sqrt(w0)
        z0 = z0 if z0.imag > 0 else -z0
        if z0.imag <= 0:
            raise FreeProbDomainError("characteristic crossed the real axis")
        a = 1.0 + 2.0 * t * q0
        dw0 = 2.0 * z / dw  # dw0/dz
        (gp, dgp), (gm, dgm) = self.mu0.cauchy(z0), self.mu0.cauchy(-z0)
        dg_even = q0 / a + z * dq0 * dw0 / (a * a)
        return (z * q0 / a, 0.5 * (gp + gm)), (dg_even, 0.25 * (dgp - dgm) * dw0 / z0)

    def moments(self, L):
        return limit_moments_dunkl(self.mu0.moments(L), self.nu0, self.t, L).floats().tolist()

    def support_radius(self):  # that of the even part
        return sqrt_law(limit_law_b(self.mu0, self.nu0, 2.0 * self.t).sq_law, symmetrized=True).support_radius()

    def spectral_density(self, grid):
        if isinstance(self.mu0, Quartercircle) and self.nu0 == 0:
            grid = np.asarray(grid, dtype=float)
            dens = quartercircle_dunkl_density(self.t, grid)
            return SpectralDensity(grid, dens, 0.0, np.zeros(grid.size, bool), [])
        return super().spectral_density(grid)


def semicircle(r: float) -> LimitLaw:
    """Semicircle law with support [-r, r]; r = 0 is the point mass at 0."""
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
    return Semicircle(r) if r > 0 else atom_law([0.0])


def marchenko_pastur(c: float, t: float) -> LimitLaw:
    """Marchenko-Pastur law with shape c >= 0 and scale t > 0."""
    if c < 0 or t <= 0:
        raise ValueError("require c >= 0 and t > 0")
    return MarchenkoPastur(c, t)


def quartercircle_law() -> LimitLaw:
    """Quartercircle law: density sqrt(4 - x^2)/pi on [0, 2]."""
    return Quartercircle()


def atom_law(locs) -> LimitLaw:
    """Equal-weight atoms at ``locs`` (an empirical measure); ``Atoms`` takes weights."""
    locs = np.atleast_1d(np.asarray(locs, dtype=float))
    return Atoms(locs, np.full(locs.size, 1.0 / locs.size))


def beta_law(a: float, b: float) -> LimitLaw:
    """Beta law on [0, 1], used for the classical Laguerre-zero limit."""
    return BetaLaw(a, b)


def sqrt_law(squared: LimitLaw, symmetrized: bool = False) -> LimitLaw:
    """Square-root pushforward of a law on [0, inf); optionally symmetrized.

    The symmetrized root of MP(1, s) is the semicircle of radius 2 sqrt(s).
    """
    if symmetrized and isinstance(squared, MarchenkoPastur) and squared.c == 1.0:
        return Semicircle(2.0 * math.sqrt(squared.t))
    return SquareRoot(squared, symmetrized)


def _as_law(mu0) -> LimitLaw:
    """A law, or the atoms of the Gauss rule of a moment sequence m_0, m_1, ..."""
    return mu0 if isinstance(mu0, LimitLaw) else Atoms(*atoms_from_moments(list(mu0)))


def limit_law_a(mu0, t: float) -> LimitLaw:
    """Long-time law of the type A system: semicircle(2 sqrt(t)) boxplus mu0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu0 = _as_law(mu0)
    if t == 0:
        return mu0
    if isinstance(mu0, Semicircle) or mu0.support_radius() == 0:  # radii add in quadrature
        return semicircle(math.sqrt(mu0.support_radius() ** 2 + 4.0 * t))
    return FreeConvA(mu0, t)


def limit_law_b(mu0, nu0: float, t: float) -> LimitLaw:
    """Type B limit: sqrt( MP(nu0,t) boxplus (sc(2 sqrt t) boxplus mu0_even)^2 ).

    ``mu0`` is the initial law on [0, inf); the returned law carries the
    squared-side composite.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if nu0 < 0:
        raise ValueError("nu0 must be nonnegative")
    mu0 = _as_law(mu0)
    if mu0.support_radius() == 0:
        return sqrt_law(marchenko_pastur(1.0 + nu0, t))
    return sqrt_law(FreeConvB(mu0, nu0, t))


def dunkl_limit_law(mu0, nu0: float, t: float) -> LimitLaw:
    """Full-space jump-system limit law at time t; t = 0 returns the start."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _as_law(mu0) if t == 0 else DunklLaw(_as_law(mu0), nu0, t)


# ---------------------------------------------------------------------------
# Stieltjes transforms
# ---------------------------------------------------------------------------


def stieltjes(law_or_moments, z) -> complex:
    """Cauchy transform G(z) = integral of 1/(z - x) against the law."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must be off the real axis")
    return _as_law(law_or_moments).cauchy(z)[0]


# Heights above the real axis of a Stieltjes inversion, strictly decreasing.
_INVERT_EPS = np.array([1e-1, 1e-2, 1e-3, 1e-4])


@dataclass
class SpectralDensity:
    grid: np.ndarray
    density: np.ndarray
    clip_mass: float
    diverged: np.ndarray
    atoms: list

    def mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid)) + sum(w for _, w in self.atoms)

    def cdf(self, x):
        """CDF of the trapezoid-integrated density plus atoms, normalized to mass 1."""
        xs = self.grid
        cdf = np.concatenate([[0.0], np.cumsum((self.density[1:] + self.density[:-1]) / 2 * np.diff(xs))])
        locs = np.array([loc for loc, _ in self.atoms])
        cum_w = np.cumsum([w for _, w in sorted(self.atoms)])
        total = cdf[-1] + (cum_w[-1] if locs.size else 0.0)
        x = np.asarray(x, dtype=float)
        base = np.interp(x, xs, cdf, left=0.0, right=cdf[-1])
        if locs.size:
            idx = np.searchsorted(np.sort(locs), x, side="right")
            base = base + np.concatenate([[0.0], cum_w])[idx]
        return base / total


def stieltjes_invert(g, grid) -> SpectralDensity:
    """Recover a density on ``grid`` from -Im G(x + i eps)/pi, extrapolating eps to 0.

    ``g`` is a callable z -> complex, evaluated at the heights ``_INVERT_EPS``.
    Uses 2-point Richardson in eps (the Poisson smoothing error is linear
    in eps for smooth densities), flags grid points where the last two
    extrapolations disagree, detects atom-like plateaus of eps * |G|, and
    clips negative values.
    """
    eps = _INVERT_EPS
    grid = np.asarray(grid, dtype=float)
    vals = np.empty((eps.size, grid.size))
    for j, e in enumerate(eps):
        vals[j] = [-(g(complex(x, e)).imag) / math.pi for x in grid]

    def richardson(j1, j2):
        e1, e2 = eps[j1], eps[j2]  # e1 > e2
        return vals[j2] + (vals[j2] - vals[j1]) * e2 / (e1 - e2)

    f_last = richardson(eps.size - 2, eps.size - 1)
    f_prev = richardson(eps.size - 3, eps.size - 2)
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
# characteristic foot points
# ---------------------------------------------------------------------------


def _newton(f, target, v0):
    """Newton on f(v)[0] = target from v0, with f(v)[1] the derivative; None when it stalls."""
    for _ in range(40):
        end = f(v0)
        if end[1] == 0:
            return None
        step = (end[0] - target) / end[1]
        v0 = v0 - step
        if not cmath.isfinite(step):
            return None
        if abs(step) <= 1e-13 * max(1.0, abs(v0)):
            return v0
    return None


def _foot_point(end_map, valid, target, z: complex, guess):
    """Foot point v0 of the characteristic through z, and end_map(v0).

    ``end_map(v0)`` returns (v(t), dv(t)/dv0, ...) for the characteristic
    with foot v0; the foot point solves v(t) = target(z).  Newton starts
    from guess(zc) at zc = x + iY (Y >= 4, far from the support) and is
    continued down the vertical segment to z; a step is halved when Newton
    stalls or lands on a root that ``valid`` rejects.  Below the axis the
    foot point is the conjugate of the one through conj(z).
    """
    if z.imag < 0:
        v0, end = _foot_point(end_map, valid, target, z.conjugate(), guess)
        return v0.conjugate(), tuple(v.conjugate() for v in end)
    top = max(4.0, z.imag)
    y, h = top, top - z.imag
    zc = complex(z.real, top)
    v0 = _newton(end_map, target(zc), guess(zc))
    if v0 is None or not valid(v0):
        raise FreeProbDomainError(f"no characteristic foot point found above z = {z}")
    while y > z.imag:
        y_next = max(z.imag, y - h)
        v = _newton(end_map, target(complex(z.real, y_next)), v0)
        if v is not None and valid(v):
            v0, y, h = v, y_next, 2.0 * h
        elif h < 1e-12 * top:
            raise FreeProbDomainError(f"characteristic foot-point continuation stalled at z = {z}")
        else:
            h /= 2.0
    end = end_map(v0)
    goal = target(z)
    if abs(end[0] - goal) > 1e-12 * max(1.0, abs(goal)):
        raise FreeProbDomainError(f"characteristic foot point off by {abs(end[0] - goal):.3g} at z = {z}")
    return v0, end


def _characteristic_end(g_q0, nu0, t, w0):
    """(w(t), dw(t)/dw0, q0, dq0/dw0) on the Dunkl characteristic with foot w0 = z0^2.

    Along dz/ds = nu0/z + 2 G_even(s, z) the even PDE gives q = G_even/z with
    dq/ds = -2 q^2 and w = z^2 with dw/ds = 2 nu0 + 4 w q, so
    q(s) = q0/a(s) and w(s) = a(s)^2 w0 + 2 nu0 s a(s), a(s) = 1 + 2 s q0,
    where q0 = G_Q0(w0) and Q0 is the law of x^2 at s = 0.
    """
    q0, dq0 = g_q0(w0)
    a = 1.0 + 2.0 * t * q0
    w = a * a * w0 + 2.0 * nu0 * t * a
    return w, a * a + 4.0 * t * dq0 * (a * w0 + nu0 * t), q0, dq0


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


def _dunkl_foot_point(g_q0, nu0: float, t: float, z: complex):
    """Foot point w0 = z0^2 of the Dunkl characteristic through z, and its end values."""
    return _foot_point(
        lambda w0: _characteristic_end(g_q0, nu0, t, w0),
        lambda w0: _foot_point_valid(w0, g_q0, nu0, t),
        lambda zc: zc * zc,
        z,
        lambda zc: zc * zc - (4.0 + 2.0 * nu0) * t,
    )


def dunkl_limit_stieltjes(mu0, nu0: float, t: float, z: complex) -> complex:
    """Stieltjes transform of the full-space jump-system limit law at time t (:class:`DunklLaw`)."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must be off the real axis")
    return dunkl_limit_law(mu0, nu0, t).cauchy(z)[0]


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
