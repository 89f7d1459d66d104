"""Reference computations for the benchmark, made apart from besselsim.

Nothing here imports besselsim.  Each function derives its value from the
defining equations of the particle systems (or from a classical matrix
model) so that the benchmark can check the program's outputs without
trusting the program:

* Jacobi-matrix (Golub-Welsch) zeros of Hermite and Laguerre polynomials;
* exact self-similar solutions of the frozen ODEs built from those zeros;
* exact power-sum identities of the frozen flows;
* exact Ito identities for E sum X_i^2 and E sum X_i^4 of the Bessel SDEs;
* the large-N limit moments and their O(1/N) corrections for zero starts;
* the full-space (Dunkl) limit moment recurrence from arbitrary initial
  moments, and its moment series for the Stieltjes transform;
* closed-form semicircle and Marchenko-Pastur densities, the semicircle
  CDF, and the Kolmogorov-Smirnov distance of an empirical sample.

Conventions match the program's documented ones: type A drift
sum_j 1/(x_i - x_j), type B drift sum_j 2 x_i/(x_i^2 - x_j^2) + nu/x_i,
noise dB_i/sqrt(k) (type A) or dB_i/sqrt(beta) (type B), moments of the
atoms x/sqrt(N) (type A and full space) or x^2/(2N) (type B).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.linalg import eigvalsh_tridiagonal

# ---------------------------------------------------------------------------
# zeros from Jacobi matrices
# ---------------------------------------------------------------------------


def hermite_zeros_jacobi(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, descending.

    Eigenvalues of the symmetric tridiagonal Jacobi matrix with zero
    diagonal and off-diagonal sqrt(j/2), j = 1..n-1.
    """
    if n == 1:
        return np.zeros(1)
    off = np.sqrt(np.arange(1, n) / 2.0)
    return eigvalsh_tridiagonal(np.zeros(n), off)[::-1].copy()


def laguerre_zeros_jacobi(n: int, nu: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(nu-1), descending.

    Jacobi matrix with diagonal 2j + nu (j = 0..n-1) and off-diagonal
    sqrt(j (j + nu - 1)) (j = 1..n-1).
    """
    j = np.arange(n, dtype=float)
    diag = 2.0 * j + nu
    if n == 1:
        return diag.copy()
    off = np.sqrt(j[1:] * (j[1:] + nu - 1.0))
    return eigvalsh_tridiagonal(diag, off)[::-1].copy()


# ---------------------------------------------------------------------------
# frozen flows
# ---------------------------------------------------------------------------


def drift_a(x: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(x_i - x_j), from the defining ODE."""
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    return (1.0 / d).sum(axis=1)


def drift_b(x: np.ndarray, nu: float) -> np.ndarray:
    """sum_{j != i} 2 x_i/(x_i^2 - x_j^2) + nu/x_i, from the defining ODE."""
    sq = x * x
    d = sq[:, None] - sq[None, :]
    np.fill_diagonal(d, np.inf)
    return (2.0 * x[:, None] / d).sum(axis=1) + nu / x


def self_similar_a(hermite: np.ndarray, c: float, t) -> np.ndarray:
    """Exact type A solution from c*z: sqrt(2t + c^2) * z, shape (len(t), N)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.sqrt(2.0 * t + c * c)[:, None] * hermite[None, :]


def self_similar_b(laguerre: np.ndarray, c: float, t) -> np.ndarray:
    """Exact type B solution from c*sqrt(z): sqrt(2t + c^2) * sqrt(z)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.sqrt(2.0 * t + c * c)[:, None] * np.sqrt(laguerre)[None, :]


def power_sums_a(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S1, S2) of the atoms x/sqrt(N) for each row of ``states``."""
    n = states.shape[1]
    y = states / math.sqrt(n)
    return y.mean(axis=1), (y * y).mean(axis=1)


def power_sum_b(states: np.ndarray) -> np.ndarray:
    """S1 of the squared-side atoms x^2/(2N) for each row of ``states``."""
    n = states.shape[1]
    return (states * states / (2.0 * n)).mean(axis=1)


def frozen_identities_a(n: int, t) -> np.ndarray:
    """Exact S2(t) - S2(0) = t (N-1)/N of the frozen type A flow (S1 constant)."""
    return np.asarray(t, dtype=float) * (n - 1) / n


def frozen_identity_b(n: int, nu: float, t) -> np.ndarray:
    """Exact squared-side S1(t) - S1(0) = t (N + nu - 1)/N of the frozen type B flow."""
    return np.asarray(t, dtype=float) * (n + nu - 1.0) / n


# ---------------------------------------------------------------------------
# Ito identities of the Bessel SDEs
# ---------------------------------------------------------------------------


def generator_a(x: np.ndarray, k: float) -> tuple[float, float]:
    """Generator of the type A SDE applied to S2 = sum x^2 and S4 = sum x^4.

    Evaluated term by term at the point x, with no algebraic shortcut;
    used to test the closed forms of :func:`ito_a`.
    """
    b = drift_a(x)
    return (
        float(np.sum(2.0 * x * b) + x.size / k),
        float(np.sum(4.0 * x**3 * b) + np.sum(6.0 * x * x) / k),
    )


def generator_b(x: np.ndarray, nu: float, beta: float) -> tuple[float, float]:
    """Generator of the type B SDE applied to S2 and S4 at the point x."""
    b = drift_b(x, nu)
    return (
        float(np.sum(2.0 * x * b) + x.size / beta),
        float(np.sum(4.0 * x**3 * b) + np.sum(6.0 * x * x) / beta),
    )


def ito_a(n: int, k: float, t: float, x0: np.ndarray) -> dict:
    """Exact E S2, Var S2 and E S4 at time t for the type A SDE from x0.

    With S_p = sum X_i^p:  L S2 = N(N-1) + N/k,  and
    L S4 = (4N - 6 + 6/k) S2 + 2 S1^2,  where S1 is a Brownian motion of
    variance N t/k.  S2 - E S2 is the martingale 2/sqrt(k) int sum X dB,
    whose variance is (4/k) int E S2.
    """
    s1, s2, s4 = float(np.sum(x0)), float(np.sum(x0**2)), float(np.sum(x0**4))
    a = n * (n - 1) + n / k
    e2 = s2 + a * t
    var2 = 4.0 / k * (s2 * t + a * t * t / 2.0)
    e4 = s4 + (4 * n - 6 + 6.0 / k) * (s2 * t + a * t * t / 2.0) + 2.0 * s1 * s1 * t + n * t * t / k
    return {"E_S2": e2, "Var_S2": var2, "E_S4": e4}


def ito_b(n: int, nu: float, beta: float, t: float, x0: np.ndarray) -> dict:
    """Exact E S2, Var S2 and E S4 at time t for the type B SDE from x0.

    L S2 = 2N(N-1) + 2N nu + N/beta,  L S4 = (8(N-1) + 4 nu + 6/beta) S2.
    """
    s2, s4 = float(np.sum(x0**2)), float(np.sum(x0**4))
    a = 2 * n * (n - 1) + 2 * n * nu + n / beta
    e2 = s2 + a * t
    var2 = 4.0 / beta * (s2 * t + a * t * t / 2.0)
    e4 = s4 + (8 * (n - 1) + 4 * nu + 6.0 / beta) * (s2 * t + a * t * t / 2.0)
    return {"E_S2": e2, "Var_S2": var2, "E_S4": e4}


# ---------------------------------------------------------------------------
# limit moments and their 1/N corrections (zero start)
# ---------------------------------------------------------------------------


def _integrate(p):
    return P.polyint(p) if len(p) else np.zeros(1)


def _mul(p, q):
    return P.polymul(p, q)


def _add(*ps):
    out = np.zeros(1)
    for p in ps:
        out = P.polyadd(out, p)
    return out


def moments_a_zero_start(k: float, n: int, L: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(c_l(t), c_l(t) + d_l(t)/N) for the type A SDE from the origin.

    c_l are the semicircle moments of radius 2 sqrt(t); d_l solve the
    first-order finite-N moment hierarchy
        d_l' = (l/2) [(1 - l) c_{l-2} + sum_j (c_{l-2-j} d_j + c_j d_{l-2-j})]
               + l (l - 1)/(2k) c_{l-2},   d_l(0) = 0,
    which reproduces the exact Ito values of E S2 and E S4 to O(1/N).
    """
    c = [np.array([1.0]), np.zeros(1)]
    for l in range(2, L + 1):
        s = _add(*[_mul(c[l - 2 - j], c[j]) for j in range(l - 1)])
        c.append(_integrate(l / 2.0 * s))
    d = [np.zeros(1), np.zeros(1)]
    for l in range(2, L + 1):
        s = _add(*[P.polyadd(_mul(c[l - 2 - j], d[j]), _mul(c[j], d[l - 2 - j])) for j in range(l - 1)])
        integrand = _add(l / 2.0 * ((1 - l) * c[l - 2]), l / 2.0 * s, l * (l - 1) / (2.0 * k) * c[l - 2])
        d.append(_integrate(integrand))
    lim = np.array([P.polyval(t, p) for p in c])
    corr = np.array([P.polyval(t, p) for p in d])
    return lim, lim + corr / n


def moments_b_zero_start(
    nu0: float, beta: float, n: int, L: int, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Squared-side (c_l(t), c_l(t) + e_l(t)/N) for the type B SDE from the origin, nu = nu0 N.

    c_l are the Marchenko-Pastur moments MP(1 + nu0, t); e_l solve
        e_l' = l [((2l-1)/(2 beta) - l) c_{l-1} + (2 + nu0) e_{l-1}
               + sum_{j=1}^{l-2} (c_{l-1-j} e_j + c_j e_{l-1-j})],   e_l(0) = 0.
    """
    c = [np.array([1.0])]
    for l in range(1, L + 1):
        s = _add(*[_mul(c[l - 1 - j], c[j]) for j in range(l)])
        c.append(_integrate(_add(l * nu0 * c[l - 1], l * s)))
    e = [np.zeros(1)]
    for l in range(1, L + 1):
        s = _add(*[P.polyadd(_mul(c[l - 1 - j], e[j]), _mul(c[j], e[l - 1 - j])) for j in range(1, l - 1)])
        integrand = l * _add(((2 * l - 1) / (2.0 * beta) - l) * c[l - 1], (2.0 + nu0) * e[l - 1], s)
        e.append(_integrate(integrand))
    lim = np.array([P.polyval(t, p) for p in c])
    corr = np.array([P.polyval(t, p) for p in e])
    return lim, lim + corr / n


def dunkl_limit_moments(m0, nu0: float, t: float, L: int) -> np.ndarray:
    """Limit moments c_0..c_L of the full-space jump system at time t.

    Float evaluation of the joint even/odd chains
        c_{2l}'   = 2l (nu0 c_{2l-2} + sum_{h<l} c_{2h} c_{2l-2h-2}),
        c_{2l+1}' = 2l nu0 c_{2l-1} + 4 sum_{h<l} (l-h) c_{2h} c_{2l-2h-1},
    integrated exactly as polynomials in t from the initial moments m0.
    """
    m0 = [float(v) for v in m0]
    c = [np.array([1.0])]
    for m in range(1, L + 1):
        if m % 2 == 0:
            l = m // 2
            s = _add(*[_mul(c[2 * h], c[2 * l - 2 * h - 2]) for h in range(l)])
            integrand = 2 * l * _add(nu0 * c[2 * l - 2], s)
        else:
            l = (m - 1) // 2
            parts = [4.0 * (l - h) * _mul(c[2 * h], c[2 * l - 2 * h - 1]) for h in range(l)]
            integrand = _add(2 * l * nu0 * c[2 * l - 1], *parts) if l >= 1 else np.zeros(1)
        c.append(P.polyadd(np.array([m0[m]]), _integrate(integrand)))
    return np.array([P.polyval(t, p) for p in c])


def moment_series_stieltjes(moments, z: complex) -> complex:
    """G(z) = sum_l m_l / z^(l+1), valid outside the support."""
    acc = 0j
    zp = complex(z)
    for m in moments:
        acc += m / zp
        zp *= z
    return acc


# ---------------------------------------------------------------------------
# closed-form laws and KS
# ---------------------------------------------------------------------------


def semicircle_density(r: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < r, 2.0 / (math.pi * r * r) * np.sqrt(np.maximum(r * r - x * x, 0.0)), 0.0)


def semicircle_cdf(r: float, x) -> np.ndarray:
    xc = np.clip(np.asarray(x, dtype=float), -r, r)
    return 0.5 + (xc * np.sqrt(r * r - xc * xc) / (r * r) + np.arcsin(xc / r)) / math.pi


def mp_density(c: float, t: float, x) -> np.ndarray:
    """Absolutely continuous part of the Marchenko-Pastur law MP(c, t)."""
    x = np.asarray(x, dtype=float)
    lo, hi = t * (math.sqrt(c) - 1.0) ** 2, t * (math.sqrt(c) + 1.0) ** 2
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(x)
    out[inside] = np.sqrt((hi - x[inside]) * (x[inside] - lo)) / (2.0 * math.pi * t * x[inside])
    return out


def quartercircle_moments(L: int) -> np.ndarray:
    """Moments of sqrt(4 - x^2)/pi on [0, 2], by Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    # substitute x = 2 sin(theta) to remove the square-root endpoint
    theta = (nodes + 1.0) * math.pi / 4.0
    x = 2.0 * np.sin(theta)
    w = weights * math.pi / 4.0 * (4.0 * np.cos(theta) ** 2) / math.pi
    return np.array([float(np.sum(w * x**l)) for l in range(L + 1)])


def ks_distance(sample, cdf) -> float:
    """sup |F_n - F| of an empirical sample against a continuous CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
