"""Limiting moment recurrences of the particle systems.

The large-N moments c_l(t) of the three systems satisfy closed
integro-recurrences that make every c_l(t) a polynomial in t:

  type A:   c_l(t) = c_l(0) + (l/2) Int_0^t sum_{k=0}^{l-2} c_{l-2-k} c_k
  type B:   c_l(t) = c_l(0) + l nu0 Int c_{l-1}
                             + l Int sum_{k=0}^{l-1} c_{l-1-k} c_k
  jump (B): even  c_{2l}(t)  = c_{2l}(0) + 2l Int (nu0 c_{2l-2}
                               + sum_{h<l} c_{2h} c_{2l-2h-2})
            odd   c_{2l+1}(t) = c_{2l+1}(0) + Int (2l nu0 c_{2l-1}
                               + 4 sum_{h<l} (l-h) c_{2h} c_{2l-2h-1})

The recurrences are evaluated with exact rational coefficients whenever
the inputs are exact, converting to floats only at evaluation time; the
polynomial representation doubles as the derivative source for the PDE
residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SCALING_SQRT_N = "sqrt_n"  # atoms x_i / sqrt(N)
SCALING_B_SQUARED = "sqrt_2n_squared"  # atoms x_i^2 / (2N)
SCALING_DUNKL = "dunkl_sqrt_n"  # full-space atoms x_i / sqrt(N)

MAX_ORDER = 64


class TPoly:
    """Polynomial in t; coefficients are Fractions, floats, or anything
    supporting ring arithmetic."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.c = c if c else [0]

    @classmethod
    def const(cls, value):
        return cls([value])

    def __add__(self, other):
        if not isinstance(other, TPoly):
            other = TPoly([other])
        n = max(len(self.c), len(other.c))
        out = []
        for i in range(n):
            a = self.c[i] if i < len(self.c) else 0
            b = other.c[i] if i < len(other.c) else 0
            out.append(a + b)
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-a for a in self.c])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TPoly) else TPoly([other]).__neg__())

    def __rsub__(self, other):
        return TPoly([other]) + (-self)

    def __mul__(self, other):
        if isinstance(other, TPoly):
            out = [0] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                if a == 0:
                    continue
                for j, b in enumerate(other.c):
                    out[i + j] = out[i + j] + a * b
            return TPoly(out)
        return TPoly([a * other for a in self.c])

    __rmul__ = __mul__

    def integrate(self):
        """Antiderivative vanishing at 0."""
        out = [0]
        for i, a in enumerate(self.c):
            if isinstance(a, (int, Fraction)):
                out.append(Fraction(a, i + 1) if not isinstance(a, Fraction) else a / (i + 1))
            else:
                out.append(a / (i + 1))
        return TPoly(out)

    def derivative(self):
        if len(self.c) == 1:
            return TPoly([0])
        return TPoly([(i + 1) * a for i, a in enumerate(self.c[1:])])

    @property
    def degree(self):
        return len(self.c) - 1

    def __call__(self, t):
        acc = 0
        for a in reversed(self.c):
            acc = acc * t + a
        return acc

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.c == other.c
        return self.degree == 0 and self.c[0] == other

    def __repr__(self):
        return f"TPoly({self.c})"


@dataclass
class MomentSequence:
    """Truncated moment sequence c_0..c_L with its scaling tag and time."""

    values: list
    scaling: str = SCALING_SQRT_N
    t: float = 0.0

    def __post_init__(self):
        if len(self.values) == 0 or self.values[0] != 1:
            raise ValueError("moment sequence must start with c_0 = 1")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, l):
        return self.values[l]

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _prep_initial(c0, L):
    vals = list(c0.values if isinstance(c0, MomentSequence) else c0)
    if len(vals) == 0 or vals[0] != 1:
        raise ValueError("initial moments must start with c_0 = 1")
    if L > MAX_ORDER:
        raise ValueError(f"order capped at {MAX_ORDER}")
    if len(vals) < L + 1:
        raise ValueError("need initial moments up to the requested order")
    exact = all(isinstance(v, (int, Fraction)) for v in vals[: L + 1])
    if exact:
        vals = [Fraction(v) for v in vals[: L + 1]]
    else:
        vals = [float(v) for v in vals[: L + 1]]
    return vals, exact


def limit_moment_polys_a(c0, L: int) -> list[TPoly]:
    """c_l(t) for the type A system as polynomials in t, l = 0..L."""
    vals, exact = _prep_initial(c0, L)
    half = Fraction(1, 2) if exact else 0.5
    polys = [TPoly.const(vals[0])]
    if L >= 1:
        polys.append(TPoly.const(vals[1]))
    for l in range(2, L + 1):
        s = TPoly.const(0)
        for k in range(l - 1):
            s = s + polys[l - 2 - k] * polys[k]
        polys.append(TPoly.const(vals[l]) + (l * half) * s.integrate())
    return polys


def limit_moment_polys_b(c0sq, nu0, L: int) -> list[TPoly]:
    """Squared-side c_l(t) for the type B system as polynomials in t."""
    vals, exact = _prep_initial(c0sq, L)
    nu0 = Fraction(nu0) if exact else float(nu0)
    if nu0 < 0:
        raise ValueError("nu0 must be nonnegative")
    polys = [TPoly.const(vals[0])]
    for l in range(1, L + 1):
        s = TPoly.const(0)
        for k in range(l):
            s = s + polys[l - 1 - k] * polys[k]
        polys.append(
            TPoly.const(vals[l]) + (l * nu0) * polys[l - 1].integrate() + l * s.integrate()
        )
    return polys


def limit_moment_polys_dunkl(c0, nu0, L: int) -> list[TPoly]:
    """Full-space jump-system c_l(t) as polynomials in t (joint even/odd chains)."""
    vals, exact = _prep_initial(c0, L)
    nu0 = Fraction(nu0) if exact else float(nu0)
    if nu0 < 0:
        raise ValueError("nu0 must be nonnegative")
    polys = [TPoly.const(vals[0])]
    for m in range(1, L + 1):
        if m % 2 == 0:
            l = m // 2
            s = TPoly.const(0)
            for h in range(l):
                s = s + polys[2 * h] * polys[2 * l - 2 * h - 2]
            integrand = nu0 * polys[2 * l - 2] + s
            polys.append(TPoly.const(vals[m]) + (2 * l) * integrand.integrate())
        else:
            l = (m - 1) // 2
            s = TPoly.const(0)
            for h in range(l):
                s = s + (l - h) * (polys[2 * h] * polys[2 * l - 2 * h - 1])
            integrand = (2 * l * nu0) * polys[2 * l - 1] + 4 * s if l >= 1 else TPoly.const(0)
            polys.append(TPoly.const(vals[m]) + integrand.integrate())
    return polys


def finite_size_moments_a(k, L: int, n: int, t) -> list[float]:
    """Type A E S_{N,l}(t) = c_l(t) + d_l(t)/N + O(1/N^2), delta_0 start, from
    d_l' = (l/2)[(1-l) c_{l-2} + sum_j (c_{l-2-j} d_j + c_j d_{l-2-j})]
           + l(l-1)/(2k) c_{l-2},  d_l(0) = 0  (E S_6(1) = 5 + 22/N at k = 1/2).
    """
    c = limit_moment_polys_a([1] + [0] * L, L)
    d = [TPoly([0]) for _ in range(L + 1)]
    for l in range(2, L + 1):
        s = TPoly([0])
        for j in range(l - 1):
            s = s + c[l - 2 - j] * d[j] + c[j] * d[l - 2 - j]
        d[l] = (
            Fraction(l, 2) * ((1 - l) * c[l - 2] + s)
            + Fraction(l * (l - 1), 2) / Fraction(k) * c[l - 2]
        ).integrate()
    t = Fraction(t)
    return [float(c[l](t)) + float(d[l](t)) / n for l in range(L + 1)]


def finite_size_moments_b(nu0, beta, L: int, n: int, t) -> list[float]:
    """Type B squared-side E S_{N,l}(t) = c_l + e_l/N + O(1/N^2), delta_0 start,
    from the finite-N drift with nu replaced by nu + (2l-1)/(2 beta):
    e_l' = l[((2l-1)/(2 beta) - l) c_{l-1} + (2 + nu0) e_{l-1}
           + sum_{j=1}^{l-2} (c_{l-1-j} e_j + c_j e_{l-1-j})].
    """
    c = limit_moment_polys_b([1] + [0] * L, Fraction(nu0), L)
    e = [TPoly([0]) for _ in range(L + 1)]
    for l in range(1, L + 1):
        s = TPoly([0])
        for j in range(1, l - 1):
            s = s + c[l - 1 - j] * e[j] + c[j] * e[l - 1 - j]
        e[l] = (
            l * ((Fraction(2 * l - 1, 2) / Fraction(beta) - l) * c[l - 1]
                 + (2 + Fraction(nu0)) * e[l - 1] + s)
        ).integrate()
    t = Fraction(t)
    return [float(c[l](t)) + float(e[l](t)) / n for l in range(L + 1)]


def _evaluate(polys, t, scaling):
    exact_t = isinstance(t, (int, Fraction))
    vals = [p(t if exact_t else float(t)) for p in polys]
    return MomentSequence(vals, scaling=scaling, t=float(t))


def limit_moments_a(c0, t, L: int) -> MomentSequence:
    """Type A limiting moments at time t, evaluated exactly when possible."""
    return _evaluate(limit_moment_polys_a(c0, L), t, SCALING_SQRT_N)


def limit_moments_b(c0sq, nu0, t, L: int) -> MomentSequence:
    """Type B squared-side limiting moments at time t."""
    return _evaluate(limit_moment_polys_b(c0sq, nu0, L), t, SCALING_B_SQUARED)


def limit_moments_dunkl(c0, nu0, t, L: int) -> MomentSequence:
    """Full-space jump-system limiting moments at time t."""
    return _evaluate(limit_moment_polys_dunkl(c0, nu0, L), t, SCALING_DUNKL)


def empirical_moments(atoms, L: int, scaling: str = SCALING_SQRT_N, t: float = 0.0) -> MomentSequence:
    """Moments (1/N) sum atoms^l of an empirical measure's rescaled atoms."""
    atoms = np.asarray(getattr(atoms, "atoms", atoms), dtype=float)
    if atoms.size == 0:
        raise ValueError("empirical measure must be nonempty")
    vals = [1.0]
    power = np.ones_like(atoms)
    for _ in range(L):
        power = power * atoms
        vals.append(float(power.mean()))
    return MomentSequence(vals, scaling=scaling, t=t)
