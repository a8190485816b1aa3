"""Dense exact polynomial arithmetic over prime fields, and the polynomial
invariants attached to degenerating covers.

``cartier_coefficient`` evaluates, for exponents (a1..a4) summing to 2(p-1),
the coefficient polynomial

    c(lambda) = sum_j  C(p-1-a2, a4-j) * C(p-1-a3, j) * lambda^j,

the border case of the Cartier operator acting on the differential attached to
the Kummer cover z^(p-1) = x^a1 (x-1)^a2 (x-lambda)^a3.  Up to the sign
(-1)^a4 it is the x^p coefficient of x^(p-a1) (x-1)^(p-1-a2) (x-lambda)^(p-1-a3),
which the tests recompute by brute-force expansion.  Zeros of c in the lambda
line are the supersingular parameters.  ``irreducible_factor_degrees`` gives
the degrees of the irreducible factors of c, which say over which extensions
F_{p^k} those zeros lie, by one distinct-degree factorization loop that also
counts multiplicities (von zur Gathen and Gerhard, Modern Computer Algebra,
section 14.2; Knuth, TAOCP vol. 2, section 4.6.2).

``tail_polynomial_single``/``tail_polynomial_double`` build the degree-p
two-point tail covers y^p + y^e = x and y^e1 (y-1)^e2 Ftilde(y) = x, the
latter with Ftilde determined by the first-derivative condition through the
coefficient recursion c_i = c_{i-1} (e1+e2+i-1)/(e1+i), run downward from the
monic top coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

from .arith import require_prime
from .errors import BoundExceededError, InvalidTypeError

# Factoring c costs about p^3.  Over seeded samples of the near-symmetric
# exponents (h+s, h-s, h-t, h+t) and (h-s, h+s, h+t, h-t), h = (p-1)/2, with s
# and t uniform in 0..h (400 vectors at p = 241, 200 at p = 401), the slowest
# takes 0.62 s at p = 241 and 3.8 s at p = 401 (2-core Xeon, Python 3.11).
KUMMER_MAX_PRIME = 250

# The tail polynomials and ramification_profile are dense in p, and the
# profile costs about p^2: the slowest of 43 seeded two-point tails, (2, p-2),
# takes 0.32 s to build and profile at p = 997, and 1.3 s at p = 2003 (2-core
# Xeon, Python 3.11).
TAIL_MAX_PRIME = 1000


class FpPoly:
    """Polynomial over F_p as a trimmed dense coefficient tuple."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        require_prime(p)
        vals = [c % p for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def _reduced(cls, p: int, vals: list[int]) -> "FpPoly":
        """A ring result: p is already checked and every value lies in
        [0, p), so only the trailing zeros are trimmed."""
        while vals and vals[-1] == 0:
            vals.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "p", p)
        object.__setattr__(poly, "coeffs", tuple(vals))
        return poly

    # -- basics --------------------------------------------------------------

    @classmethod
    def monomial(cls, p: int, k: int) -> "FpPoly":
        return cls(p, (0,) * k + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def _check(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise InvalidTypeError(f"mixed moduli {self.p} and {other.p}")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p, pairs = self.p, zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return self._reduced(p, [(a + b) % p for a, b in pairs])

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        p, pairs = self.p, zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return self._reduced(p, [(a - b) % p for a, b in pairs])

    def __neg__(self) -> "FpPoly":
        return self._reduced(self.p, [-c % self.p for c in self.coeffs])

    def __mul__(self, other: "FpPoly | int") -> "FpPoly":
        p = self.p
        if isinstance(other, int):
            return self._reduced(p, [c * other % p for c in self.coeffs])
        self._check(other)
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(b, i):
                    out[j] += a * c
        return self._reduced(p, [c % p for c in out])

    __rmul__ = __mul__

    def __divmod__(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p, b = self.p, other.coeffs
        n, low = len(b) - 1, b[:-1]
        rem = list(self.coeffs)
        dq = len(rem) - 1 - n
        if dq < 0:
            return self._reduced(p, []), self
        quot = [0] * (dq + 1)
        inv_lead = pow(b[-1], -1, p)
        for k in range(dq, -1, -1):
            c = rem[k + n] * inv_lead % p
            if c:
                quot[k] = c
                for j, y in enumerate(low, k):
                    rem[j] = (rem[j] - c * y) % p
        return self._reduced(p, quot), self._reduced(p, rem[:n])

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FpPoly":
        if self.is_zero():
            return self
        return self * pow(self.coeffs[-1], -1, self.p)

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, (k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs):
            y = (y * x + c) % self.p
        return y

    def to_string(self, var: str = "x") -> str:
        """Ascending powers, zero terms suppressed, e.g. ``1 + 4*x + x^2``."""
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{var}" if c != 1 else var)
            else:
                terms.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
        return " + ".join(terms)

    def __repr__(self):
        return f"FpPoly(p={self.p}, {self.to_string()})"


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: FpPoly, exponent: int, modulus: FpPoly) -> FpPoly:
    result = FpPoly.monomial(base.p, 0)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


def lucas_binomial(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as the product of C(n_i, k_i) over base-p digits (Lucas)."""
    require_prime(p)
    if k < 0 or k > n:
        return 0
    out = 1
    while k and out:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * math.comb(nd, kd) % p
    return out


# -- deformation-datum polynomials -------------------------------------------


@dataclass(frozen=True)
class KummerData:
    """Exponents of the cyclic cover z^(p-1) = x^a1 (x-1)^a2 (x-lambda)^a3,
    with a4 the exponent at infinity."""

    p: int
    a: tuple[int, int, int, int]

    def __post_init__(self):
        if self.p > KUMMER_MAX_PRIME:
            raise BoundExceededError(
                f"characteristic {self.p} exceeds deformation-datum bound {KUMMER_MAX_PRIME}"
            )
        object.__setattr__(self, "a", tuple(self.a))
        require_prime(self.p)
        if len(self.a) != 4:
            raise InvalidTypeError("exactly four exponents required")
        if any(not 0 <= ai <= self.p - 1 for ai in self.a):
            raise InvalidTypeError(f"exponents {self.a} out of range [0, p-1]")
        if sum(self.a) != 2 * (self.p - 1):
            raise InvalidTypeError(
                f"exponents must sum to 2(p-1) = {2 * (self.p - 1)}, got {sum(self.a)}"
            )

    @property
    def kummer_degree(self) -> int:
        return (self.p - 1) // math.gcd(self.p - 1, *self.a)


def cartier_coefficient(k: KummerData) -> FpPoly:
    """The coefficient polynomial c(lambda); never zero for valid exponents.

    The j-th coefficient, j from 0 to min(a4, p-1-a3), is
    C(p-1-a2, a4-j) C(p-1-a3, j) mod p.  The first binomial is 0 below
    j = a2+a4-(p-1); from there on both are nonzero, since their top indices
    lie below p.  In particular the leading term survives, so c cannot vanish.
    """
    p = k.p
    a1, a2, a3, a4 = k.a
    coeffs = [
        lucas_binomial(p - 1 - a2, a4 - j, p) * lucas_binomial(p - 1 - a3, j, p) % p
        for j in range(min(a4, p - 1 - a3) + 1)
    ]
    poly = FpPoly(p, coeffs)
    if poly.is_zero():
        raise InvalidTypeError(f"coefficient polynomial vanished for {k}")
    return poly


def fp_roots(f: FpPoly) -> list[int]:
    """Distinct roots in F_p by exhaustive evaluation (moduli up to ~10^6)."""
    if f.is_zero():
        raise InvalidTypeError("the zero polynomial has every root")
    if f.p > 10**6:
        raise BoundExceededError(f"exhaustive root search refused for p = {f.p}")
    return [x for x in range(f.p) if f(x) == 0]


def supersingular_lambdas(k: KummerData) -> list[int]:
    """Roots of the coefficient polynomial in F_p minus the branch points 0, 1."""
    return [r for r in fp_roots(cartier_coefficient(k)) if r not in (0, 1)]


def irreducible_factor_degrees(f: FpPoly) -> list[int]:
    """Degrees of all irreducible factors, with multiplicity, sorted.

    One distinct-degree loop.  x^(p^k) - x is the product of the monic
    irreducibles whose degree divides k, each once.  At step k every factor of
    lower degree has left ``rest``, so g = gcd(rest, x^(p^k) - x) is the
    product of the distinct degree-k factors; dividing g out and taking
    gcd(rest, g) again until it is 1 counts each with its multiplicity, p-th
    powers included.  Once deg rest < 2(k+1), rest is 1 or irreducible.

    The power of x is split off first: c(lambda) often has one (c(0) = 0 for
    about half of the exponent vectors), and without it every Frobenius power
    is taken modulo a polynomial of higher degree.
    """
    p = f.p
    coeffs = f.monic().coeffs
    zeros = next((k for k, c in enumerate(coeffs) if c), 0)
    degrees = [1] * zeros
    rest = FpPoly(p, coeffs[zeros:])
    x = frob = FpPoly.monomial(p, 1)
    k = 0
    while rest.degree() >= 2 * (k + 1):
        k += 1
        # frob was reduced modulo an earlier multiple of rest; pow_mod reduces
        # its base first
        frob = pow_mod(frob, p, rest)
        g = poly_gcd(rest, frob - x)
        while g.degree() > 0:
            degrees.extend([k] * (g.degree() // k))
            rest = rest // g
            g = poly_gcd(rest, g)
    if rest.degree() > 0:
        degrees.append(rest.degree())
    return sorted(degrees)


# -- tail-cover polynomials ---------------------------------------------------


def _check_tail_prime(p: int) -> None:
    if p > TAIL_MAX_PRIME:
        raise BoundExceededError(
            f"characteristic {p} exceeds tail-polynomial bound {TAIL_MAX_PRIME}"
        )


def tail_polynomial_single(p: int, e: int) -> FpPoly:
    """F(y) = y^p + y^e, the degree-p tail with tame index e at y = 0."""
    _check_tail_prime(p)
    require_prime(p)
    if not 2 <= e <= p - 1:
        raise InvalidTypeError(f"need 2 <= e <= p-1, got e={e}")
    return FpPoly.monomial(p, p) + FpPoly.monomial(p, e)


def tail_polynomial_cofactor(p: int, e1: int, e2: int) -> FpPoly:
    """The monic degree p-e1-e2 cofactor Ftilde of the two-point tail, from
    the downward recursion c_{i-1} = c_i (e1+i) / (e1+e2+i-1)."""
    _check_tail_prime(p)
    require_prime(p)
    if not (2 <= e1 <= e2 and e1 + e2 <= p):
        raise InvalidTypeError(f"need 2 <= e1 <= e2 and e1+e2 <= p, got ({e1},{e2})")
    n = p - e1 - e2
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for i in range(n, 0, -1):
        denom = (e1 + e2 + i - 1) % p
        # e1+e2 <= e1+e2+i-1 <= p-1, so the denominator never vanishes mod p
        assert denom != 0
        coeffs[i - 1] = coeffs[i] * (e1 + i) % p * pow(denom, -1, p) % p
    return FpPoly(p, coeffs)


def tail_polynomial_double(p: int, e1: int, e2: int) -> FpPoly:
    """F(y) = y^e1 (y-1)^e2 Ftilde(y), monic of degree p, whose derivative is
    a nonzero constant times y^(e1-1) (y-1)^(e2-1)."""
    cofactor = tail_polynomial_cofactor(p, e1, e2)
    y = FpPoly.monomial(p, 1)
    y_minus_1 = y - FpPoly.monomial(p, 0)
    poly = FpPoly.monomial(p, e1)
    for _ in range(e2):
        poly = poly * y_minus_1
    poly = poly * cofactor
    assert poly.degree() == p
    return poly


@dataclass(frozen=True)
class RamificationProfile:
    """Finite tame ramification points (point, index) plus wildness at infinity."""

    finite_points: tuple[tuple[int, int], ...]
    wild_at_infinity: bool


def _divide_out(g: FpPoly, linear: FpPoly) -> tuple[FpPoly, int]:
    """(g / linear^k, k) for the largest k with linear^k dividing g."""
    k = 0
    while True:
        quot, rem = divmod(g, linear)
        if not rem.is_zero():
            return g, k
        g = quot
        k += 1


def ramification_profile(f: FpPoly) -> RamificationProfile:
    """Ramification of the map y -> f(y) on the affine line.

    Each rational root rho of f' of multiplicity k gives a tame point of index
    k+1 (checked against the local multiplicity of f - f(rho)); a vanishing
    derivative, wild finite ramification, or critical points outside the prime
    field are refused.
    """
    p = f.p
    _check_tail_prime(p)
    if f.degree() > p:
        raise InvalidTypeError("degree above the characteristic is unsupported")
    deriv = f.derivative()
    if deriv.is_zero():
        raise InvalidTypeError("derivative vanishes identically (inseparable map)")
    rest = deriv.monic()
    points = []
    for rho in range(p):
        if rest(rho) != 0:
            continue
        linear = FpPoly(p, (-rho, 1))
        rest, mult = _divide_out(rest, linear)
        _, local = _divide_out(f - FpPoly(p, (f(rho),)), linear)
        if local % p == 0:
            raise InvalidTypeError(f"wild finite ramification at y = {rho}")
        assert local - 1 == mult, "tame local index inconsistent with derivative"
        points.append((rho, local))
    if rest.degree() > 0:
        raise InvalidTypeError("critical points outside the prime field")
    return RamificationProfile(tuple(points), wild_at_infinity=f.degree() == p)
