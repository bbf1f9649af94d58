"""Exact arithmetic in Q(zeta_n).

A CycNumber is a coefficient vector of length phi(n) in the power basis
1, zeta, ..., zeta^(phi(n)-1), with Fraction entries and reduction
modulo the n-th cyclotomic polynomial.  Rationals are exact throughout;
Bernoulli denominators are the whole point.

Arithmetic through the dunder operators promotes both operands to the
lcm of their orders.  The spec-level cyc_mul is strict and raises
OrderMismatch instead, so callers that are supposed to promote do so
explicitly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import NotEmbeddable, OrderMismatch
from .padic import PAdicInt, factorize, teichmuller


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi of a nonpositive integer")
    for q, _ in factorize(n):
        n -= n // q
    return n


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials with monic divisor."""
    assert den[-1] == 1
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 1)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, d in enumerate(den):
            num[i - deg_d + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, from x^n - 1 by division."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            assert all(r == 0 for r in rem)
    return tuple(poly)


@lru_cache(maxsize=None)
def _cyclotomic_sparse(n: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (index, value) pairs of Phi_n below the leading term."""
    phi = cyclotomic_poly(n)
    return tuple((j, v) for j, v in enumerate(phi[:-1]) if v)


def _reduce_ints(folded: list[int], n: int) -> list[int]:
    """In-place reduction of an integer vector of length n modulo Phi_n."""
    sparse = _cyclotomic_sparse(n)
    deg = euler_phi(n)
    for i in range(n - 1, deg - 1, -1):
        c = folded[i]
        if c:
            folded[i] = 0
            base = i - deg
            for j, v in sparse:
                folded[base + j] -= c * v
    return folded[:deg]


def _reduce_mod_cyclotomic(coeffs, n: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n (any degree) to the power basis.

    Denominators are cleared once so the reduction runs on plain ints.
    """
    den = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    folded = [0] * n
    for e, c in enumerate(coeffs):
        if c:
            folded[e % n] += int(c * den)
    reduced = _reduce_ints(folded, n)
    return tuple(Fraction(v, den) for v in reduced)


def _int_vector(coeffs) -> tuple[list[int], int]:
    """Scale a Fraction vector to integers; returns (ints, denominator)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@dataclass(frozen=True)
class CycNumber:
    """Element of Q(zeta_order) in the power basis."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        want = euler_phi(self.order)
        if len(self.coeffs) != want:
            raise ValueError(
                f"need {want} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}")
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(x, order: int = 1) -> "CycNumber":
        coeffs = [Fraction(x)] + [Fraction(0)] * (euler_phi(order) - 1)
        return CycNumber(order, tuple(coeffs))

    @staticmethod
    def zeta(order: int, k: int = 1) -> "CycNumber":
        """zeta_order^k."""
        raw = [Fraction(0)] * (k % order + 1)
        raw[k % order] = Fraction(1)
        return CycNumber(order, _reduce_mod_cyclotomic(raw, order))

    @staticmethod
    def zero(order: int = 1) -> "CycNumber":
        return CycNumber.from_rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "CycNumber":
        return CycNumber.from_rational(1, order)

    # -- structure ------------------------------------------------------

    def promote(self, order: int) -> "CycNumber":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise OrderMismatch(
                f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for e, c in enumerate(self.coeffs):
            raw[e * step] = c
        return CycNumber(order, _reduce_mod_cyclotomic(raw, order))

    def _align(self, other) -> tuple["CycNumber", "CycNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other, self.order)
        if not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        m = lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        # clear denominators, convolve and reduce over the integers
        ia, da = _int_vector(a.coeffs)
        ib, db = _int_vector(b.coeffs)
        n = a.order
        folded = [0] * n
        for i, x in enumerate(ia):
            if x:
                for j, y in enumerate(ib):
                    if y:
                        folded[(i + j) % n] += x * y
        den = da * db
        return CycNumber(n, tuple(Fraction(v, den)
                                  for v in _reduce_ints(folded, n)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not implemented")
        result = CycNumber.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def galois(self, j: int) -> "CycNumber":
        """Apply zeta -> zeta^j; j must be prime to the order."""
        if gcd(j, self.order) != 1:
            raise ValueError(f"{j} not prime to order {self.order}")
        raw = [Fraction(0)] * self.order
        for e, c in enumerate(self.coeffs):
            raw[(e * j) % self.order] += c
        return CycNumber(self.order, _reduce_mod_cyclotomic(raw, self.order))

    def conjugate(self) -> "CycNumber":
        return self.galois(self.order - 1) if self.order > 1 else self

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**e for e, c in enumerate(self.coeffs))

    def denominator_lcm(self) -> int:
        out = 1
        for c in self.coeffs:
            out = lcm(out, c.denominator)
        return out

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        terms = [f"{c}*z{self.order}^{e}" for e, c in enumerate(self.coeffs) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "CycNumber":
        return CycNumber(obj["order"], tuple(Fraction(c) for c in obj["coeffs"]))


# -- spec operations -------------------------------------------------------


def cyc_mul(u: CycNumber, v: CycNumber) -> CycNumber:
    """Product in Q(zeta_n); operands must already share the order."""
    if u.order != v.order:
        raise OrderMismatch(f"orders {u.order} and {v.order} differ")
    return u * v


def default_primitive_root(p: int) -> int:
    """Smallest primitive root mod p."""
    for g in range(2, p):
        if _is_primitive_root(g, p):
            return g
    raise ValueError(f"no primitive root found mod {p}")


def _is_primitive_root(g: int, p: int) -> bool:
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1
                              for q, _ in factorize(p - 1))


@lru_cache(maxsize=None)
def embedding_root(p: int, primitive_root: int | None = None) -> int:
    """The primitive root g mod p of zeta_n -> teich(g)^((p-1)/n).

    Every embedding of Q(zeta_n) into Z_p is resolved here: None gives
    the smallest primitive root, any other value comes back reduced mod
    p, and one that is not a primitive root raises NotEmbeddable (it
    would send some zeta_n to a root of unity of smaller order).
    """
    if primitive_root is None:
        return default_primitive_root(p)
    if not _is_primitive_root(primitive_root, p):
        raise NotEmbeddable(f"{primitive_root} is not a primitive root mod {p}")
    return primitive_root % p


def dlog(a: int, p: int, primitive_root: int | None = None) -> int:
    """The x in [0, p-2] with g^x = a mod p, g = embedding_root(p, root)."""
    g = embedding_root(p, primitive_root)
    for x in range(p - 1):
        if pow(g, x, p) == a % p:
            return x
    raise ValueError(f"{a} is not a unit mod {p}")


def cyc_embed_padic(u: CycNumber | int | Fraction, p: int, prec: int,
                    primitive_root: int | None = None) -> PAdicInt:
    """Embed Q(zeta_n) into Z_p along zeta_n -> teich(g)^((p-1)/n), with
    g = embedding_root(p, primitive_root); ints and Fractions embed as
    rationals."""
    g = embedding_root(p, primitive_root)
    n, coeffs = (u.order, u.coeffs) if isinstance(u, CycNumber) else (1, (u,))
    if (p - 1) % n != 0:
        raise NotEmbeddable(f"order {n} does not divide p - 1 = {p - 1}")
    m = p**prec
    z = pow(teichmuller(g, p, prec).residue, (p - 1) // n, m) if n > 1 else 1
    total, zpow = 0, 1
    for c in coeffs:
        if c.denominator % p == 0:
            raise NotEmbeddable(f"denominator of {c} is divisible by {p}")
        if c:
            total += c.numerator * pow(c.denominator, -1, m) * zpow
        zpow = zpow * z % m
    return PAdicInt(p, prec, total)


# -- exact scalars in JSON ---------------------------------------------------


def parse_rational(s) -> int | Fraction:
    """An int or Fraction from its JSON form (a string or a number)."""
    f = Fraction(str(s))
    return int(f) if f.denominator == 1 else f


def parse_exact(s) -> int | Fraction | CycNumber:
    """Inverse of exact_json: a dict is a CycNumber, else a rational."""
    return CycNumber.from_json(s) if isinstance(s, dict) else parse_rational(s)


def exact_json(x):
    """JSON form of an exact scalar: a CycNumber's dict, else str(x)."""
    return x.to_json() if isinstance(x, CycNumber) else str(x)
