"""Exact arithmetic in Q(zeta_n).

A CycNumber is a coefficient vector of length phi(n) in the power basis
1, zeta, ..., zeta^(phi(n)-1), held as integer numerators over one
common denominator (Cohen, "A Course in Computational Algebraic Number
Theory", 4.2), with reduction modulo the n-th cyclotomic polynomial done
on the integers.  Rationals are exact throughout; Bernoulli
denominators are the whole point.

Phi_n is the Moebius product of the factors (1 - x^d)^mu(n/d), d | n,
and the one list of those factors per order builds Phi_n and divides by
it.  Reduction eliminates one row at a time with the sparse Phi_n at
small orders.  Past a crossover in (n - phi(n)) times the number of
terms of Phi_n (timed at _MOBIUS_STEPS) it goes down to odd squarefree
orders through Phi_2m(x) = Phi_m(-x) for odd m and Phi_qm(x) =
Phi_m(x^q) for q | m, and there divides through the factors, one slice
pass each.  A dense vector of numerators below 10^6 reduces at order
930 in 156 us through Phi_465(-x), against 458 us through the 16
factors of Phi_930, and at 1332 in 178 against 281 us (timeit, best of
7, Python 3.11 on a shared 2-vCPU VM).  Products multiply schoolbook at
phi(n) <= _SCHOOLBOOK_PHI and through padic's Kronecker kernel above
it.

Arithmetic through the dunder operators promotes both operands to the
lcm of their orders.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub

from .errors import NotEmbeddable, OrderMismatch
from .padic import PAdicInt, _poly_mul_trunc, factorize, teichmuller

# The largest power of ten that exponent notation may write in a JSON
# rational.  10^4299 has 4300 digits, Python's default int-string limit,
# so every value read can be written back; Fraction would otherwise spend
# seconds expanding an exponent such as 1e8000000.
MAX_EXPONENT = 4299
# The largest order a decoded CycNumber may have, checked before
# euler_phi factors it by trial division (at most 10^3 steps below this
# bound, against 10^9 at an order near 10^18).  The Gauss-sum and
# L-value tables reach order 1332.
MAX_ORDER = 10**6


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi of a nonpositive integer")
    for q, _ in factorize(n):
        n -= n // q
    return n


def _mobius(n: int) -> int:
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1)**len(fac)


@lru_cache(maxsize=None)
def _mobius_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(n/d)) for the divisors d of n with n/d squarefree, d
    ascending: Phi_n = prod (1 - x^d)^mu(n/d) for n > 1, where the
    exponents sum to 0."""
    pairs = [(n, 1)]
    for q, _ in factorize(n):
        pairs += [(d // q, -mu) for d, mu in pairs]
    return tuple(sorted(pairs))


def _times_phi(s: list[int], n: int, sign: int) -> list[int]:
    """s times Phi_n^sign mod x^len(s), in place, for n > 1 and sign
    +1 or -1: one exact pass per Moebius factor (1 - x^d)^(sign mu).
    Times 1 - x^d is one slice subtraction; over 1 - x^d is d strided
    running sums when d^2 <= len(s), else len(s)/d chunk additions."""
    size = len(s)
    for d, mu in _mobius_factors(n):
        if d >= size:
            break
        if mu == sign:
            s[d:] = map(sub, s[d:], s[:-d])
        elif d * d <= size:
            for r in range(d):
                s[r::d] = accumulate(s[r::d])
        else:
            for j in range(d, size, d):
                s[j:j + d] = map(add, s[j:j + d], s[j - d:j])
    return s


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first: the Moebius product of
    (1 - x^d)^mu(n/d) over d | n, applied to 1 mod x^(phi(n) + 1)."""
    if n == 1:
        return (-1, 1)
    return tuple(_times_phi([1] + [0] * euler_phi(n), n, 1))


@lru_cache(maxsize=None)
def _cyclotomic_sparse(n: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (index, value) pairs of Phi_n below the leading term."""
    phi = cyclotomic_poly(n)
    return tuple((j, v) for j, v in enumerate(phi[:-1]) if v)


@lru_cache(maxsize=None)
def _ramanujan_sums(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^k) for k < phi(n), the Ramanujan sums
    c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(n, k)."""
    return tuple(_mobius(n // gcd(n, k)) * euler_phi(n)
                 // euler_phi(n // gcd(n, k)) for k in range(euler_phi(n)))


# Above this many steps of the row loop, the input's nonzero entries
# above x^phi(n) times the number of nonzero terms of Phi_n below
# x^phi(n), _reduce_ints passes to a smaller order or divides by the
# Moebius product instead.  Elimination fills in rows that this count
# cannot see, so the crossover is low.  Timed on the 4,589 reductions of
# a tables pass (seed 7, orders 1 to 1332; seed 11 in brackets), best of
# 7 per call with the rules interleaved call by call, Python 3.11 on a
# shared 2-vCPU VM: 51.9 ms (41.7) at 50 steps, 51.7 (41.7) at 100, 54.0
# (43.3) at 150, 59.0 (47.5) at 250 and 68.4 (54.3) at 400, against
# 74.7 (59.0) at 0, where only a vector with no nonzero row above
# x^phi(n) skips the smaller orders and the Moebius product.
_MOBIUS_STEPS = 100

# At or below this phi(n), CycNumber.__mul__ multiplies schoolbook; above
# it, through padic's Kronecker kernel, whose packing costs a fixed 5-6 us.
# Timed with timeit, best of 5, one process, Python 3.11 on a shared
# 2-vCPU VM, on random numerators in [-1000, 1000) at the least order of
# each phi (kernel / schoolbook, reduction included): 7.2 / 2.0 us at
# phi = 2, 8.8 / 3.5 at 4, 9.9 / 5.1 at 6, 13.8 / 9.6 at 8, 17.8 / 12.8 at
# 10, 14.2 / 14.1 at 12, 16.6 / 21.1 at 16 and 20.1 / 31.3 at 20.  On
# the products of a tables pass (seed 7), sparser, schoolbook stays ahead
# up to phi = 20, where 66 of its 849 products lie above 12.
_SCHOOLBOOK_PHI = 12


def _reduce_ints(folded: list[int], n: int) -> list[int]:
    """The remainder mod Phi_n of an integer vector of length n, as
    phi(n) integers; folded is consumed.

    While the row loop takes at most _MOBIUS_STEPS steps (the nonzero
    rows above phi(n), each over the terms of the sparse Phi_n) it
    eliminates one row at a time; the timing that set the crossover is
    noted at _MOBIUS_STEPS.  Past it, two identities (Washington,
    "Introduction to Cyclotomic Fields", 2) pass to a smaller order m:
    for n = 2m with m odd, x^m = -1 mod Phi_n and Phi_n(x) = Phi_m(-x),
    so the vector folds mod x^m + 1 and is reduced mod Phi_m at -x; for
    q^2 | n, Phi_n(x) = Phi_m(x^q) with m = n/q, so each of the q slices
    folded[j::q] is reduced mod Phi_m.  At an odd squarefree order the
    quotient comes from Phi_n being palindromic: rev(q) = rev(folded) /
    Phi_n mod x^(n - phi(n)), and the remainder is folded - q Phi_n mod
    x^phi(n), one _times_phi each."""
    deg = euler_phi(n)
    sparse = _cyclotomic_sparse(n)
    if (n - deg - folded[deg:].count(0)) * len(sparse) <= _MOBIUS_STEPS:
        for i in range(n - 1, deg - 1, -1):
            c = folded[i]
            if c:
                folded[i] = 0
                base = i - deg
                for j, v in sparse:
                    folded[base + j] -= c * v
        return folded[:deg]
    if n % 4 == 2:
        m = n // 2
        half = list(map(sub, folded[:m], folded[m:]))
        half[1::2] = [-c for c in half[1::2]]
        rem = _reduce_ints(half, m)
        rem[1::2] = [-c for c in rem[1::2]]
        return rem
    q = next((q for q, e in factorize(n) if e > 1), 0)    # q^2 | n
    if q:
        rem = [0] * deg
        for j in range(q):
            rem[j::q] = _reduce_ints(folded[j::q], n // q)
        return rem
    quot = _times_phi(folded[:deg - 1:-1], n, -1)[::-1]
    del quot[deg:]                      # q mod x^phi(n), padded to phi(n)
    quot += [0] * (deg - len(quot))
    return list(map(sub, folded, _times_phi(quot, n, 1)))


class CycNumber:
    """Element of Q(zeta_order) in the power basis; immutable.

    Stored as integer numerators `num` over one positive denominator
    `den` with gcd(den, *num) == 1, so equal elements of one order have
    equal data.  The hash is that of Tr(x)/phi(order), so equal values
    of different orders hash alike and a rational hashes like its
    Fraction.
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        want = euler_phi(order)
        if len(coeffs) != want:
            raise ValueError(
                f"need {want} coefficients for order {order}, "
                f"got {len(coeffs)}")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return _cyc(order, [c.numerator * (den // c.denominator)
                            for c in fracs], den)

    def __setattr__(self, name, *_):
        raise AttributeError(f"CycNumber is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return CycNumber, (self.order, self.coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(x, order: int = 1) -> "CycNumber":
        num = [0] * euler_phi(order)
        if type(x) is int:          # no Fraction: _align coerces every int
            num[0] = x
            return _cyc(order, num, 1)
        x = Fraction(x)
        num[0] = x.numerator
        return _cyc(order, num, x.denominator)

    @staticmethod
    def zeta(order: int, k: int = 1) -> "CycNumber":
        """zeta_order^k; zeta_1^k = 1 and zeta_2^k = (-1)^k need no
        reduction mod Phi_order."""
        if order in (1, 2):
            return _cyc(order, [-1 if order == 2 and k % 2 else 1], 1)
        folded = [0] * order
        folded[k % order] = 1
        return _cyc(order, _reduce_ints(folded, order), 1)

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
        folded = [0] * order
        for e, c in enumerate(self.num):
            folded[e * step] = c
        return _cyc(order, _reduce_ints(folded, order), self.den)

    def _align(self, other) -> tuple["CycNumber", "CycNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other, self.order)
        if not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        if other.order == self.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        return _add(a, b, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        return _add(a, b, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _cyc(self.order, [c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            k = other.numerator
            return _cyc(self.order, [c * k for c in self.num],
                        self.den * other.denominator)
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        n, phi = a.order, len(a.num)
        folded = [0] * n
        if phi <= _SCHOOLBOOK_PHI:
            bn = b.num
            for i, x in enumerate(a.num):
                if x:
                    for j, y in enumerate(bn, i):
                        folded[j % n] += x * y
            return _cyc(n, _reduce_ints(folded, n), a.den * b.den)
        # each product coefficient c has |c| <= phi * max|a_i| * max|b_j|,
        # so m > 2|c| and c is its residue mod m read back symmetrically
        m = 2 * phi * max(map(abs, a.num)) * max(map(abs, b.num)) + 1
        for i, c in enumerate(_poly_mul_trunc(a.num, b.num, m, 2 * phi - 2)):
            folded[i % n] += c if 2 * c < m else c - m
        return _cyc(n, _reduce_ints(folded, n), a.den * b.den)

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
            return self.is_rational() and self.as_rational() == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._align(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # Tr(x)/phi(n) does not change under promote, so values equal
        # across orders hash alike, and for a rational x it is x itself
        n = self.order
        trace = sum(c * t for c, t in zip(self.num, _ramanujan_sums(n)))
        return hash(Fraction(trace, self.den * euler_phi(n)))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def galois(self, j: int) -> "CycNumber":
        """Apply zeta -> zeta^j; j must be prime to the order."""
        n = self.order
        if gcd(j, n) != 1:
            raise ValueError(f"{j} not prime to order {n}")
        folded = [0] * n
        for e, c in enumerate(self.num):
            folded[(e * j) % n] += c
        return _cyc(n, _reduce_ints(folded, n), self.den)

    def conjugate(self) -> "CycNumber":
        return self.galois(self.order - 1) if self.order > 1 else self

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(float(c) * z**e for e, c in enumerate(self.coeffs))

    def denominator_lcm(self) -> int:
        return self.den

    def __repr__(self):
        coeffs = self.coeffs
        if self.is_rational():
            return f"Cyc({coeffs[0]})"
        terms = [f"{c}*z{self.order}^{e}" for e, c in enumerate(coeffs) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = self.num if self.den == 1 else self.coeffs
        return {"order": self.order, "coeffs": [str(c) for c in coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "CycNumber":
        """Inverse of to_json; ValueError for a malformed record or an
        order past MAX_ORDER."""
        order, coeffs = obj.get("order"), obj.get("coeffs")
        if type(order) is not int or not isinstance(coeffs, list):
            raise ValueError(f"bad cyclotomic value {obj!r}")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"need an order in [1, {MAX_ORDER}], got {order}")
        return CycNumber(order, [parse_rational(c) for c in coeffs])


_new = object.__new__
_set_order, _set_num, _set_den = (CycNumber.order.__set__,
                                  CycNumber.num.__set__, CycNumber.den.__set__)


def _cyc(order: int, num: list[int], den: int) -> CycNumber:
    """A CycNumber from phi(order) integer numerators over den > 0,
    unchecked; only the gcd normalization is applied."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    x = _new(CycNumber)
    _set_order(x, order)
    _set_num(x, tuple(num))
    _set_den(x, den)
    return x


def _add(a: CycNumber, b: CycNumber, sign: int) -> CycNumber:
    """a + sign * b for operands of one order."""
    if a.den == b.den:
        return _cyc(a.order, [x + sign * y for x, y in zip(a.num, b.num)],
                    a.den)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    return _cyc(a.order, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)


def _is_zero(x) -> bool:
    """x == 0 for an exact or p-adic scalar; a CycNumber compared with
    == builds a Fraction, so it and PAdicInt answer from their data."""
    if isinstance(x, (CycNumber, PAdicInt)):
        return x.is_zero()
    return x == 0


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


@lru_cache(maxsize=256)
def _zeta_image(p: int, prec: int, n: int, g: int) -> int:
    """Residue of teich(g)^((p-1)/n) mod p^prec, the image of zeta_n."""
    return pow(teichmuller(g, p, prec).residue, (p - 1) // n, p**prec)


@lru_cache(maxsize=256)
def _residue_embedding(p: int, prec: int, primitive_root: int | None):
    """The map u -> residue in [0, p^prec) of the image of u along
    zeta_n -> teich(g)^((p-1)/n), g = embedding_root(p, primitive_root),
    for a CycNumber, int or Fraction u; NotEmbeddable when n does not
    divide p - 1 or p divides a denominator.  Every embedding into Z_p
    is this one: cyc_embed_padic, p_stabilize's coefficients and the
    report's sigma rows.  The map is memoized per (p, prec, root)."""
    g = embedding_root(p, primitive_root)
    m = p**prec

    def embed(u) -> int:
        if isinstance(u, int):
            return u % m
        if isinstance(u, CycNumber):
            n, num, den = u.order, u.num, u.den
        else:
            u = Fraction(u)
            n, num, den = 1, (u.numerator,), u.denominator
        if (p - 1) % n != 0:
            raise NotEmbeddable(f"order {n} does not divide p - 1 = {p - 1}")
        if den % p == 0:
            bad = next(c for c in u.coeffs if c.denominator % p == 0) \
                if isinstance(u, CycNumber) else u
            raise NotEmbeddable(f"denominator of {bad} is divisible by {p}")
        total = num[0]
        if n > 1:
            z, total = _zeta_image(p, prec, n, g), 0
            for c in reversed(num):
                total = (total * z + c) % m
        return total * pow(den, -1, m) % m
    return embed


def cyc_embed_padic(u: CycNumber | int | Fraction, p: int, prec: int,
                    primitive_root: int | None = None) -> PAdicInt:
    """Embed Q(zeta_n) into Z_p along zeta_n -> teich(g)^((p-1)/n), with
    g = embedding_root(p, primitive_root); ints and Fractions embed as
    rationals."""
    return PAdicInt(p, prec, _residue_embedding(p, prec, primitive_root)(u))


# -- exact scalars in JSON ---------------------------------------------------


def parse_rational(s) -> int | Fraction:
    """An int or Fraction from its JSON form (a string or a number);
    ValueError for anything else, bools and zero denominators included,
    and for exponent notation past MAX_EXPONENT, refused before Fraction
    expands it.  A JSON int, and a string of ASCII digits with at most a
    leading '-', are read as ints without a Fraction."""
    if type(s) is int:
        return s
    if type(s) is str and s.isascii() and s.removeprefix("-").isdigit():
        return int(s)
    text = str(s)
    _, e, exp = text.upper().partition("E")
    try:
        huge = bool(e) and abs(int(exp)) > MAX_EXPONENT
    except ValueError:          # no integer exponent: Fraction refuses it
        huge = False
    if huge:
        raise ValueError(f"exponent of {s!r} exceeds {MAX_EXPONENT}")
    try:
        f = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc
    return int(f) if f.denominator == 1 else f


def parse_exact(s) -> int | Fraction | CycNumber:
    """Inverse of exact_json: a dict is a CycNumber, else a rational."""
    return CycNumber.from_json(s) if isinstance(s, dict) else parse_rational(s)


def exact_json(x):
    """JSON form of an exact scalar: a CycNumber's dict, else str(x)."""
    return x.to_json() if isinstance(x, CycNumber) else str(x)
