"""Precision-tracked arithmetic in Z_p.

A PAdicInt is a residue modulo p^prec together with the exponent prec
itself, so every value knows how many digits it is good for.  The
precision rules are deliberately blunt and conservative:

  * binary operations return min(prec_left, prec_right);
  * exact division by p^k subtracts k from the precision;
  * nothing ever silently increases a claimed precision.

Valuations of values that are zero at working precision are reported as
None, to be read as "at least prec".

The public PAdicInt constructor checks p and prec.  Results of ring
operations take p and prec from operands that were checked already, so
they are built by `_padic`, which only reduces the residue, and a tuple
of them by `_padics`, which computes each tag's modulus once.

Integer polynomials, Lambda's truncated series and the numerators of
Q(zeta_n) alike, are multiplied by Kronecker substitution in one core,
`_poly_mul_unreduced`: both are packed into big integers with one
fixed-width slot per coefficient, multiplied once, and unpacked (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
JSC 2009).  The core reduces nothing; its caller states a bound on the
coefficients, which sizes the slot.  `_poly_mul_trunc` wraps it for
products mod m: it reduces the operands, bounds the slot by their
largest coefficients, so a mod-p digit series times a wide one is nearly
as narrow as the wide one, and reduces the product.  The Hensel lift of
Weierstrass preparation calls the core directly, on operands it knows
to lie below p^j.  A slot that fits a machine word (8 bytes: the mod-p
products, and mod p^k ones while they stay that narrow) is packed and
unpacked through `array`; wider slots go through bytes.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import NotAUnit, NotOrdinary, PrecisionLoss

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _SMALL_PRIMES (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017):
# below it the bases decide primality, at and above it is_prime refuses.
MAX_PRIME_TEST = 3317044064679887385961981


# The primes below 43^2, sieved once at import: a composite below 43^2
# has a factor in _SMALL_PRIMES, so is_prime answers there by lookup.
_TABLE_BOUND = 43 * 43
_sieve = bytearray([1]) * _TABLE_BOUND
_sieve[:2] = b"\0\0"
for _q in _SMALL_PRIMES:
    _sieve[_q * _q::_q] = bytes(len(range(_q * _q, _TABLE_BOUND, _q)))
_PRIMES_BELOW_BOUND = frozenset(compress(range(_TABLE_BOUND), _sieve))
del _sieve, _q


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, by lookup below 43^2; n >=
    MAX_PRIME_TEST is a ValueError."""
    if n < _TABLE_BOUND:
        return n in _PRIMES_BELOW_BOUND
    if n >= MAX_PRIME_TEST:
        raise ValueError(f"primality is decided only below "
                         f"{MAX_PRIME_TEST}, got {n}")
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined; handle separately")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicInt:
    """Element of Z_p known modulo p^prec; immutable."""

    __slots__ = ("p", "prec", "residue")

    def __new__(cls, p: int, prec: int, residue: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"p must be an odd prime >= 5, got {p}")
        if prec < 1:
            raise ValueError(f"precision must be positive, got {prec}")
        return _padic(p, prec, residue)

    def __setattr__(self, name, *_):
        raise AttributeError(f"PAdicInt is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PAdicInt, (self.p, self.prec, self.residue)

    # -- basic queries ------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def val(self) -> int | None:
        """v_p of the residue; None means 'at least prec'."""
        if self.residue == 0:
            return None
        return int_valuation(self.residue, self.p)

    def is_zero(self) -> bool:
        """Zero at working precision."""
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def reduce(self, prec: int) -> "PAdicInt":
        """Forget digits down to the given precision."""
        if prec > self.prec:
            raise PrecisionLoss(
                f"cannot raise precision {self.prec} -> {prec}")
        return PAdicInt(self.p, prec, self.residue)

    # -- ring structure -----------------------------------------------

    def _coerce(self, other) -> "PAdicInt":
        if isinstance(other, PAdicInt):
            if other.p != self.p:
                raise ValueError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return _padic(self.p, self.prec, other)
        if isinstance(other, Fraction):
            return from_rational(other, self.p, self.prec)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.prec, other.prec)
        return _padic(self.p, n, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return _padic(self.p, self.prec, -self.residue)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.prec, other.prec)
        return _padic(self.p, n, self.residue - other.residue)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = min(self.prec, other.prec)
        return _padic(self.p, n, self.residue * other.residue)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return inv(self) ** (-e)
        return _padic(self.p, self.prec, pow(self.residue, e, self.modulus))

    def exact_div_p(self, k: int) -> "PAdicInt":
        """Divide by p^k; the residue must actually be divisible by p^k."""
        if k == 0:
            return self
        if self.prec - k < 1:
            raise PrecisionLoss(
                f"dividing by p^{k} leaves no precision from {self.prec}")
        if self.residue % self.p**k != 0:
            raise ValueError(f"residue {self.residue} not divisible by p^{k}")
        return _padic(self.p, self.prec - k, self.residue // self.p**k)

    def __eq__(self, other):
        """Equal PAdicInts share p, prec and residue; an int equals a
        PAdicInt only when it is the residue itself, in [0, p^prec)."""
        if isinstance(other, int):
            return other == self.residue
        if not isinstance(other, PAdicInt):
            return NotImplemented
        return (self.p, self.prec, self.residue) == (
            other.p, other.prec, other.residue)

    def __hash__(self):
        return hash(self.residue)       # as the int it may equal

    def __repr__(self):
        return f"{self.residue} + O({self.p}^{self.prec})"


_new = object.__new__
_set_p, _set_prec, _set_residue = (PAdicInt.p.__set__, PAdicInt.prec.__set__,
                                   PAdicInt.residue.__set__)


def _padic(p: int, prec: int, residue: int) -> PAdicInt:
    """A PAdicInt from an already checked p and prec; reduces the residue."""
    x = _new(PAdicInt)
    _set_p(x, p)
    _set_prec(x, prec)
    _set_residue(x, residue % p**prec)
    return x


def _padics(p: int, precs: list[int], residues: list[int]
            ) -> tuple[PAdicInt, ...]:
    """The PAdicInts that `_padic` would build from a checked p and each
    checked tag and residue, in one loop that computes each tag's modulus
    p^prec once."""
    mods = {e: p**e for e in set(precs)}
    out = []
    for e, r in zip(precs, residues):
        x = _new(PAdicInt)
        _set_p(x, p)
        _set_prec(x, e)
        _set_residue(x, r % mods[e])
        out.append(x)
    return tuple(out)


# -- constructors ------------------------------------------------------


def from_rational(x, p: int, prec: int) -> PAdicInt:
    """Image of an integer or Fraction with p-free denominator in Z_p."""
    if isinstance(x, int):
        return PAdicInt(p, prec, x)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotAUnit(f"{x} has p in its denominator, not in Z_{p}")
    m = p**prec
    return PAdicInt(p, prec, x.numerator * pow(x.denominator, -1, m))


# -- the spec operations -----------------------------------------------


def inv(x: PAdicInt) -> PAdicInt:
    """Multiplicative inverse of a unit, exact mod p^prec."""
    if x.residue % x.p != 0:
        return _padic(x.p, x.prec, pow(x.residue, -1, x.modulus))
    raise NotAUnit(f"{x!r} has positive valuation")


def teichmuller(a: int, p: int, prec: int) -> PAdicInt:
    """The (p-1)-th root of unity congruent to a mod p.

    Computed by iterating x -> x^p, which stabilizes after at most prec
    steps and involves no denominators.
    """
    if a % p == 0:
        raise NotAUnit(f"{a} is divisible by {p}")
    m = p**prec
    x = a % m
    for _ in range(prec):
        y = pow(x, p, m)
        if y == x:
            break
        x = y
    return PAdicInt(p, prec, x)


def padic_log1p(x: PAdicInt) -> PAdicInt:
    """log(1 + x) for v(x) >= 1, correct at the precision of x.

    The alternating series is summed on the exact residue with enough
    guard digits to absorb the divisions by n; replacing x by its
    residue is harmless because log is 1-Lipschitz on 1 + pZ_p.  It is
    summed for y = (1+x)^(p^k) - 1 and divided by p^k: y is known to k
    more digits than x and has valuation >= v(x) + k, so the series needs
    about 1/(k+1) of the terms; k ~ sqrt(prec) balances the two.
    """
    v = x.val()
    if v is not None and v < 1:
        raise ValueError("padic_log1p requires valuation >= 1")
    n_out = x.prec
    if x.residue == 0:
        return _padic(x.p, n_out, 0)
    p, k = x.p, isqrt(n_out)
    n_in = n_out + k
    m_in = p**n_in
    r = pow(1 + x.residue, p**k, m_in) - 1
    # terms beyond n_max have v_p(y^n / n) >= n (v + k) - log_p(n) >= n_in
    n_max = 1
    while n_max * (v + k) - int_valuation_bound(n_max, p) < n_in:
        n_max += 1
    # y^n takes one multiply per term, kept mod p^(n_in + max v_p(n))
    big = p**(n_in + int_valuation_bound(n_max, p))
    total, a = 0, 1
    for n in range(1, n_max + 1):
        a = a * r % big
        pj = p**int_valuation(n, p)
        term = (a % (m_in * pj)) // pj * pow(n // pj, -1, m_in)
        total += term if n % 2 == 1 else -term
    return _padic(p, n_out, total % m_in // p**k)


def int_valuation_bound(n: int, p: int) -> int:
    """floor(log_p(n)), an upper bound for v_p(m) over all m <= n."""
    b = 0
    while p**(b + 1) <= n:
        b += 1
    return b


def hensel_unit_root(a_p: PAdicInt, c: PAdicInt) -> PAdicInt:
    """Unit root of X^2 - a_p X + c, the case v(a_p)=0, v(c)>=1.

    Newton iteration from a_p itself; the derivative 2X - a_p is a unit
    along the whole orbit, so the lift is unique with root == a_p mod p.
    """
    if a_p.val() != 0:
        raise NotOrdinary(f"a_p = {a_p!r} is not a unit")
    cv = c.val()
    if cv is not None and cv < 1:
        raise ValueError("hensel_unit_root requires v(c) >= 1")
    p = a_p.p
    n = min(a_p.prec, c.prec)
    m = p**n
    a, c0 = a_p.residue % m, c.residue % m
    x = a % p
    for _ in range(n):
        fx = (x * x - a * x + c0) % m
        if fx == 0:
            break
        dfx = (2 * x - a) % m
        x = (x - fx * pow(dfx, -1, m)) % m
    assert (x * x - a * x + c0) % m == 0
    return _padic(p, n, x)


# array typecode for each slot width up to a machine word: the smallest
# unsigned item at least that wide.  Array bytes are native-endian and
# the packed integers are read little-endian, so a big-endian host keeps
# the bytes path for every width.
_WORD_CODES = {
    w: next(c for c in "BHILQ" if array(c).itemsize >= w)
    for w in range(1, array("Q").itemsize + 1)
} if sys.byteorder == "little" else {}


def _poly_mul_trunc(a, b, mod: int, d: int) -> list[int]:
    """Coefficients 0..d of a*b mod `mod`, by Kronecker substitution.

    Each series is reduced into [0, mod) and stripped of trailing zeros;
    a product coefficient is a sum of at most min(len a, len b) terms of
    at most max(a) * max(b), which bounds the slot of
    `_poly_mul_unreduced`, and the coefficients it returns are reduced.
    """
    a = _strip([c % mod for c in a[:d + 1]])
    b = _strip([c % mod for c in b[:d + 1]])
    if not a or not b:
        return [0] * (d + 1)
    top = min(len(a), len(b)) * max(a) * max(b)
    return [c % mod for c in _poly_mul_unreduced(a, b, d, top)]


def _poly_mul_unreduced(a, b, d: int, top: int) -> list[int]:
    """Coefficients 0..d of a*b, exact, when every coefficient of a, b and
    a*b lies in [0, top].

    Both series are packed into one integer each with a byte slot wide
    enough for `top`, multiplied once, and the first d+1 slots of the
    product read back: no slot carries into the next, so they are the
    answer.  A slot that fits a machine word is packed and unpacked by
    `array`, widened to the smallest item size that holds it.
    """
    if not a or not b:
        return [0] * (d + 1)
    width = (top.bit_length() + 7) // 8 or 1
    slots = len(a) + len(b) - 1
    n = min(d + 1, slots)
    code = _WORD_CODES.get(width)
    if code is None:
        raw = (_pack(a, width) * _pack(b, width)).to_bytes(
            slots * width, "little")
        out = [int.from_bytes(raw[i:i + width], "little")
               for i in range(0, n * width, width)]
    else:
        words = array(code)
        width = words.itemsize
        raw = (int.from_bytes(array(code, a).tobytes(), "little")
               * int.from_bytes(array(code, b).tobytes(), "little")
               ).to_bytes(slots * width, "little")
        words.frombytes(memoryview(raw)[:n * width])
        out = words.tolist()
    out += [0] * (d + 1 - n)
    return out


def _strip(c: list[int]) -> list[int]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _pack(c: list[int], width: int) -> int:
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in c),
                          "little")
