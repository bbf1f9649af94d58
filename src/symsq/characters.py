"""Dirichlet characters, Gauss sums, and generalized Bernoulli numbers.

A character mod m is stored by its exponents on a canonical cyclic
decomposition of (Z/mZ)^*: one generator per odd prime power, and the
pair <-1>, <5> for the 2-adic part.  Evaluation goes through cached
discrete-log tables, so it is O(1) after the first call at a modulus,
and equality of characters is equality of data.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .cyclotomic import (CycNumber, _cyc, _reduce_ints, default_primitive_root,
                         euler_phi)
from .errors import SchemaError
from .padic import factorize


# The largest modulus a character record may name.  The modulus is
# factored by trial division, and evaluation builds a discrete-log table
# with phi(m) entries: 0.3 s and 17 MiB at the largest prime below the
# bound, and a stall for a much larger modulus.
MAX_MODULUS = 10**5


@lru_cache(maxsize=None)
def unit_group_structure(m: int) -> tuple[tuple[int, int], ...]:
    """Canonical (generator, order) pairs with (Z/mZ)^* = prod <g_i>.

    Generators are CRT-lifted to be 1 modulo the other prime powers.
    """
    if m == 1:
        return ()
    gens: list[tuple[int, int]] = []
    for q, e in factorize(m):
        qe = q**e
        rest = m // qe
        if q == 2:
            if e == 1:
                continue
            locals_ = [(qe - 1, 2)]
            if e >= 3:
                locals_.append((5, 2**(e - 2)))
        else:
            g = _primitive_root_prime_power(q, e)
            locals_ = [(g, euler_phi(qe))]
        for g, order in locals_:
            if rest > 1:
                inv_qe = pow(qe, -1, rest)
                inv_rest = pow(rest, -1, qe)
                g = (g * rest * inv_rest + 1 * qe * inv_qe) % m
            gens.append((g, order))
    return tuple(gens)


def _primitive_root_prime_power(q: int, e: int) -> int:
    g = default_primitive_root(q)
    if e == 1:
        return g
    if pow(g, q - 1, q * q) == 1:
        g += q
    return g


@lru_cache(maxsize=None)
def _dlog_table(m: int) -> dict[int, tuple[int, ...]]:
    """a -> exponent tuple over the canonical generators, for units a."""
    structure = unit_group_structure(m)
    table = {1 % m: (0,) * len(structure)}
    exps = [0] * len(structure)
    a = 1
    # iterate the product group in odometer order; each generator has
    # exact order orders[i] mod m, so wrapping needs no correction
    total = 1
    for _, order in structure:
        total *= order
    gens = [g for g, _ in structure]
    orders = [o for _, o in structure]
    for _ in range(total - 1):
        i = 0
        while True:
            exps[i] += 1
            a = a * gens[i] % m
            if exps[i] < orders[i]:
                break
            exps[i] = 0
            i += 1
        table[a] = tuple(exps)
    return table


@dataclass(frozen=True)
class DirichletCharacter:
    """Character of (Z/modulus Z)^* given by exponents on the canonical
    generators: chi(g_i) = zeta_{d_i}^{exponents[i]} with d_i = ord(g_i)."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        structure = unit_group_structure(self.modulus)
        if len(self.exponents) != len(structure):
            raise ValueError(
                f"modulus {self.modulus} needs {len(structure)} exponents")
        object.__setattr__(self, "exponents", tuple(
            k % d for k, (_, d) in zip(self.exponents, structure)))

    # -- evaluation -----------------------------------------------------

    @cached_property
    def order(self) -> int:
        n = 1
        for k, (_, d) in zip(self.exponents, unit_group_structure(self.modulus)):
            n = lcm(n, d // gcd(d, k))
        return n

    @cached_property
    def _linear_form(self) -> tuple[int, tuple[int, ...]]:
        """The order n and the weights w_i of the linear form
        value_exponent(a) = sum_i w_i x_i mod n over the discrete logs x_i
        of a: chi(g_i) = zeta_d^k is zeta_n^w with w = n k / d, an integer
        since d / gcd(d, k) divides n."""
        n = self.order
        return n, tuple(n * k // d for k, (_, d) in zip(
            self.exponents, unit_group_structure(self.modulus)))

    def value_exponent(self, a: int) -> int | None:
        """e with chi(a) = zeta_order^e, or None when gcd(a, m) > 1."""
        m = self.modulus
        if m == 1:
            return 0
        a %= m
        if gcd(a, m) != 1:
            return None
        if not any(self.exponents):     # trivial: no discrete log needed
            return 0
        n, weights = self._linear_form
        return sum(map(mul, weights, _dlog_table(m)[a])) % n

    def _exponent_row(self) -> list[int | None]:
        """value_exponent(a) for a = 0, ..., modulus - 1, from one pass of
        the linear form over the discrete-log table."""
        m = self.modulus
        if not any(self.exponents):     # trivial: no discrete log needed
            return [0 if gcd(a, m) == 1 else None for a in range(m)]
        n, weights = self._linear_form
        row: list[int | None] = [None] * m
        for a, xs in _dlog_table(m).items():
            row[a] = sum(map(mul, weights, xs)) % n
        return row

    def __call__(self, a: int) -> CycNumber:
        e = self.value_exponent(a)
        n = self.order
        if e is None:
            return CycNumber.zero(n)
        return CycNumber.zeta(n, e)

    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exponents)

    def is_even(self) -> bool:
        if self.modulus <= 2:
            return True
        return self.value_exponent(self.modulus - 1) == 0

    def is_odd(self) -> bool:
        return not self.is_even()

    # -- conductor and primitivization ------------------------------------

    @property
    def conductor(self) -> int:
        return _conductor(self)

    def factors_through(self, d: int) -> bool:
        """Does chi(a) depend only on a mod d (for units a)?"""
        m = self.modulus
        if d < 1 or m % d != 0:
            raise ValueError(f"{d} does not divide the modulus {m}")
        return all(self.value_exponent(a) == 0
                   for a in range(1, m, d) if gcd(a, m) == 1)

    def primitivize(self) -> "DirichletCharacter":
        """The primitive character mod conductor inducing this one."""
        c = self.conductor
        if c == self.modulus:
            return self
        return self.restrict_to(c)

    def restrict_to(self, c: int) -> "DirichletCharacter":
        """Character mod c with the same values on units; raises
        ValueError unless c divides the modulus and chi factors through c."""
        if not self.factors_through(c):
            raise ValueError(f"{self!r} does not factor through {c}")
        return self._transfer(c)

    def lift_to(self, big: int) -> "DirichletCharacter":
        """The character mod big (a multiple of the modulus) inducing the
        same values on units."""
        if big == self.modulus:
            return self
        if big % self.modulus != 0:
            raise ValueError(f"{self.modulus} does not divide {big}")
        return self._transfer(big)

    def _transfer(self, c: int) -> "DirichletCharacter":
        """The character mod c taking chi's value at each canonical
        generator mod c, read at a lift of it (a step of c at a time)
        that is a unit mod the modulus."""
        m, n = self.modulus, self.order
        exps = []
        for g, d in unit_group_structure(c):
            while gcd(g, m) != 1:
                g += c
            e = self.value_exponent(g)
            assert e * d % n == 0
            exps.append(e * d // n)
        return DirichletCharacter(c, tuple(exps))

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        m = lcm(self.modulus, other.modulus)
        a, b = self.lift_to(m), other.lift_to(m)
        return DirichletCharacter(
            m, tuple(x + y for x, y in zip(a.exponents, b.exponents)))

    def __pow__(self, e: int) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus, tuple(k * e for k in self.exponents))

    def conjugate(self) -> "DirichletCharacter":
        return self**(-1)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        gens = unit_group_structure(self.modulus)
        return {"modulus": self.modulus,
                "images": [[g, k] for (g, _), k in zip(gens, self.exponents)]}

    @staticmethod
    def from_json(obj: dict) -> "DirichletCharacter":
        try:
            m = obj["modulus"]
            images = [(g, k) for g, k in obj["images"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad character record: {exc}") from exc
        if any(type(x) is not int for x in (m, *sum(images, ()))):
            raise SchemaError(f"character record values must be integers, "
                              f"got {obj!r}")
        if not 1 <= m <= MAX_MODULUS:
            raise SchemaError(f"character modulus must be in [1, "
                              f"{MAX_MODULUS}], got {m}")
        gens = unit_group_structure(m)
        if [g for g, _ in images] != [g for g, _ in gens]:
            raise SchemaError(
                f"character record generators {[g for g, _ in images]} do not "
                f"match the canonical generators {[g for g, _ in gens]} mod {m}")
        return DirichletCharacter(m, tuple(k for _, k in images))

    def __repr__(self):
        return f"chi(mod {self.modulus}; {list(self.exponents)})"


@lru_cache(maxsize=None)
def _conductor(chi: DirichletCharacter) -> int:
    for d in sorted(_divisors(chi.modulus)):
        if chi.factors_through(d):     # at the latest d = modulus
            return d


def _divisors(n: int) -> list[int]:
    out = [1]
    for q, e in factorize(n):
        out = [d * q**i for d in out for i in range(e + 1)]
    return out


# -- stock characters ---------------------------------------------------------


def trivial_character(m: int = 1) -> DirichletCharacter:
    return DirichletCharacter(m, (0,) * len(unit_group_structure(m)))


def characters_mod(m: int):
    """All characters of modulus m, in odometer order of exponents (the
    first varies fastest): the order in which _dlog_table walks them."""
    for exps in _dlog_table(m).values():
        yield DirichletCharacter(m, exps)


def is_residually_trivial(chi: DirichletCharacter, p: int) -> bool:
    """Whether chi mod (a prime above p) is the trivial character, i.e.
    whether ord(chi) is a power of p."""
    n = chi.order
    while n % p == 0:
        n //= p
    return n == 1


# -- Gauss sums ---------------------------------------------------------------


def gauss_sum(chi: DirichletCharacter) -> CycNumber:
    """G(chi) = sum over a mod c of chi(a) zeta_c^a, at the conductor.

    Imprimitive characters are primitivized first; the trivial character
    gets the c = 1 convention G = 1.
    """
    chi = chi.primitivize()
    c = chi.modulus
    if c == 1:
        return CycNumber.one()
    n = chi.order
    order = lcm(c, n)
    raw = [0] * order
    row = chi._exponent_row()
    for a in range(1, c):
        e = row[a]
        if e is None:
            continue
        raw[(e * (order // n) + a * (order // c)) % order] += 1
    return _cyc(order, _reduce_ints(raw, order), 1)


# -- Bernoulli machinery -----------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(m: int) -> Fraction:
    """B_m by the exact recurrence, cached; B_1 = -1/2 convention."""
    if m < len(_bernoulli_cache):
        return _bernoulli_cache[m]
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= m:
            k = len(_bernoulli_cache)
            acc = Fraction(0)
            c = 1  # binomial(k+1, j), updated incrementally
            for j in range(k):
                acc += c * _bernoulli_cache[j]
                c = c * (k + 1 - j) // (j + 1)
            _bernoulli_cache.append(-acc / (k + 1))
    return _bernoulli_cache[m]


@lru_cache(maxsize=64)
def _bernoulli_poly(m: int) -> tuple[int, tuple[int, ...]]:
    """D, the lcm of the denominators of B_0..B_m, and C(m, j) D B_j for
    j = 0..m: the coefficients of B_m(x) times D, leading first."""
    den = lcm(*(bernoulli_number(j).denominator for j in range(m + 1)))
    table, binom = [], 1
    for j in range(m + 1):
        b = bernoulli_number(j)
        table.append(binom * b.numerator * (den // b.denominator))
        binom = binom * (m - j) // (j + 1)
    return den, tuple(table)


def gen_bernoulli(chi: DirichletCharacter, m: int) -> CycNumber:
    """B_{m,chi} = c^(m-1) sum_{a=1..c} chi(a) B_m(a/c), c the conductor.

    c^(m-1) B_m(a/c) = N(a) / (c D), D the lcm of the denominators of
    B_0..B_m, N(a) = sum_j C(m, j) D B_j c^j a^(m-j) (Washington, Prop.
    4.1), with D and C(m, j) D B_j read from a table cached per m;
    N(a) goes by integer Horner into the bucket of the exponent of
    chi(a), and the buckets are reduced mod Phi_n once."""
    if m < 1:
        raise ValueError("m must be >= 1")
    chi = chi.primitivize()
    c, n = chi.modulus, chi.order
    den, table = _bernoulli_poly(m)
    poly = [t * c**j for j, t in enumerate(table)]  # N's, leading first
    buckets = [0] * n
    row = chi._exponent_row()
    for a in range(1, c + 1):
        e = row[a % c]
        if e is None:
            continue
        acc = 0
        for k in poly:
            acc = acc * a + k
        buckets[e] += acc
    return _cyc(n, _reduce_ints(buckets, n), c * den)


def l_neg(chi: DirichletCharacter, m: int) -> CycNumber:
    """Exact Dirichlet L-value L(1-m, chi) = -B_{m,chi}/m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return gen_bernoulli(chi, m) * Fraction(-1, m)
