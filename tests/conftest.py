"""Shared oracles and generators for the test suite.

The oracles here deliberately reimplement things from first principles
(Moebius-product cyclotomic polynomials, full-convolution multiplication,
a Fraction-coefficient Q(zeta_n), schoolbook truncated series products,
per-residue Bernoulli and Gauss sums, Fraction-series logs, exact
binomial series, brute-force root searches) so that they share no code
path with the library.  There are two exceptions.  Weierstrass
preparation through the full-length unit inverse runs on the library's
series kernels; those are checked against the schoolbook ones.
p-stabilization as the operator composition g0 - beta V_p(g0) runs on
the library's embedding and PAdicInt arithmetic, each tested on its
own, but not on p_stabilize's residue pass; the level-raising map tau_q
as its operator composition runs on the library's U_q and expansion
arithmetic, and shares with deplete, which tau is, only the helpers
that check q and make a zero.  T_q and V_q live here, not in the
library, because only these compositions use them.

The `ci` hypothesis profile derandomizes every property test, so a failure
seen in CI replays locally with `--hypothesis-profile=ci`.
"""

import hashlib
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from hypothesis import settings

from symsq import iwasawa, padic
from symsq.characters import characters_mod
from symsq.cyclotomic import (CycNumber, cyc_embed_padic, embedding_root,
                              euler_phi)
from symsq.errors import (BadMode, BadPrime, InsufficientPrecision,
                          PrecisionLoss, TruncationTooShort)
from symsq.iwasawa import TRUNCATION_GUARD, IwasawaElement, WeierstrassData
from symsq.padic import PAdicInt, hensel_unit_root, int_valuation, inv
from symsq.qexp import (_eps_scalar, _need_prime, _need_weight, _zero_like,
                        hecke_U)

settings.register_profile("ci", derandomize=True)


def seeded(salt: int = 0) -> random.Random:
    return random.Random(0xC0FFEE + salt)


# -- independent cyclotomic oracle -------------------------------------------


def _mobius(n):
    out, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    if n > 1:
        out = -out
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * max(len(num) - dn, 1)
    terms = [(j, d) for j, d in enumerate(den) if d]
    for i in range(len(num) - 1, dn - 1, -1):
        if num[i] == 0:
            continue
        c = num[i] if lead == 1 else num[i] / lead     # ints stay ints
        quot[i - dn] = c
        for j, d in terms:
            num[i - dn + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def oracle_cyclotomic(n):
    """Phi_n via the Moebius product formula, one long division at the end,
    on integers."""
    if n == 1:
        return [-1, 1]
    top = [1]
    bottom = [1]
    for d in range(1, n + 1):
        if n % d != 0:
            continue
        mu = _mobius(n // d)
        if mu == 0:
            continue
        xd = [0] * (d + 1)
        xd[0], xd[d] = -1, 1
        if mu == 1:
            top = _poly_mul(top, xd)
        else:
            bottom = _poly_mul(bottom, xd)
    quot, rem = _poly_divmod(top, bottom)
    assert all(r == 0 for r in rem)
    return quot


def oracle_cyc_mul(u: CycNumber, v: CycNumber) -> tuple:
    """Full convolution then long division by the oracle Phi_n."""
    assert u.order == v.order
    n = u.order
    prod = _poly_mul(list(u.coeffs), list(v.coeffs))
    # exponents can reach 2(phi-1) < 2n: fold once via x^n = 1
    folded = [Fraction(0)] * n
    for e, c in enumerate(prod):
        folded[e % n] += c
    _, rem = _poly_divmod(folded, _oracle_phi(n))
    rem = list(rem) + [Fraction(0)] * (euler_phi(n) - len(rem))
    return tuple(rem[:euler_phi(n)])


def _oracle_reduce(raw, n) -> tuple:
    """A polynomial in zeta_n, folded by zeta^n = 1 and long-divided by the
    oracle Phi_n, as phi(n) Fraction coefficients."""
    phi = _oracle_phi(n)
    folded = [Fraction(0)] * n
    for e, c in enumerate(raw):
        folded[e % n] += c
    _, rem = _poly_divmod(folded, phi)
    deg = len(phi) - 1
    return tuple(list(rem) + [Fraction(0)] * (deg - len(rem)))[:deg]


@dataclass(frozen=True)
class FractionCycNumber:
    """Q(zeta_order) with one Fraction per power-basis coefficient: the
    representation CycNumber had before it held integer numerators over
    one denominator, kept as its oracle.  Reduction is by long division
    by the Moebius-product Phi_n."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        want = len(_oracle_phi(self.order)) - 1
        if len(self.coeffs) != want:
            raise ValueError(f"need {want} coefficients for order {self.order}")
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @staticmethod
    def from_rational(x, order=1):
        deg = len(_oracle_phi(order)) - 1
        return FractionCycNumber(order, (Fraction(x),) + (0,) * (deg - 1))

    def promote(self, order):
        assert order % self.order == 0
        step = order // self.order
        raw = [Fraction(0)] * order
        for e, c in enumerate(self.coeffs):
            raw[e * step] = c
        return FractionCycNumber(order, _oracle_reduce(raw, order))

    def _align(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCycNumber.from_rational(other, self.order)
        m = lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._align(other)
        return FractionCycNumber(
            a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return FractionCycNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCycNumber(
                self.order, tuple(c * other for c in self.coeffs))
        a, b = self._align(other)
        return FractionCycNumber(
            a.order, _oracle_reduce(_poly_mul(a.coeffs, b.coeffs), a.order))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def galois(self, j):
        raw = [Fraction(0)] * self.order
        for e, c in enumerate(self.coeffs):
            raw[(e * j) % self.order] += c
        return FractionCycNumber(self.order, _oracle_reduce(raw, self.order))

    def denominator_lcm(self):
        return lcm(*(c.denominator for c in self.coeffs))

    def to_json(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def embed_padic(self, p, prec, g):
        """Image in Z/p^prec along zeta -> teich(g)^((p-1)/n), with
        teich(g) = g^(p^(prec-1)) mod p^prec; None when p divides a
        denominator."""
        m = p**prec
        if any(c.denominator % p == 0 for c in self.coeffs):
            return None
        z = pow(pow(g, p**(prec - 1), m), (p - 1) // self.order, m)
        return sum(c.numerator * pow(c.denominator, -1, m) * pow(z, e, m)
                   for e, c in enumerate(self.coeffs)) % m


# -- schoolbook Lambda kernels ----------------------------------------------


def schoolbook_mul(a, b, d):
    """Coefficients 0..d of a*b, exact, one product per pair of terms."""
    out = [0] * (d + 1)
    for i, x in enumerate(a[:d + 1]):
        if x == 0:
            continue
        for j in range(min(d - i, len(b) - 1) + 1):
            out[i + j] += x * b[j]
    return out


def schoolbook_mul_trunc(a, b, mod, d):
    """Coefficients 0..d of a*b mod `mod`."""
    return [c % mod for c in schoolbook_mul(a, b, d)]


def recurrence_series_inverse_mod_p(u, p, d):
    """u^(-1) mod (p, T^(d+1)), one coefficient at a time from u * v = 1."""
    u = list(u) + [0] * (d + 1 - len(u))
    out = [0] * (d + 1)
    out[0] = pow(u[0], -1, p)
    for n in range(1, d + 1):
        s = sum(u[j] * out[n - j] for j in range(1, n + 1))
        out[n] = -out[0] * s % p
    return out


def full_inverse_weierstrass_prep(f: IwasawaElement,
                                  guard: int = TRUNCATION_GUARD):
    """Weierstrass preparation with each Hensel digit solved through the
    full-length unit inverse: h = err * ubar^(-1) mod (p, T^(D+1)), then
    dP = h mod T^lam and dU = (h div T^lam) * ubar.  mu and lambda are
    read here, and the refusals are raised here, in the library's order;
    the products use the library kernels, which have their own oracles.
    """
    p, d = f.p, f.trunc
    found = [(int_valuation(c, p), i) for i, c in enumerate(f.coeffs) if c]
    if not found:
        raise InsufficientPrecision("all coefficients vanish")
    mu, lam = min(found)
    if lam > d - guard:
        raise TruncationTooShort(f"lambda = {lam} within {guard} of {d}")
    nprec = f.prec - mu
    reduced = [c // p**mu for c in f.coeffs]
    ubar = [c % p for c in reduced[lam:]]
    ubar_inv = iwasawa._series_inverse_mod_p(ubar, p, d)
    pcoeffs = [0] * lam + [1]
    ucoeffs = ubar + [0] * lam
    for m in range(1, nprec):
        pm, pm1 = p**m, p**(m + 1)
        prod = padic._poly_mul_trunc(pcoeffs, ucoeffs, pm1, d)
        err = [((a - b) % pm1) // pm for a, b in zip(reduced, prod)]
        h = padic._poly_mul_trunc(err, ubar_inv, p, d)
        delta_u = padic._poly_mul_trunc(h[lam:], ubar, p, d - lam)
        for i, c in enumerate(h[:lam]):
            pcoeffs[i] += pm * c
        for i, c in enumerate(delta_u):
            ucoeffs[i] += pm * c
    return WeierstrassData(p, nprec, mu, lam, tuple(pcoeffs),
                           IwasawaElement(p, nprec, tuple(ucoeffs)))


def extend_past_truncation(f: IwasawaElement, extra: int,
                           rng: random.Random) -> IwasawaElement:
    """f with `extra` more coefficients, random multiples of p^mu(f): a
    series with the same mu that f, known mod T^(D+1), cannot tell apart
    from the one it was cut from."""
    step = f.p**min(int_valuation(c, f.p) for c in f.coeffs if c)
    return IwasawaElement(f.p, f.prec, f.coeffs + tuple(
        step * rng.randrange(f.modulus) for _ in range(extra)))


# -- Frobenius exponents the long way ----------------------------------------


def pow_per_term_log1p(r, p, n_out):
    """log(1 + r) mod p^n_out for v_p(r) >= 1, one pow(r, n, .) per term;
    past n = 2 n_out + 4, v_p(r^n / n) >= n - log_p(n) exceeds n_out."""
    total, m_out = 0, p**n_out
    for n in range(1, 2 * n_out + 5):
        j = 0
        while n % p**(j + 1) == 0:
            j += 1
        term = pow(r, n, p**(n_out + j)) // p**j * pow(n // p**j, -1, m_out)
        total += term if n % 2 else -term
    return total % m_out


def teichmuller_frobenius_exponent(q, p, prec):
    """e(q) mod p^prec as log(q / teich(q)) / log(1 + p), with
    teich(q) = q^(p^prec) mod p^(prec+1)."""
    w = prec + 1
    m = p**w
    qw = q * pow(pow(q, p**prec, m), -1, m) % m
    log_qw = pow_per_term_log1p(qw - 1, p, w)
    log_gamma = pow_per_term_log1p(p, p, w)
    return log_qw // p * pow(log_gamma // p, -1, p**prec) % p**prec


# -- Frobenius substitution one power at a time -------------------------------


def exact_binomial_series(e, d, mod):
    """C(e, k) mod `mod` for k = 0..d, from the exact integers
    C(e, k) = C(e, k-1) (e-k+1) / k."""
    out, c = [1], 1
    for k in range(1, d + 1):
        c = c * (e - k + 1) // k
        out.append(c % mod)
    return out


def per_power_substitute_frobenius(factor, scalar, exponent, trunc, prec,
                                   primitive_root=None):
    """substitute_frobenius one power at a time: the binomial series of
    (1+T)^(j*exponent) for each j, each added into the output in its own
    pass.  The series are exact binomials, which share no code with
    iwasawa.binomial_sum; a short exponent raises PrecisionLoss as there."""
    p = scalar.p
    need = prec + int_valuation(factorial(trunc), p)
    if exponent.prec < need:
        raise PrecisionLoss(f"exponent precision {exponent.prec} < {need}")
    modulus = p**prec
    out = [1] + [0] * trunc          # the constant term of a factor is 1
    scale = PAdicInt(p, prec, 1)
    for j, c in enumerate(factor.coeffs[1:], 1):
        scale = scale * scalar
        a = (cyc_embed_padic(c, p, prec, primitive_root) * scale).residue
        if a == 0:
            continue
        power = exact_binomial_series((exponent * j).residue, trunc, modulus)
        out = [(x + a * y) % modulus for x, y in zip(out, power)]
    return IwasawaElement(p, prec, tuple(out))


# -- T_q and V_q, the building blocks of the compositions below --------------


def hecke_T(f, q):
    """T_q at a good prime: b(n) = a(qn) + eps(q) q^(k-1) a(n/q), cut at
    floor(D/q).  Refuses a q that is not prime, a q dividing the level
    and a weight that is not an integer >= 1 (BadPrime)."""
    _need_prime(q, "T_q")
    if f.level % q == 0:
        raise BadPrime(f"{q} divides the level {f.level}; use hecke_U")
    _need_weight(f.weight, f"T_{q}")
    mult = _eps_scalar(f, q) * q**(f.weight - 1)
    coeffs = tuple(
        f.coeffs[q * n] + (mult * f.coeffs[n // q] if n % q == 0
                           else _zero_like(f.coeffs[0]))
        for n in range(f.trunc // q + 1))
    ring = "cyc" if isinstance(mult, CycNumber) and f.ring == "int" else f.ring
    return replace(f, coeffs=coeffs, ring=ring)


def hecke_V(f, q):
    """V_q: b(n) = a(n/q), exact zeros off multiples of q, kept at the
    input truncation (correct out to qD).  Refuses q < 1 (ValueError)."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    zero = _zero_like(f.coeffs[0])
    coeffs = tuple(f.coeffs[n // q] if n % q == 0 else zero
                   for n in range(f.trunc + 1))
    return replace(f, coeffs=coeffs, level=f.level * q)


# -- p-stabilization as an operator composition ------------------------------


def _composed_to_padic(x, p, prec, root):
    if isinstance(x, PAdicInt):
        if x.p != p:
            raise ValueError(f"mixed primes {x.p} and {p}")
        return x.reduce(min(x.prec, prec))
    return cyc_embed_padic(x, p, prec, root)


def composed_p_stabilize(g0, a_p, eps_p, p, prec, primitive_root=None):
    """qexp.p_stabilize as the operator composition lifted - beta V_p(lifted):
    every coefficient lifted to a PAdicInt on its own, V_p's zeros taken
    from a(0), and beta applied by PAdicInt.__mul__ rather than by the
    residue loop of QExpansion.scale."""
    if g0.level % p == 0:
        raise BadPrime(f"{p} already divides the level {g0.level}")
    if not isinstance(g0.weight, int) or g0.weight < 1:
        raise BadPrime(f"stabilization needs an integer weight >= 1, "
                       f"got {g0.weight}")
    root = None if primitive_root is None else embedding_root(p, primitive_root)
    a_p = _composed_to_padic(a_p, p, prec, root)
    eps_p = _composed_to_padic(eps_p, p, prec, root)
    c = eps_p * p**(g0.weight - 1)
    alpha = hensel_unit_root(a_p, c)
    beta = c * inv(alpha)
    lifted = replace(g0, ring="padic", primitive_root=root, coeffs=tuple(
        _composed_to_padic(a, p, prec, root) for a in g0.coeffs))
    shifted = hecke_V(lifted, p)
    scaled = replace(shifted, coeffs=tuple(beta * a for a in shifted.coeffs))
    return replace(lifted - scaled, level=g0.level * p)


# -- the level-raising map as an operator composition ------------------------


def composed_tau(h, q, mode):
    """qexp.tau as the literal composition: h - V_q(U_q h) (ordinary), or
    h - V_q(T_q h) + eps(q) q^(k-1) V_q(V_q h) (unramified), each operator
    building its full expansion, zeros included."""
    if mode == "ordinary":
        if h.level % q != 0:
            raise BadMode(f"ordinary tau needs {q} | level {h.level}")
        out = h - hecke_V(hecke_U(h, q), q)
        return replace(out, level=h.level * q)
    if mode == "unramified":
        if h.level % q == 0:
            raise BadMode(f"unramified tau needs {q} coprime to level {h.level}")
        eps = _eps_scalar(h, q)
        out = h - hecke_V(hecke_T(h, q), q)
        out = out + hecke_V(hecke_V(h, q), q).scale(eps * q**(h.weight - 1))
        return replace(out, level=h.level * q * q)
    raise BadMode(f"unknown mode {mode!r}")


# -- sigma from Lucas's theorem ----------------------------------------------


def _base_p_digits(n, p):
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


@lru_cache(maxsize=None)
def searched_exponent(q, p, k):
    """e in [0, p^k) with (1+p)^e = q / teich(q) mod p^(k+1), by search;
    teich(q) = q^(p^k) mod p^(k+1)."""
    m = p**(k + 1)
    target = q * pow(pow(q, p**k, m), -1, m) % m
    x = 1
    for e in range(p**k):
        if x == target:
            return e
        x = x * (1 + p) % m
    raise AssertionError(f"no exponent for q = {q} mod {p}^{k + 1}")


def lucas_one_plus_T_pow(e, p, d):
    """(1+T)^e mod (p, T^(d+1)) as the product over the base-p digits e_i
    of (1+T^(p^i))^(e_i)."""
    out = {0: 1}
    for i, digit in enumerate(_base_p_digits(e, p)):
        step = p**i
        if step > d:
            break
        new = {}
        for a, c in out.items():
            for j in range(digit + 1):
                if a + j * step <= d:
                    new[a + j * step] = (new.get(a + j * step, 0)
                                         + c * comb(digit, j)) % p
        out = {a: c for a, c in new.items() if c}
    return out


def embed_mod_p(x, p, g):
    """x in Q(zeta_n) (or Q) reduced mod p along zeta_n -> g^((p-1)/n)."""
    if not isinstance(x, CycNumber):
        x = CycNumber.from_rational(x)
    z = pow(g, (p - 1) // x.order, p)
    return sum(c.numerator * pow(c.denominator, -1, p) * pow(z, i, p)
               for i, c in enumerate(x.coeffs)) % p


def lucas_sigma(coeffs, psi_q, q, p, t, d, g):
    """lambda of sum_j c_j s^j (1+T)^(j e(q)) mod p with s = psi(q) q^(t-1)
    (teich(q) = q mod p), or None when it vanishes mod (p, T^(d+1))."""
    k = len(_base_p_digits(d, p))            # p^k > d
    e = searched_exponent(q, p, k)
    s = embed_mod_p(psi_q, p, g) * pow(q, t - 1, p) % p
    total = [0] * (d + 1)
    for j, c in enumerate(coeffs):
        a = embed_mod_p(c, p, g) * pow(s, j, p) % p
        if a:
            for i, v in lucas_one_plus_T_pow(j * e % p**k, p, d).items():
                total[i] = (total[i] + a * v) % p
    return next((i for i, v in enumerate(total) if v), None)


def frobenius_valuation(q, p):
    """v = v_p(q^(p-1) - 1) - 1, the p-adic valuation of e(q)."""
    v = 0
    while (q**(p - 1) - 1) % p**(v + 2) == 0:
        v += 1
    return v


def closed_sigma(factor, psi, t, p, root):
    """sigma_q = m p^v in closed form, with no series: mod p the lift is
    P(s (1+T)^e), s = psi(q) q^(t-1) (teich(q) = q mod p), and
    (1+T)^e - 1 has lambda p^v, v = v_p(e(q)); so m is the multiplicity
    of s as a root of P mod p, found by synthetic division.  0 when
    psi(q) = 0, where the lift is 1."""
    q = factor.q
    if psi(q).is_zero():
        return 0
    g = embedding_root(p, root)
    s = embed_mod_p(psi(q), p, g) * pow(q, t - 1, p) % p
    poly = [embed_mod_p(c, p, g) for c in factor.coeffs]
    m = 0
    while True:
        acc, quotient = 0, []               # Horner: P(s) and P / (X - s)
        for c in reversed(poly):
            acc = (acc * s + c) % p
            quotient.append(acc)
        if acc:
            return m * p**frobenius_valuation(q, p)
        m += 1
        poly = quotient[-2::-1]


def cyc_symsq_coeffs(a_q, eps, q, k):
    """The unramified symmetric-square coefficients (1, -e1, b e1, -b^3),
    e1 = a^2 - b and b = eps q^(k-1), with every operand a CycNumber:
    a_q and q^(k-1) are lifted to eps's order before any arithmetic."""
    def cyc(x):
        if isinstance(x, CycNumber):
            return x
        return CycNumber(eps.order, [x] + [0] * (euler_phi(eps.order) - 1))
    b = eps * cyc(q**(k - 1))
    e1 = cyc(a_q) * cyc(a_q) - b
    return (1, -e1, b * e1, -(b * b * b))


def smallest_primitive_root(p):
    return next(g for g in range(2, p)
                if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)


def oracle_cache_key(form, q, psi, t, root, factor):
    """cache_key's formula as first written: the SHA-256 of one sorted
    json.dumps of the factor's coefficients, q, psi, t, p, N, D and the
    primitive root, found by search when None and reduced mod p when
    given; each coefficient is written from its Fractions."""
    def coeff(c):
        if isinstance(c, CycNumber):
            return {"order": c.order, "coeffs": [str(f) for f in c.coeffs]}
        return str(c)
    payload = json.dumps({
        "q": q, "psi": psi.to_json(), "t": t,
        "p": form.p, "precision": form.precision, "trunc": form.trunc,
        "root": (smallest_primitive_root(form.p) if root is None
                 else root % form.p),
        "coeffs": [coeff(c) for c in factor.coeffs],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- per-residue character sums ---------------------------------------------


@lru_cache(maxsize=None)
def oracle_bernoulli_numbers(m):
    """B_0..B_m by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    row, out = [], []
    for n in range(m + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if m >= 1:
        out[1] = -out[1]          # the algorithm gives B_1 = +1/2
    return tuple(out)


def oracle_bernoulli_polynomial(m, x):
    """B_m(x) = sum of C(m, j) B_j x^(m-j)."""
    bs = oracle_bernoulli_numbers(m)
    return sum(comb(m, j) * bs[j] * x**(m - j) for j in range(m + 1))


def oracle_gen_bernoulli(chi, m):
    """c^(m-1) sum over a = 1..c of chi(a) B_m(a/c), one CycNumber per a."""
    chi = chi.primitivize()
    c = chi.modulus
    total = CycNumber.zero(chi.order)
    for a in range(1, c + 1):
        e = chi.value_exponent(a)
        if e is None:
            continue
        total = total + CycNumber.zeta(chi.order, e) * \
            oracle_bernoulli_polynomial(m, Fraction(a, c))
    return total * Fraction(c)**(m - 1)


@lru_cache(maxsize=None)
def _oracle_phi(n):
    return tuple(int(c) for c in oracle_cyclotomic(n))


def oracle_gauss_sum(chi):
    """sum over a mod c of chi(a) zeta_c^a, reduced by long division by the
    oracle Phi_n; the trivial character gets G = 1."""
    chi = chi.primitivize()
    c, n = chi.modulus, chi.order
    if c == 1:
        return CycNumber.one()
    order = lcm(c, n)
    raw = [0] * order
    for a in range(1, c):
        e = chi.value_exponent(a)
        if e is not None:
            raw[(e * (order // n) + a * (order // c)) % order] += 1
    phi = _oracle_phi(order)
    deg = len(phi) - 1
    for i in range(order - 1, deg - 1, -1):      # Phi_n is monic
        q = raw[i]
        for j, v in enumerate(phi):
            raw[i - deg + j] -= q * v
    return CycNumber(order, tuple(raw[:deg]))


# -- character inventories ------------------------------------------------


def primitive_characters(max_conductor: int):
    """Every primitive character with conductor <= max_conductor."""
    out = []
    for m in range(1, max_conductor + 1):
        for chi in characters_mod(m):
            if chi.conductor == m:
                out.append(chi)
    return out


def characters_with_order_dividing(n: int, max_modulus: int,
                                   coprime_to: int = 1):
    out = []
    for m in range(1, max_modulus + 1):
        if gcd(m, coprime_to) != 1:
            continue
        for chi in characters_mod(m):
            if chi.conductor == m and n % chi.order == 0:
                out.append(chi)
    return out


# -- eigen-data generators ----------------------------------------------------


def random_unit(rng: random.Random, p: int, bound: int = 50) -> int:
    while True:
        a = rng.randint(-bound, bound)
        if a % p != 0:
            return a


def random_eigen_map(rng: random.Random, primes, p: int, unit_at_p=True):
    out = {}
    for q in primes:
        if q == p and unit_at_p:
            out[q] = random_unit(rng, p, 2 * p)
        else:
            out[q] = rng.randint(-10, 10)
    return out


PRIMES_TO_200 = [q for q in range(2, 200)
                 if all(q % d for d in range(2, int(q**0.5) + 1))]
