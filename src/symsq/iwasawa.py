"""Lambda = Z_p[[T]] as truncated power series, with Weierstrass data.

An IwasawaElement stores coefficient residues modulo p^prec up to
degree trunc.  Weierstrass preparation reads mu and lambda off the
coefficient valuations and produces the distinguished polynomial and
unit by Hensel-lifting the factorization T^lambda * (unit) from mod p,
so the reconstruction p^mu * distinguished * unit == input holds
exactly modulo (p^prec, T^(trunc+1)) by construction.

The lift is linear, one p-adic digit per step (von zur Gathen and
Gerhard, "Modern Computer Algebra", 15.4).  It carries the error
(f - P U) / p^m from step to step, solves its lowest digit mod p with an
inverse of the unit of length lambda, not D, and moves it on by two
products of a mod-p digit series with a wide one, never rebuilding P U.
The error is kept mod p^(N - m), where the wide ones are partial digit
sums P_j and U_j, j <= ceil(N/2), already below p^j: they go into padic's
unreduced Kronecker core as they are, in slots sized by the bound
min(len) * p^(j+1), and only the error's own update reduces.

Every other truncated product goes through padic's reducing kernel,
`_poly_mul_trunc`, and series inverses mod p use Newton iteration on it.
Group-like elements (1+T)^e, e in Z_p, and sums of their multiples, the
Lambda-lifts of Euler factors, come from a second kernel, `binomial_sum`,
which walks each exponent's falling factorial once and multiplies no
series (Washington, "Introduction to Cyclotomic Fields", ch. 7).

The module also reads Lambda-element files and runs the congruence
transfer check, so the prep, specialize and congruence commands need no
other layer than padic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from os import PathLike

from .errors import (InsufficientPrecision, PrecisionLoss, SchemaError,
                     TruncationTooShort)
from .padic import (PAdicInt, _poly_mul_trunc, _poly_mul_unreduced,
                    int_valuation, inv, is_prime, padic_log1p)

# The largest precision N, truncation D, modulus p^N, level and weight
# that a decoder accepts, in form records, overrides, Lambda-element
# files and cache entries.  The work of a lift or a preparation grows
# with D and p^N (at p = 13 a preparation at the bounds, lambda = 300,
# takes 0.35 to 0.55 s on a shared 2-vCPU VM, most of it in the big-integer
# products of the Hensel lift), trial division of a level below MAX_LEVEL
# takes at most 10^6 steps, and a local factor holds q^(3(k-1)).
MAX_PRECISION = 100
MAX_TRUNC = 1000
MAX_PADIC_MODULUS = 13**MAX_PRECISION
MAX_LEVEL = 10**12
MAX_WEIGHT = 1000


def padic_problems(p, precision) -> list[str]:
    """What is wrong with a decoded p and precision, empty if nothing: p
    must be a prime >= 5 (below padic.MAX_PRIME_TEST), the precision an
    int in [1, MAX_PRECISION], and p^precision at most MAX_PADIC_MODULUS."""
    problems = []
    try:
        if type(p) is not int or p < 5 or not is_prime(p):
            problems.append(f"p must be a prime >= 5, got {p!r}")
    except ValueError as exc:               # past is_prime's bound
        problems.append(f"p: {exc}")
    if type(precision) is not int or not 1 <= precision <= MAX_PRECISION:
        problems.append(f"need a precision in [1, {MAX_PRECISION}], "
                        f"got {precision!r}")
    elif not problems and p**precision > MAX_PADIC_MODULUS:
        problems.append(f"p^precision = {p}^{precision} is past "
                        f"MAX_PADIC_MODULUS = 13^{MAX_PRECISION}")
    return problems


def read_json(path: str | PathLike):
    """The JSON value in a file.  Any failure to read it is a SchemaError;
    ValueError covers bad JSON, bytes that are not text, long integers."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}") from exc


@dataclass(frozen=True)
class IwasawaElement:
    """Truncated power series over Z_p with uniform coefficient precision."""

    p: int
    prec: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError("precision must be positive")
        m = self.p**self.prec
        object.__setattr__(self, "coeffs", tuple(c % m for c in self.coeffs))

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def reduce(self, prec: int) -> "IwasawaElement":
        if prec > self.prec:
            raise PrecisionLoss(f"cannot raise precision {self.prec} -> {prec}")
        return IwasawaElement(self.p, prec, self.coeffs)

    def truncate(self, trunc: int) -> "IwasawaElement":
        if trunc > self.trunc:
            raise PrecisionLoss(f"cannot extend truncation {self.trunc}")
        return IwasawaElement(self.p, self.prec, self.coeffs[:trunc + 1])

    def __mul__(self, other: "IwasawaElement") -> "IwasawaElement":
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        n = min(self.prec, other.prec)
        d = min(self.trunc, other.trunc)
        m = self.p**n
        out = _poly_mul_trunc(self.coeffs, other.coeffs, m, d)
        return _series(self.p, n, tuple(out))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.trunc >= 6 else ""
        return f"Lambda[{self.p}^{self.prec}]({shown}{tail}; D={self.trunc})"

    # -- constructors / serialization -----------------------------------

    @staticmethod
    def zero(p: int, prec: int, trunc: int) -> "IwasawaElement":
        return IwasawaElement(p, prec, (0,) * (trunc + 1))

    @staticmethod
    def one(p: int, prec: int, trunc: int) -> "IwasawaElement":
        return IwasawaElement(p, prec, (1,) + (0,) * trunc)

    def to_json(self) -> dict:
        return {"p": self.p, "precision": self.prec,
                "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(rec: dict) -> "IwasawaElement":
        """Inverse of to_json; anything but a p and precision that pass
        padic_problems and 1 to MAX_TRUNC + 1 decimal-string coeffs is a
        SchemaError."""
        try:
            p, prec, coeffs = rec["p"], rec["precision"], rec["coeffs"]
            problems = padic_problems(p, prec)
            if type(coeffs) is not list or not 0 < len(coeffs) <= MAX_TRUNC + 1:
                problems.append(f"need 1 to {MAX_TRUNC + 1} coeffs at a "
                                f"precision in [1, {MAX_PRECISION}]")
            if problems:
                raise ValueError("; ".join(problems))
            return IwasawaElement(p, prec, tuple(int(c, 10) for c in coeffs))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad Lambda-element record: {exc}") from exc


def _series(p: int, prec: int, coeffs: tuple[int, ...]) -> IwasawaElement:
    """An IwasawaElement from a checked prec and coefficients already in
    [0, p^prec), taken as they are."""
    x = object.__new__(IwasawaElement)
    object.__setattr__(x, "p", p)
    object.__setattr__(x, "prec", prec)
    object.__setattr__(x, "coeffs", coeffs)
    return x


@dataclass(frozen=True)
class WeierstrassData:
    """p^mu * distinguished * unit reconstructs the prepared element.

    The distinguished polynomial and the unit carry precision
    prec = (input precision) - mu: they factor the truncated polynomial
    exactly to that many digits.  The unit has trunc + 1 coefficients,
    and its last lam are padding zeros: the product read as a polynomial
    of degree <= trunc fixes them, but as power-series coefficients they
    depend on the input past trunc and are not determined even mod p.
    """

    p: int
    prec: int
    mu: int
    lam: int
    distinguished: tuple[int, ...]
    unit: IwasawaElement

    @property
    def determined_precision(self) -> int:
        """The digits of the distinguished polynomial that the input, a
        series known mod T^(D+1), determines: min(prec, (D+1) // lam).

        P = T^lam + p r with deg r < lam, so T^lam = -p r mod P and
        T^(D+1) lies in (P, p^j), j = (D+1) // lam.  A series with the
        same mu that agrees with the input mod T^(D+1) is then P' U' = 0
        mod (P, p^j), and Weierstrass division gives P' = P mod p^j.
        """
        if self.lam == 0:
            return self.prec
        return min(self.prec, (self.unit.trunc + 1) // self.lam)


def invariants(f: IwasawaElement) -> tuple[int, int]:
    """(mu, lambda) read from coefficient valuations."""
    mu, lam = None, None
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        v = int_valuation(c, f.p)
        if mu is None or v < mu:
            mu, lam = v, i
            if v == 0:
                break
    if mu is None:
        raise InsufficientPrecision(
            f"all coefficients vanish mod {f.p}^{f.prec}")
    return mu, lam


def product_invariants(f: IwasawaElement,
                       factors: list[IwasawaElement]) -> tuple[int, int]:
    """(mu, lambda) of f * prod(factors), each factor a lift with mu = 0:
    mu(f), and the first index where f / p^mu(f) * prod(factors) is a
    unit mod p.  TruncationTooShort if there is none up to D."""
    p = f.p
    if any(g.p != p for g in factors):
        raise ValueError(f"mixed primes: a factor is not over p = {p}")
    mu = invariants(f)[0]
    d = min([f.trunc] + [g.trunc for g in factors])
    out = [c // p**mu for c in f.coeffs]
    for g in factors:
        out = _poly_mul_trunc(out, g.coeffs, p, d)
    for i, c in enumerate(out):
        if c % p:
            return mu, i
    raise TruncationTooShort(f"the product has no unit coefficient mod {p} "
                             f"up to D = {d}")


TRUNCATION_GUARD = 4


def weierstrass_prep(f: IwasawaElement) -> WeierstrassData:
    """Weierstrass preparation at working precision.

    Refuses when lambda is within TRUNCATION_GUARD of the truncation,
    where a longer distinguished polynomial would be indistinguishable.
    """
    p, d = f.p, f.trunc
    mu, lam = invariants(f)
    if lam > d - TRUNCATION_GUARD:
        raise TruncationTooShort(f"lambda = {lam} is within "
                                 f"{TRUNCATION_GUARD} of the truncation {d}")
    nprec = f.prec - mu        # >= 1: coefficients lie in [0, p^prec)
    reduced = [c // p**mu for c in f.coeffs]

    # Hensel-lift the mod-p factorization T^lam * ubar of the reduced
    # series to mod p^nprec, keeping deg(unit) <= d - lam.  The error
    # E = (f - P U) / p^m is carried mod p^(nprec - m); mod p it is
    # T^lam * dU + ubar * dP with deg dP < lam, so dP = E * ubar^(-1)
    # mod T^lam and dU = (E - dP U) / T^lam.  The new P U differs from
    # the old by p^m (dP U_old + P_new dU), so E moves on by those two
    # products, each of a mod-p digit series and a wide one.  Mod
    # p^(nprec - m) the wide ones are U_j and P_j, their first j digits,
    # with j = min(m, nprec - m) and min(m + 1, nprec - m): below p^j
    # already, so the products take them as they are, in slots sized by
    # terms * p^(j+1), and only E's own update reduces.  The digits
    # accumulate below p^nprec, so nothing is reduced after.
    ubar = [c % p for c in reduced[lam:]]
    ubar_inv = _series_inverse_mod_p(ubar, p, lam - 1) if lam else []
    pcoeffs = [0] * lam + [1]
    ucoeffs = ubar
    err = [(c - u) // p for c, u in zip(reduced, [0] * lam + ubar)]
    # P_j and U_j for 1 <= j <= half, the only ones the products read
    ps, us = [None, pcoeffs], [None, ucoeffs]
    half = (nprec + 1) // 2
    terms = min(lam + 1, d + 1 - lam)   # most terms of a product coefficient
    for m in range(1, nprec):
        pm, rest = p**m, p**(nprec - m)
        delta_p = _poly_mul_trunc(err[:lam], ubar_inv, p, lam - 1)
        j = min(m, nprec - m)
        fit = _poly_mul_unreduced(delta_p, us[j], d, terms * p**(j + 1))
        delta_u = [(e - f) % p for e, f in zip(err[lam:], fit[lam:])]
        pcoeffs = [c + pm * x for c, x in zip(pcoeffs, delta_p)] + [1]
        ucoeffs = [c + pm * x for c, x in zip(ucoeffs, delta_u)]
        if m < half:
            ps.append(pcoeffs)
            us.append(ucoeffs)
        j = min(m + 1, nprec - m)
        moved = _poly_mul_unreduced(ps[j], delta_u, d, terms * p**(j + 1))
        err = [(e - f - g) % rest // p
               for e, f, g in zip(err, fit, moved)]
    unit = _series(p, nprec, tuple(ucoeffs) + (0,) * lam)
    return WeierstrassData(p, nprec, mu, lam, tuple(pcoeffs), unit)


def _series_inverse_mod_p(u, p: int, d: int) -> list[int]:
    """u^(-1) mod (p, T^(d+1)) by Newton iteration v <- v(2 - uv), which
    doubles the number of correct coefficients at each step."""
    v = [pow(u[0], -1, p)]
    n = 1
    while n < d + 1:
        n = min(2 * n, d + 1)
        e = [-c for c in _poly_mul_trunc(u, v, p, n - 1)]
        e[0] += 2
        v = _poly_mul_trunc(v, e, p, n - 1)
    return v


def reconstruct(w: WeierstrassData, trunc: int) -> IwasawaElement:
    """p^mu * distinguished * unit, for checking against the input."""
    dist = IwasawaElement(w.p, w.prec,
                          tuple(w.distinguished) + (0,) * (trunc - w.lam))
    prod = dist * w.unit
    coeffs = tuple(c * w.p**w.mu for c in prod.coeffs)
    return IwasawaElement(w.p, w.prec + w.mu, coeffs)


# -- group-like elements and specialization ------------------------------


def factorial_valuation(d: int, p: int) -> int:
    """v_p(d!) by Legendre's formula."""
    total, q = 0, p
    while q <= d:
        total += d // q
        q *= p
    return total


@lru_cache(maxsize=128)
def _factorial_table(p: int, trunc: int, prec: int):
    """p^v_p(k) for k = 1..trunc, and (p-free part of k!)^(-1) mod p^prec
    for k = 0..trunc, from one modular inverse, walking back down by the
    factors k."""
    m = p**prec
    p_parts, units = [], [1]
    for k in range(1, trunc + 1):
        pk = p**int_valuation(k, p)
        p_parts.append(pk)
        units.append(k // pk)
    inv_units = [pow(prod(units), -1, m)]
    for unit in reversed(units[1:]):
        inv_units.append(inv_units[-1] * unit % m)
    return tuple(p_parts), tuple(reversed(inv_units))


def binomial_sum(terms, trunc: int, prec: int) -> IwasawaElement:
    """Sum of a * (1+T)^e over the (int a, PAdicInt e) pairs of `terms`
    (at least one), coefficients correct mod p^prec.

    Each term walks a * e(e-1)...(e-k+1) once, for k = 1..trunc: at each
    multiple k of p it checks that the falling factorial is divisible by
    p^v_p(k!) and divides by p^v_p(k), and it keeps the walk modulo
    p^(need - v_p(k!)), the digits still good.  The walks go into one
    accumulator, whose coefficients are divided by the p-free part of k!
    once, at the end.  Dividing by k! costs v_p(k!) digits, so each
    exponent must arrive with need = prec + v_p(trunc!) digits.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    p = terms[0][1].p
    need = prec + factorial_valuation(trunc, p)
    p_parts, inv_units = _factorial_table(p, trunc, prec)
    big, out_mod = p**need, p**prec
    acc = [0] * (trunc + 1)
    for a, e in terms:
        if e.prec < need:
            raise PrecisionLoss(
                f"exponent precision {e.prec} < {need} needed for D={trunc}")
        a, x = a % out_mod, e.residue % big
        if not (a and x):           # a = 0, or (1+T)^e = 1 mod p^prec
            acc[0] += a
            continue
        # v_p(a) < prec, so p^(v_p(a) + j) divides the walk exactly when
        # p^j divides the falling factorial
        pa = p**int_valuation(a, p)
        num, m, walk = a, big, [a]
        for y, pk in zip(range(x, x - trunc, -1), p_parts):
            num = num * y % m
            if pk > 1:
                if num % (pk * pa):
                    raise PrecisionLoss(
                        f"falling factorial not divisible by p^"
                        f"{factorial_valuation(len(walk), p)}")
                num //= pk
                m //= pk
            walk.append(num)
        acc = [s + c for s, c in zip(acc, walk)]
    return _series(p, prec, tuple(s * u % out_mod
                                  for s, u in zip(acc, inv_units)))


@lru_cache(maxsize=None)
def _inv_log_gamma(p: int, prec: int) -> PAdicInt:
    """(log(1+p)/p)^(-1) mod p^prec."""
    return inv(padic_log1p(PAdicInt(p, prec + 1, p)).exact_div_p(1))


def frobenius_exponent(q: int, p: int, prec: int) -> PAdicInt:
    """e(q) with (1+p)^e(q) = q_w, the wild projection of q.

    teich(q)^(p-1) = 1, so log q_w = log(q^(p-1))/(p-1) needs no
    Teichmueller lift; both logs have valuation >= 1, and the quotient
    log(q_w)/log(1+p) lands back in Z_p at the requested precision.
    """
    if q % p == 0:
        raise ValueError(f"q = {q} must differ from p = {p}")
    w = prec + 1
    log_q = padic_log1p(PAdicInt(p, w, pow(q, p - 1, p**w) - 1))
    log_qw = log_q * inv(PAdicInt(p, w, p - 1))
    return log_qw.exact_div_p(1) * _inv_log_gamma(p, prec)


def specialize(f: IwasawaElement, n: int) -> PAdicInt:
    """Evaluate at the weight-n cyclotomic point T = (1+p)^(1-n) - 1.

    The wild character at the point is trivial; a nontrivial one needs
    p-power roots of unity outside Z_p and is out of scope.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if f.trunc + 1 < f.prec:
        raise PrecisionLoss(
            f"truncation {f.trunc} too short for precision {f.prec}: "
            f"the tail is only O(p^{f.trunc + 1})")
    m = f.modulus
    gamma_pow = pow(1 + f.p, n - 1, m)
    t0 = (pow(gamma_pow, -1, m) - 1) % m
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * t0 + c) % m
    return PAdicInt(f.p, f.prec, acc)


# -- congruence --------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceVerdict:
    congruent: bool
    unit: int | None = None
    mismatch_index: int | None = None
    mismatch: tuple[int, int] | None = None

    def __bool__(self):
        return self.congruent


def congruent_mod_p(f: IwasawaElement,
                    g: IwasawaElement) -> CongruenceVerdict:
    """Coefficientwise congruence mod p up to a scalar unit.

    The scalar is read off the first coefficient of g that is a unit
    mod p; if g vanishes mod p entirely, the scalar is taken to be 1.
    """
    if f.p != g.p:
        raise ValueError(f"mixed primes {f.p} and {g.p}")
    p = f.p
    d = min(f.trunc, g.trunc)
    u = 1
    for i, (a, b) in enumerate(zip(f.coeffs[:d + 1], g.coeffs[:d + 1])):
        if b % p != 0:
            u = a * pow(b % p, -1, p) % p
            if u == 0:
                # F vanishes mod p where G does not; the witness is the
                # first coefficient keeping F away from 0 mod p, or this
                # index if F is zero mod p throughout
                for j in range(d + 1):
                    if f.coeffs[j] % p != 0:
                        return CongruenceVerdict(
                            False, None, j,
                            (f.coeffs[j] % p, g.coeffs[j] % p))
                u = 1
            break
    for i in range(d + 1):
        fa, ga = f.coeffs[i] % p, g.coeffs[i] % p
        if (fa - u * ga) % p != 0:
            return CongruenceVerdict(False, None, i, (fa, ga))
    return CongruenceVerdict(True, u)


def congruence_transfer_check(f: IwasawaElement, g: IwasawaElement) -> dict:
    """Mod-p congruence up to unit, and the lambda transfer when mu = 0.

    Returns a JSON-ready verdict; 'no_conclusion' means the congruence
    holds but mu > 0, so the transfer theorem does not apply.  Elements
    over different primes raise ValueError (from congruent_mod_p).
    """
    verdict = congruent_mod_p(f, g)
    out: dict = {"congruent": verdict.congruent, "unit": verdict.unit}
    if not verdict.congruent:
        out["conclusion"] = "not_congruent"
        out["counterexample"] = {
            "index": verdict.mismatch_index,
            "coefficients_mod_p": list(verdict.mismatch)}
        return out
    mu_f, lam_f = _invariants_or_none(f)
    mu_g, lam_g = _invariants_or_none(g)
    out.update({"mu_f": mu_f, "lambda_f": lam_f,
                "mu_g": mu_g, "lambda_g": lam_g})
    if mu_f != 0:
        out["conclusion"] = "no_conclusion"
        return out
    ok = (mu_g == 0) and (lam_f == lam_g)
    out["conclusion"] = "transfer_verified" if ok else "transfer_failed"
    return out


def _invariants_or_none(f: IwasawaElement) -> tuple:
    """(mu, lambda) of f, or (None, None) when f vanishes mod p^prec."""
    try:
        return invariants(f)
    except InsufficientPrecision:
        return None, None
