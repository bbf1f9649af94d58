"""Symmetric-square Euler factors and their Iwasawa-algebra lifts.

The degree-3 factor at an unramified prime is assembled from the
symmetric functions of the two Satake parameters, so no square roots
are ever extracted: with a = alpha + beta and b = alpha*beta,

    e1 = a^2 - b,   e2 = b*(a^2 - b),   e3 = b^3

are the elementary symmetric functions of {alpha^2, alpha*beta, beta^2}.

Lifting to Lambda substitutes X -> psi_t(q) q^(-1) (1+T)^e(q).  The
q^(-1) normalization is this artifact's convention: it is the unique
monomial normalization for which specialization at the cyclotomic point
of weight n evaluates the factor at (psi_{t+n-1}, q^(-n)) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import DirichletCharacter
from .cyclotomic import CycNumber, _is_zero, cyc_embed_padic
from .errors import DivergenceGuard, InvalidSatake, NotIntegral, NotOrdinary
from .iwasawa import (IwasawaElement, binomial_sum, factorial_valuation,
                      frobenius_exponent)
from .padic import PAdicInt, inv, is_prime, teichmuller

RAMIFICATION_TYPES = ("unramified", "ordinary", "depleted")


@dataclass(frozen=True)
class SatakeData:
    """Local data at q: ramification type, eigenvalue, nebentype value."""

    q: int
    ramification_type: str
    a_q: object            # exact: int, Fraction, or CycNumber
    eps_q: object           # character value at q, same flavour
    k: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidSatake(f"q = {self.q} is not prime")
        if self.ramification_type not in RAMIFICATION_TYPES:
            raise InvalidSatake(f"unknown type {self.ramification_type!r}")
        if self.k < 2:
            raise InvalidSatake(f"weight must be >= 2, got {self.k}")
        if self.ramification_type == "depleted" and not _is_zero(self.a_q):
            raise InvalidSatake("depleted primes carry zero parameters")
        if self.ramification_type == "ordinary" and _is_zero(self.a_q):
            raise InvalidSatake("ordinary primes carry one nonzero parameter")
        if self.ramification_type == "unramified" and _is_zero(self.eps_q):
            raise InvalidSatake(
                "unramified primes need eps(q) != 0 so that alpha*beta != 0")


@dataclass(frozen=True)
class EulerFactor:
    """Polynomial 1 + c1 X + ... in a cyclotomic ring, constant term 1."""

    q: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise InvalidSatake("Euler factor must have constant term 1")
        if len(self.coeffs) > 4:
            raise InvalidSatake("Euler factor degree exceeds 3")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def symsq_factor(s: SatakeData) -> EulerFactor:
    """Untwisted symmetric-square Euler polynomial at q: the Lambda-lift
    applies its own tame twist."""
    if s.ramification_type == "depleted":
        return EulerFactor(s.q, (1,))
    if s.ramification_type == "ordinary":
        return EulerFactor(s.q, (1, -(s.a_q * s.a_q)))
    eps = s.eps_q
    # an int a_q with eps(q) = +-1 runs the rule in ints, and each
    # coefficient is wrapped at eps's order, as CycNumber arithmetic
    # would return it
    ints = (type(s.a_q) is int and isinstance(eps, CycNumber)
            and eps.den == 1 and eps.is_rational())
    b = (eps.num[0] if ints else eps) * s.q**(s.k - 1)
    e1 = s.a_q * s.a_q - b
    coeffs = (-e1, b * e1, -(b * b * b))
    if ints:
        coeffs = tuple(CycNumber.from_rational(c, eps.order) for c in coeffs)
    return EulerFactor(s.q, (1, *coeffs))


def symsq_dirichlet_coeff_check(s: SatakeData,
                                character: DirichletCharacter) -> bool:
    """Cross-check: the degree-1 coefficient must equal a(q^2), taken
    from the independent Hecke recursion in qexp with the nebentype
    `character`."""
    if s.ramification_type != "unramified":
        raise InvalidSatake("the coefficient check applies to unramified q")
    e1 = -symsq_factor(s).coeffs[1]
    from .qexp import expansion_from_eigenvalues
    ap = {ell: 0 for ell in range(2, s.q**2 + 1) if is_prime(ell)}
    ap[s.q] = s.a_q
    f = expansion_from_eigenvalues(s.k, 1, character, ap, s.q**2)
    return _is_zero(e1 - f.coefficient(s.q * s.q))


def substitute_frobenius(factor: EulerFactor, scalar: PAdicInt,
                         exponent: PAdicInt, trunc: int, prec: int,
                         primitive_root: int | None = None
                         ) -> IwasawaElement:
    """Evaluate the factor at X = scalar * (1+T)^exponent in Lambda.

    The j-th power of the group-like element is (1+T)^(j*exponent),
    exactly so modulo (p^prec, T^(trunc+1)), so the value is the sum of
    c_j scalar^j (1+T)^(j*exponent): one `binomial_sum`, which walks
    each power's binomial series once, and no series is multiplied.
    """
    p = scalar.p
    terms = [(1, exponent * 0)]      # the constant term of a factor is 1
    scale = PAdicInt(p, prec, 1)
    for j, c in enumerate(factor.coeffs[1:], 1):
        scale = scale * scalar
        a = (cyc_embed_padic(c, p, prec, primitive_root) * scale).residue
        if a:
            terms.append((a, exponent * j))
    return binomial_sum(terms, trunc, prec)


def euler_to_lambda(factor: EulerFactor, psi: DirichletCharacter, t: int,
                    p: int, prec: int, trunc: int,
                    primitive_root: int | None = None) -> IwasawaElement:
    """Lambda-lift of an (untwisted) Euler factor under the tame twist
    psi * eta_1^t, via X -> psi_t(q) q^(-1) (1+T)^e(q)."""
    q = factor.q
    if q == p:
        raise ValueError("the Euler factor at p itself has no wild lift here")
    if t % 2 != 0:
        raise ValueError(f"the tame exponent t must be even, got {t}")
    psi_q = psi(q)
    if psi_q.is_zero():
        return IwasawaElement.one(p, prec, trunc)
    scalar = cyc_embed_padic(psi_q, p, prec, primitive_root) \
        * inv(PAdicInt(p, prec, q))
    if t:
        scalar = scalar * teichmuller(q, p, prec)**t
    exponent = frobenius_exponent(q, p, prec + factorial_valuation(trunc, p))
    return substitute_frobenius(factor, scalar, exponent, trunc, prec,
                                primitive_root)


def ep_factor(n: int, psi: DirichletCharacter, alpha_p: PAdicInt,
              beta_p: PAdicInt | None, r: int, ramified: bool,
              k: int, p: int, prec: int,
              primitive_root: int | None = None) -> PAdicInt:
    """Interpolation factor at p.

    Ramified twist: (p^(n-1) psi(p)^(-1) alpha_p^(-2))^r, with r the
    wild conductor exponent.  Unramified: the three-term product; any
    surviving negative power of p raises NotIntegral.
    """
    if alpha_p.val() != 0:
        raise NotOrdinary(f"alpha_p = {alpha_p!r} is not a unit")
    psi_p = psi(p)
    if psi_p.is_zero():
        raise ValueError("psi must be unramified at p")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = cyc_embed_padic(psi_p, p, prec, primitive_root)
    a2inv = inv(alpha_p) ** 2
    if ramified:
        if r < 1:
            raise ValueError("ramified case needs conductor exponent r >= 1")
        base = PAdicInt(p, prec, p)**(n - 1) * inv(w) * a2inv
        return base**r
    if beta_p is None:
        raise ValueError("unramified case needs beta_p")
    term1 = PAdicInt(p, prec, 1) - PAdicInt(p, prec, p)**(n - 1) * inv(w) * a2inv
    if k - 1 - n < 0:
        raise NotIntegral(f"p^{k - 1 - n} is not integral")
    term2 = PAdicInt(p, prec, 1) - w * PAdicInt(p, prec, p)**(k - 1 - n)
    try:
        b2 = (beta_p * beta_p).exact_div_p(n)
    except ValueError as exc:
        raise NotIntegral(f"beta_p^2 p^(-{n}) is not integral") from exc
    term3 = PAdicInt(p, b2.prec, 1) - w.reduce(b2.prec) * b2
    return term1 * term2 * term3


# -- complex-side evaluation -------------------------------------------------


def _to_complex(x) -> complex:
    if isinstance(x, CycNumber):
        return x.to_complex()
    return complex(Fraction(x))


def evaluate_factor_complex(factor: EulerFactor, chi_value, x: complex
                            ) -> complex:
    cx = _to_complex(chi_value) * x
    acc = 0j
    for c in reversed(factor.coeffs):
        acc = acc * cx + _to_complex(c)
    return acc


def evaluate_factor_padic(factor: EulerFactor, chi_value, x: PAdicInt,
                          primitive_root: int | None = None) -> PAdicInt:
    """Exact evaluation of the twisted factor at a p-adic point."""
    p, prec = x.p, x.prec
    cx = cyc_embed_padic(chi_value, p, prec, primitive_root) * x
    acc = PAdicInt(p, prec, 0)
    for c in reversed(factor.coeffs):
        acc = acc * cx + cyc_embed_padic(c, p, prec, primitive_root)
    return acc


def df_complex(satake: list[SatakeData], chi: DirichletCharacter,
               s: float, qmax: int) -> complex:
    """Truncated naive Euler product at real s, in double precision.

    Factors are merged in ascending q for reproducibility; leaving the
    convergence region |1 - P_q| < 1 raises DivergenceGuard.
    """
    ks = {d.k for d in satake}
    if ks and s <= max(ks):
        raise DivergenceGuard(f"s = {s} is not above the weight {max(ks)}")
    product = 1.0 + 0j
    for data in sorted(satake, key=lambda d: d.q):
        if data.q > qmax:
            continue
        factor = symsq_factor(data)
        value = evaluate_factor_complex(factor, chi(data.q), data.q**(-s))
        if abs(1 - value) >= 1:
            raise DivergenceGuard(
                f"factor at q = {data.q} left the convergence region")
        product /= value
    return product
