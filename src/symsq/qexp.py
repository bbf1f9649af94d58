"""Truncated q-expansions and the operator calculus on them.

Truncation bookkeeping is the point: every operator returns the largest
truncation it can prove correct (U_q and tau_q shrink it by a factor q,
depletion keeps it), and consumers must compare expansions on the
common truncation.  The zeros that depletion writes are exact values,
not unknowns.  There is no T_q or V_q here: tau_q is a depletion, and
only the test oracles compose those operators.

Coefficients live in one of three rings, tagged on the expansion:
"int" (exact integers or Fractions), "cyc" (CycNumber), or "padic"
(PAdicInt, each with its own precision tag).  A "padic" expansion made
with an explicit primitive root carries it, and every later embedding
of a nebentype value into Z_p uses it; None means the default root.

p_stabilize works on integer residues: it lifts every coefficient once
(an exact value through the one embedding of cyclotomic, a PAdicInt
by its residue), writes the precision tags of the composition
g0 - V_p(g0).scale(beta) and the residues a(n) - beta a(n/p) as two
integer lists, and builds the PAdicInt tuple in one residue loop of
padic (`_padics`), which computes each tag's modulus p^prec once and
reduces each residue by it.  Scaling a "padic" expansion by a PAdicInt
builds its tuple in the same loop, from the tags min(prec c, prec a(n))
and the residues c a(n).

tau and deplete take only a prime q, and tau's unramified mode,
p_stabilize and the eigenform recursion only an integer weight k >= 1,
where q^(k-1) is exact (BadPrime); U_q takes any q >= 1 (ValueError).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import gcd, lcm, prod

from .characters import DirichletCharacter
from .cyclotomic import (CycNumber, _is_zero, _residue_embedding,
                         cyc_embed_padic, embedding_root)
from .errors import BadMode, BadPrime, SchemaError
from .padic import (PAdicInt, _padics, factorize, hensel_unit_root, inv,
                    is_prime)

RING_ORDER = {"int": 0, "cyc": 1, "padic": 1}


@dataclass(frozen=True)
class QExpansion:
    """Fourier expansion a(0..trunc) with weight/level/character metadata."""

    weight: int
    level: int
    character: DirichletCharacter
    coeffs: tuple
    ring: str = "int"
    primitive_root: int | None = None

    def __post_init__(self):
        if self.ring not in RING_ORDER:
            raise ValueError(f"unknown coefficient ring {self.ring!r}")
        if not self.coeffs:
            raise ValueError("an expansion needs at least a(0)")
        if self.primitive_root is not None and self.ring != "padic":
            raise ValueError("only a padic expansion carries a primitive root")

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if n < 0 or n > self.trunc:
            raise IndexError(f"a({n}) is beyond the truncation {self.trunc}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.coeffs)

    def truncate(self, new_trunc: int) -> "QExpansion":
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a truncation")
        return dataclasses.replace(self, coeffs=self.coeffs[:new_trunc + 1])

    def scale(self, c) -> "QExpansion":
        if isinstance(c, PAdicInt) and self.ring == "padic" \
                and all(a.p == c.p for a in self.coeffs):  # else c * a raises
            cp, cr = c.prec, c.residue
            return dataclasses.replace(self, coeffs=_padics(
                c.p, [a.prec if a.prec < cp else cp for a in self.coeffs],
                [cr * a.residue for a in self.coeffs]))
        ring = "cyc" if isinstance(c, CycNumber) and self.ring == "int" \
            else self.ring
        return dataclasses.replace(
            self, coeffs=tuple(c * a for a in self.coeffs), ring=ring)

    def __add__(self, other: "QExpansion") -> "QExpansion":
        return _combine(self, other, lambda a, b: a + b)

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return _combine(self, other, lambda a, b: a - b)


def _zero_like(c):
    if isinstance(c, PAdicInt):
        return PAdicInt(c.p, c.prec, 0)
    if isinstance(c, CycNumber):
        return CycNumber.zero(c.order)
    return 0


def _combine(f: QExpansion, g: QExpansion, op) -> QExpansion:
    if f.weight != g.weight:
        raise ValueError(f"weights {f.weight} and {g.weight} differ")
    d = min(f.trunc, g.trunc)
    ring = f.ring if RING_ORDER[f.ring] >= RING_ORDER[g.ring] else g.ring
    if None not in (f.primitive_root, g.primitive_root) \
            and f.primitive_root != g.primitive_root:
        raise ValueError(f"expansions embedded along primitive roots "
                         f"{f.primitive_root} and {g.primitive_root}")
    root = g.primitive_root if f.primitive_root is None else f.primitive_root
    coeffs = tuple(op(a, b) for a, b in zip(f.coeffs[:d + 1], g.coeffs[:d + 1]))
    return QExpansion(f.weight, lcm(f.level, g.level), f.character, coeffs,
                      ring, root)


def _eps_scalar(f: QExpansion, q: int):
    """Value of the nebentype at q, coerced into the coefficient ring."""
    v = f.character(q)
    if f.ring == "cyc":
        return v
    if f.ring == "padic":
        c0 = f.coeffs[0]
        return cyc_embed_padic(v, c0.p, c0.prec, f.primitive_root)
    return _int_if_rational(v)  # else it forces the cyc ring downstream


def _int_if_rational(v: CycNumber):
    """A character value as an int when it is rational (0 or +-1), else
    the CycNumber itself."""
    return int(v.as_rational()) if v.is_rational() else v


def _need_prime(q, what: str) -> None:
    if type(q) is not int or not is_prime(q):
        raise BadPrime(f"{what} needs a prime q, got {q!r}")


def _need_weight(k, what: str) -> None:
    if not isinstance(k, int) or k < 1:     # else q^(k-1) is not exact
        raise BadPrime(f"{what} needs an integer weight >= 1, got {k}")


# -- Hecke operators ---------------------------------------------------------


def hecke_U(f: QExpansion, q: int) -> QExpansion:
    """U_q: b(n) = a(qn); truncation shrinks to floor(D/q)."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    d = f.trunc // q
    coeffs = tuple(f.coeffs[q * n] for n in range(d + 1))
    level = f.level if f.level % q == 0 else f.level * q
    return dataclasses.replace(f, coeffs=coeffs, level=level)


def deplete(f: QExpansion, s0) -> QExpansion:
    """Drop every a(n) with n divisible by a prime in s0.

    Coefficientwise this is prod over q in s0 of (1 - V_q U_q), but
    computed directly it keeps the full truncation.
    """
    s0 = set(s0)
    for q in s0:
        _need_prime(q, "deplete")
    if not s0:
        return f
    modulus = prod(s0)
    zero = _zero_like(f.coeffs[0])
    coeffs = tuple(a if gcd(n, modulus) == 1 else zero
                   for n, a in enumerate(f.coeffs))
    level = f.level
    for q in s0:
        level *= q if level % q == 0 else q * q
    return dataclasses.replace(f, coeffs=coeffs, level=level)


def tau(h: QExpansion, q: int, mode: str) -> QExpansion:
    """Level-raising map with U_q = 0 on the image.

    ordinary   (q | level):  h - V_q(U_q h)
    unramified (q ∤ level):  h - V_q(T_q h) + eps(q) q^(k-1) V_q(V_q h)

    Coefficientwise both are tau_q h(n) = h(n) [q ∤ n] up to floor(D/q):
    the depletion of h at q cut at floor(D/q), whose level rule gives the
    level x q (ordinary) or x q^2 (unramified).  The refusals are the
    compositions'.
    """
    _need_prime(q, "tau")
    if mode == "ordinary":
        if h.level % q != 0:
            raise BadMode(f"ordinary tau needs {q} | level {h.level}")
    elif mode == "unramified":
        if h.level % q == 0:
            raise BadMode(f"unramified tau needs {q} coprime to level {h.level}")
        _eps_scalar(h, q)                      # the composition's NotEmbeddable
        _need_weight(h.weight, f"T_{q}")
    else:
        raise BadMode(f"unknown mode {mode!r}")
    return deplete(h.truncate(h.trunc // q), (q,))


def p_stabilize(g0: QExpansion, a_p, eps_p, p: int, prec: int,
                primitive_root: int | None = None) -> QExpansion:
    """Pass from a form of level prime to p to its unit-root stabilization.

    Computes the unit root alpha of X^2 - a_p X + eps_p p^(k-1), the
    complementary root beta, and returns g0 - beta V_p(g0) over Z_p with
    coefficients mod p^prec.  U_p acts on the result by alpha.  Exact
    values embed along embedding_root(p, primitive_root); a root given
    here is stored, reduced mod p, on the result.

    Each b(n) = a(n) - beta a(n/p) carries the tag that the composition
    with V_p proves: off multiples of p, V_p's zero has the precision of
    a(0), so min(prec a(n), prec beta, prec a(0)).
    """
    if g0.level % p == 0:
        raise BadPrime(f"{p} already divides the level {g0.level}")
    _need_weight(g0.weight, "stabilization")
    root = None if primitive_root is None else embedding_root(p, primitive_root)
    embed = _residue_embedding(p, prec, root)
    a_p, eps_p = (PAdicInt(p, e, r)
                  for e, r in _lifts((a_p, eps_p), p, prec, embed))
    c = eps_p * p**(g0.weight - 1)
    alpha = hensel_unit_root(a_p, c)
    beta = c * inv(alpha)
    precs, res = zip(*_lifts(g0.coeffs, p, prec, embed))
    b, bp = beta.residue, beta.prec
    off = min(bp, precs[0])
    tags = [e if e < off else off for e in precs]
    vals = list(res)
    for n in range(0, len(res), p):
        tags[n] = min(precs[n], bp, precs[n // p])
        vals[n] -= b * res[n // p]
    return QExpansion(g0.weight, g0.level * p, g0.character,
                      _padics(p, tags, vals), "padic", root)


def _lifts(values, p: int, prec: int, embed) -> list[tuple[int, int]]:
    """Each value in Z_p as (precision, residue): an exact value goes
    through `embed` at prec, and a PAdicInt keeps at most prec digits."""
    return [(prec, embed(x)) if not isinstance(x, PAdicInt)
            else _reduced(x, p, prec) for x in values]


def _reduced(x: PAdicInt, p: int, prec: int) -> tuple[int, int]:
    if x.p != p:
        raise ValueError(f"mixed primes {x.p} and {p}")
    e = min(x.prec, prec)
    return e, x.residue % p**e


# -- eigenform synthesis ------------------------------------------------------


def expansion_from_eigenvalues(weight: int, level: int,
                               character: DirichletCharacter,
                               ap: dict[int, object], trunc: int) -> QExpansion:
    """Extend prime eigenvalues to a normalized eigen-expansion.

    Uses a(1) = 1, multiplicativity, and the prime-power recursion
    a(q^(j+1)) = a(q) a(q^j) - eps(q) q^(k-1) a(q^(j-1)); the nebentype
    vanishes at level primes, which turns the recursion into a(q)^j.
    The ring is "cyc" when a coefficient is a CycNumber, else "int".
    """
    _need_weight(weight, "the eigenform recursion")
    coeffs = [0] * (trunc + 1)
    if trunc >= 1:
        coeffs[1] = 1
    eps_cache = {}
    for n in range(2, trunc + 1):
        (q, e), *rest = factorize(n)
        if rest:                       # composite with coprime parts
            coeffs[n] = coeffs[q**e] * coeffs[n // q**e]
            continue
        if q not in ap:
            raise SchemaError(f"eigenvalue a({q}) missing but {q} <= {trunc}")
        if e == 1:
            coeffs[n] = ap[q]
            continue
        if q not in eps_cache:
            eps_cache[q] = _int_if_rational(character(q))
        eps = eps_cache[q]
        coeffs[n] = ap[q] * coeffs[q**(e - 1)] \
            - eps * q**(weight - 1) * coeffs[q**(e - 2)]
    ring = "cyc" if any(isinstance(c, CycNumber) for c in coeffs) else "int"
    return QExpansion(weight, level, character, tuple(coeffs), ring)


def coeffs_agree(f: QExpansion, g: QExpansion) -> bool:
    """Coefficientwise equality on the common truncation."""
    d = min(f.trunc, g.trunc)
    return all(_is_zero(a - b)
               for a, b in zip(f.coeffs[:d + 1], g.coeffs[:d + 1]))
