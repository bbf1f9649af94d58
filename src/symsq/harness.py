"""Form records, the Lambda-lifts of their local factors, and reports.

The analytic p-adic L-function itself is input data here: the harness
verifies relations between supplied Lambda-elements and the local
factors it derives from eigenvalue data, rather than constructing
L-functions from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .characters import (DirichletCharacter, is_residually_trivial,
                         trivial_character)
from .cyclotomic import (_residue_embedding, embedding_root, exact_json,
                         parse_exact, parse_rational)
from .errors import (NotEmbeddable, NotOrdinary, SchemaError,
                     TruncationTooShort)
from .euler import EulerFactor, SatakeData, euler_to_lambda, symsq_factor
from .iwasawa import (MAX_LEVEL, MAX_TRUNC, MAX_WEIGHT, TRUNCATION_GUARD,
                      IwasawaElement, invariants, padic_problems,
                      read_json)
from .padic import factorize, int_valuation, is_prime


@dataclass
class FormRecord:
    """Eigenvalue data for one p-stabilized-eligible form, all exact."""

    label: str
    weight: int
    level: int                      # prime-to-p part of the level
    character: DirichletCharacter
    ap: dict[int, object]           # prime -> exact eigenvalue
    p: int
    precision: int
    trunc: int
    # level prime -> {"type", "aq"} and/or {"poly": exact coefficients}
    bad_primes: dict[int, dict] = field(default_factory=dict)
    source: str | None = None

    def satake(self, q: int) -> SatakeData:
        """Local Satake data at q, from the eigenvalue map or overrides."""
        if q == self.p:
            raise ValueError("local data at p is handled by stabilization")
        if self.level % q == 0:
            entry = self.bad_primes[q]
            return SatakeData(q, entry["type"], entry.get("aq", 0), 0,
                              self.weight)
        if q not in self.ap:
            raise SchemaError(
                f"eigenvalue a({q}) not in the record (bound too small)")
        return SatakeData(q, "unramified", self.ap[q],
                          self.character(q), self.weight)

    def euler_factor(self, q: int) -> EulerFactor:
        """Untwisted local factor, honouring explicit polynomial overrides."""
        entry = self.bad_primes.get(q)
        if entry and "poly" in entry:
            return EulerFactor(q, entry["poly"])
        return symsq_factor(self.satake(q))


def parse_prime(text: str, what: str) -> int:
    """A prime written as a plain decimal; anything else is a SchemaError."""
    try:
        if (text.isascii() and text.isdigit() and text[0] != "0"
                and is_prime(int(text))):
            return int(text)
    except ValueError as exc:       # too many digits, or past is_prime's bound
        raise SchemaError(f"{what} must hold primes: {exc}") from exc
    raise SchemaError(f"{what} must hold primes, got {text!r}")


def _by_prime(obj, name: str, problems: list[str]) -> dict:
    """{prime: value} from an object keyed by primes, else problems."""
    if not isinstance(obj, dict):
        problems.append(f"{name} must be an object keyed by primes")
        return {}
    out = {}
    for key, value in obj.items():
        try:
            out[parse_prime(key, name)] = value
        except SchemaError as exc:
            problems.append(str(exc))
    return out


def _bad_prime(entry) -> dict:
    """A bad-prime entry with exact values; ValueError if malformed."""
    if not isinstance(entry, dict) or type(entry.get("poly", [])) is not list:
        raise ValueError(f"malformed entry {entry!r}")
    out = {}
    if entry.get("type") in ("ordinary", "depleted"):
        out = {"type": entry["type"], "aq": parse_rational(entry.get("aq", 0))}
    elif "type" in entry or "poly" not in entry:
        raise ValueError("needs a type (ordinary|depleted) or a poly")
    if "poly" in entry:
        out["poly"] = tuple(parse_exact(c) for c in entry["poly"])
    return out


def load_form(path: str | Path, *, p: int | None = None,
              precision: int | None = None,
              trunc: int | None = None) -> FormRecord:
    """Decode and fully validate a form record; errors are enumerated.
    p, precision and trunc override the record before validation.  The
    `flags` key is ignored."""
    rec = read_json(path)
    if not isinstance(rec, dict):
        raise SchemaError("a form record is a JSON object")
    problems = [f"missing key {key!r}" for key in (
        "label", "weight", "level", "character", "ap", "p", "precision",
        "trunc") if key not in rec]
    if problems:
        raise SchemaError("; ".join(problems))

    label = str(rec["label"])
    weight, level = rec["weight"], rec["level"]
    p = rec["p"] if p is None else p
    precision = rec["precision"] if precision is None else precision
    trunc = rec["trunc"] if trunc is None else trunc
    if type(weight) is not int or not 2 <= weight <= MAX_WEIGHT:
        problems.append(f"weight must be an integer in [2, {MAX_WEIGHT}], "
                        f"got {weight!r}")
    if type(level) is not int or not 1 <= level <= MAX_LEVEL:
        problems.append(f"level must be an integer in [1, {MAX_LEVEL}], "
                        f"got {level!r}")
        level = None
    bad_p = padic_problems(p, precision)
    if not bad_p and level and level % p == 0:
        bad_p.append(f"level {level} must be prime to p = {p}")
    problems += bad_p
    if type(trunc) is not int or not 1 <= trunc <= MAX_TRUNC:
        problems.append(f"trunc must be an integer in [1, {MAX_TRUNC}], "
                        f"got {trunc!r}")

    try:
        character = DirichletCharacter.from_json(rec["character"])
    except SchemaError as exc:
        problems.append(str(exc))
        character = trivial_character(1)
    if level and level % character.modulus != 0:
        problems.append(
            f"character modulus {character.modulus} does not divide "
            f"the level {level}")

    ap = _by_prime(rec["ap"], "ap", problems)
    for q, value in ap.items():
        try:
            ap[q] = parse_rational(value)
        except ValueError:
            problems.append(f"bad eigenvalue entry {q}: {value!r}")
    bad_primes = _by_prime(rec.get("bad_primes", {}), "bad_primes", problems)
    for q, entry in bad_primes.items():
        if level and level % q != 0:
            problems.append(f"bad-prime override at {q} but {q} does not "
                            f"divide the level {level}")
        try:
            bad_primes[q] = _bad_prime(entry)
        except ValueError as exc:
            problems.append(f"bad-prime entry at {q}: {exc}")
    if level:
        for q, _ in factorize(level):
            if q not in bad_primes:
                problems.append(f"no bad-prime entry for level prime {q}")
    if problems:
        raise SchemaError("; ".join(problems))

    form = FormRecord(label, weight, level, character, ap, p, precision,
                      trunc, bad_primes, source=str(Path(path)))
    for q in bad_primes:        # each override builds its factor on load
        form.euler_factor(q)
    # ordinarity is checked on load, not at first use
    if p not in ap:
        raise SchemaError(f"record has no a_{p}; ordinarity cannot be checked")
    a_p = ap[p]
    if a_p.numerator % p == 0 or a_p.denominator % p == 0:
        raise NotOrdinary(f"a_{p} = {a_p} is not a unit at {p}")
    # every referenced character value must land in Z_p
    if (p - 1) % character.order != 0:
        raise NotEmbeddable(
            f"nebentype order {character.order} does not divide p-1 = {p - 1}")
    return form


# -- Euler factor cache ------------------------------------------------------


# cache_key's payload is json.dumps(dict, sort_keys=True) of the factor's
# coefficients, psi, t, p, N, D and the resolved root, written as one
# encoder's texts joined in sorted key order: "coeffs", then the
# row-independent "p", "precision" and "psi", then "q", then "root", "t"
# and "trunc".
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


@lru_cache(maxsize=64, typed=True)   # t=0 and t=False write apart
def _key_parts(psi: DirichletCharacter, t: int, p: int, precision: int,
               trunc: int, primitive_root: int | None) -> tuple[str, str]:
    """The payload's text between "coeffs" and q's value, and after it."""
    enc = _KEY_ENCODER.encode
    return (f', "p": {enc(p)}, "precision": {enc(precision)}, '
            f'"psi": {enc(psi.to_json())}, "q": ',
            f', "root": {enc(embedding_root(p, primitive_root))}, '
            f'"t": {enc(t)}, "trunc": {enc(trunc)}}}')


def cache_key(form: FormRecord, q: int, psi: DirichletCharacter, t: int,
              primitive_root: int | None, *,
              factor: EulerFactor | None = None) -> str:
    """SHA-256 of the sorted JSON of the lift's inputs: the factor's
    coefficients, q, psi, t, p, N, D and the resolved primitive root."""
    factor = factor or form.euler_factor(q)
    middle, tail = _key_parts(psi, t, form.p, form.precision, form.trunc,
                              primitive_root)
    enc = _KEY_ENCODER.encode
    payload = ('{"coeffs": ' + enc([exact_json(c) for c in factor.coeffs])
               + middle + enc(q) + tail)
    return hashlib.sha256(payload.encode()).hexdigest()


def _entry(cache_dir: str | Path, form: FormRecord, q: int,
           psi: DirichletCharacter, t: int, primitive_root: int | None,
           factor: EulerFactor) -> str:
    """A lift's entry path as one string, which the row loop stats."""
    return os.path.join(cache_dir, cache_key(form, q, psi, t, primitive_root,
                                             factor=factor) + ".json")


def _check_twist(p: int, psi: DirichletCharacter, t: int,
                 primitive_root: int | None) -> None:
    """Refuse, whatever primes are lifted, a primitive root that is not
    one mod p, an odd tame exponent t, and a psi whose order does not
    divide p - 1 (the rule load_form applies to the nebentype)."""
    embedding_root(p, primitive_root)
    if t % 2 != 0:
        raise ValueError(f"the tame exponent t must be even, got {t}")
    if (p - 1) % psi.order != 0:
        raise NotEmbeddable(
            f"psi order {psi.order} does not divide p - 1 = {p - 1}")


def _past_truncation(q: int, trunc: int) -> TruncationTooShort:
    return TruncationTooShort(
        f"the lift at q={q} has no unit coefficient up to D = {trunc}: "
        f"sigma_q = m p^v is past the truncation")


def _store(path: str, lifted: IwasawaElement) -> None:
    """Write a lift whole, then rename it into place.  The directory is
    made only when the write finds none; a write that fails leaves the
    lift uncached and no temporary file."""
    tmp = f"{os.path.splitext(path)[0]}.{os.getpid()}.tmp"
    text = json.dumps(lifted.to_json(), sort_keys=True)
    try:
        try:
            f = open(tmp, "w")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            f = open(tmp, "w")
        with f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:     # an unwritable cache leaves the lift uncached
        with suppress(OSError):
            os.unlink(tmp)


def lift_factor(form: FormRecord, q: int, psi: DirichletCharacter, t: int,
                primitive_root: int | None = None,
                cache_dir: str | Path | None = None, *,
                factor: EulerFactor | None = None) -> IwasawaElement:
    """Lambda-lift of the local factor at q, optionally content-cached.

    This is the one path that reads the cache.  An entry that does not
    decode, or was lifted at another p, precision or truncation, is a
    miss, and is rewritten; entries are written whole, then renamed, and
    a write that fails is skipped and leaves no temporary file.
    An odd t, a psi whose order does not divide p - 1 and a primitive
    root that is not one mod p are refused before any lift.
    Every lift has mu = 0 and lambda = sigma_q = m p^v: m is the
    multiplicity of psi_t(q) q^(-1) as a root of P_q mod p, and v =
    v_p(e(q)).  A lift, fresh or cached, with no unit coefficient up to
    D has sigma_q > D and is refused (TruncationTooShort) before it is
    cached."""
    _check_twist(form.p, psi, t, primitive_root)
    factor = factor or form.euler_factor(q)
    lifted = None
    if cache_dir is not None:
        path = _entry(cache_dir, form, q, psi, t, primitive_root, factor)
        try:
            cached = IwasawaElement.from_json(read_json(path))
            if (cached.p, cached.prec, cached.trunc) == (
                    form.p, form.precision, form.trunc):
                lifted = cached
        except SchemaError:
            pass
    fresh = lifted is None
    if fresh:
        lifted = euler_to_lambda(factor, psi, t, form.p, form.precision,
                                 form.trunc, primitive_root)
    if not any(c % form.p for c in lifted.coeffs):
        raise _past_truncation(q, form.trunc)
    if cache_dir is not None and fresh:
        _store(path, lifted)
    return lifted


def _closed_sigma(form: FormRecord, q: int, psi: DirichletCharacter, t: int,
                  root: int | None, factor: EulerFactor) -> int:
    """sigma_q = m p^v, the lambda of lift_factor's lift, read off P_q
    mod p with no series.  Mod p the lift is P(s (1+T)^e) with s =
    psi(q) q^(t-1) (teich(q) = q mod p), and (1+T)^e - 1 has lambda p^v,
    v = v_p(e(q)) = v_p(q^(p-1) - 1) - 1; so m is the multiplicity of s
    as a root of P mod p.  0 when psi(q) = 0, where the lift is 1.  It
    refuses what the lift refuses: a coefficient that does not embed
    (NotEmbeddable), and m p^v > D (TruncationTooShort)."""
    p, trunc = form.p, form.trunc
    psi_q = psi(q)
    if psi_q.is_zero():
        return 0
    embed = _residue_embedding(p, 1, root)
    s = embed(psi_q) * pow(q, t - 1, p) % p
    poly = [embed(c) for c in factor.coeffs]
    m = 0
    while True:             # Horner: P(s), and the quotient by X - s
        acc, quotient = 0, []
        for c in reversed(poly):
            acc = (acc * s + c) % p
            quotient.append(acc)
        if acc:
            break
        m += 1
        poly = quotient[-2::-1]
    if m == 0:
        return 0
    # k = floor(log_p D) + 2 digits of q^(p-1) - 1 show v when v < k - 1;
    # when they all vanish, v >= k - 1 and m p^(k-1) > D refuses as m p^v
    k = 2
    while p**(k - 1) <= trunc:
        k += 1
    r = pow(q, p - 1, p**k) - 1
    sigma = m * p**(int_valuation(r, p) - 1 if r else k - 1)
    if sigma > trunc:
        raise _past_truncation(q, trunc)
    return sigma


# -- invariant report ---------------------------------------------------------


@dataclass
class InvariantReport:
    """Everything the report subcommand knows, JSON-ready.  The JSON
    keeps "assertions": [] and "passed": true as constants of the format:
    the report asserts nothing, and lfun carries lambda_S0 as data."""

    form_label: str
    p: int
    precision: int
    trunc: int
    psi: dict
    t: int
    table: list[dict]               # per-prime rows, ascending q
    sigma_total: int
    lfun: dict | None = None        # mu/lambda of L and of L_S0
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "form": self.form_label, "p": self.p,
            "precision": self.precision, "trunc": self.trunc,
            "psi": self.psi, "t": self.t,
            "sigma_table": self.table, "sigma_total": self.sigma_total,
            "lfun": self.lfun, "assertions": [],
            "provenance": self.provenance, "passed": True,
        }

    def to_text(self) -> str:
        lines = [f"form {self.form_label}  p={self.p} N={self.precision} "
                 f"D={self.trunc} t={self.t}"]
        for row in self.table:
            lines.append(f"q={row['q']:<6} type={row['type']:<11} "
                         f"sigma={row['sigma']}")
        lines.append(f"sigma_total={self.sigma_total}")
        if self.lfun is not None:
            lines.append(f"L: mu={self.lfun['mu']} lambda={self.lfun['lambda']}")
            lines.append(f"L_S0: mu={self.lfun['mu_imprimitive']} "
                         f"lambda={self.lfun['lambda_imprimitive']}")
        lines.append("PASS")
        return "\n".join(lines) + "\n"


def invariant_report(form: FormRecord, psi: DirichletCharacter, t: int,
                     s0, lfun: IwasawaElement | None = None,
                     primitive_root: int | None = None,
                     cache_dir: str | Path | None = None) -> InvariantReport:
    """sigma table over s0, and with L supplied the invariants of L and
    of L_S0 = L * prod(P_q): mu_S0 = mu(L) and lambda_S0 = lambda(L) +
    sum(sigma), since each lift has mu = 0 and F_p[[T]] is a domain
    (Greenberg-Vatsal).

    Each row's sigma_q = m p^v is read off P_q mod p (_closed_sigma),
    with no Lambda-lift, and is refused where lift_factor would refuse
    the lift.  With cache_dir, the lift of a row whose entry is absent is
    computed and stored; no entry is read, so a cache cannot change the
    report.

    With L supplied, refuses (TruncationTooShort) when lambda + sum(sigma)
    is within the Weierstrass guard of the truncation, where a truncated
    product could not show its first unit coefficient.  The provenance
    records the primitive root reduced mod p, or None.
    """
    s0 = sorted(set(s0))
    _check_twist(form.p, psi, t, primitive_root)
    root = (None if primitive_root is None
            else embedding_root(form.p, primitive_root))
    if form.p in s0:
        raise ValueError(f"S0 must not contain p = {form.p}")
    twisted_sq = (psi * form.character)**2
    if is_residually_trivial(twisted_sq, form.p):
        warnings.warn(
            f"(psi*eps)^2 is residually trivial mod {form.p}; the "
            "integrality hypotheses behind the report are not guaranteed",
            RuntimeWarning, stacklevel=2)
    if lfun is not None:
        if lfun.p != form.p:
            raise ValueError("L-function prime differs from the form's")
        if lfun.prec < form.precision or lfun.trunc < form.trunc:
            raise ValueError("L-function precision/truncation too small")
        lfun = lfun.reduce(form.precision).truncate(form.trunc)

    table, sigma_total = [], 0
    for q in s0:
        factor = form.euler_factor(q)
        sigma = _closed_sigma(form, q, psi, t, root, factor)
        if cache_dir is not None:       # add a missing entry; read none
            path = _entry(cache_dir, form, q, psi, t, root, factor)
            if not os.path.exists(path):
                _store(path, euler_to_lambda(factor, psi, t, form.p,
                                             form.precision, form.trunc,
                                             root))
        rtype = (form.bad_primes[q].get("type", "override")
                 if form.level % q == 0 else "unramified")
        table.append({"q": q, "type": rtype, "sigma": sigma,
                      "degree": factor.degree, "mu": 0})
        sigma_total += sigma

    report = InvariantReport(
        form_label=form.label, p=form.p, precision=form.precision,
        trunc=form.trunc, psi=psi.to_json(), t=t, table=table,
        sigma_total=sigma_total,
        provenance={"form_source": form.source or "<memory>",
                    "primitive_root": root},
    )
    if lfun is not None:
        mu_l, lam_l = invariants(lfun)
        if lam_l + sigma_total > form.trunc - TRUNCATION_GUARD:
            raise TruncationTooShort(
                f"lambda + sum(sigma) = {lam_l} + {sigma_total} is within "
                f"{TRUNCATION_GUARD} of the truncation {form.trunc}, where "
                f"the imprimitive product cannot show lambda_S0")
        report.lfun = {"mu": mu_l, "lambda": lam_l, "mu_imprimitive": mu_l,
                       "lambda_imprimitive": lam_l + sigma_total}
    return report
