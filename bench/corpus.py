"""Seeded input generators for the four workloads.

Every corpus is built in blocks of one input per cell of a fixed grid.
What sets an input's cost (p, N, D, the size of S0, mu, the lambda
band) is fixed per cell, so every block holds the same mix of work; the
seed chooses everything else: eigenvalues, level primes, S0 members,
characters, coefficients, which records repeat and the order inside a
block.  Level kind, weight and twist rotate over blocks so that each
cell sees them all.  A run measures whole blocks, so the mix it
measures depends neither on the seed nor on how many blocks the
machine's speed lets it finish.
"""

from __future__ import annotations

import random

GRID = ((10, 60), (20, 120), (30, 200))            # (precision N, trunc D)
REPORT_PRIMES = (5, 7, 11, 13)
LAMBDA_PRIMES = (5, 7, 11)
# |S0| of the cell (p, D): each D has four sizes, one per p
S0_SIZES = ((4, 8, 11, 14), (5, 7, 10, 13), (6, 9, 9, 12))
EIGEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61)
LEVEL_PRIMES = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
ORDER4_LEVELS = (5, 13, 17, 29, 37, 41)            # primes = 1 mod 4
REPEATS_PER_BLOCK = 3                              # one record in four
LAMBDA_SPECIALIZE = (1, 2, 3)                      # specialize -n 1..3
QEXP_TRUNC = 500
QEXP_INT_PER_BLOCK = 12
QEXP_CYC_PER_BLOCK = 6
TABLE_M = 10                                       # L(1-m, chi), m <= 10
GUARD = 4                                          # weierstrass_prep default


def _primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1)
            if all(q % d for d in range(2, int(q**0.5) + 1))]


def _unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        a = rng.randint(-bound, bound)
        if a % p:
            return a


def _char_of_order(sq, modulus: int, order: int, rng: random.Random):
    chars = [c for c in sq.characters.characters_mod(modulus)
             if c.order == order and c.conductor == modulus]
    return rng.choice(chars)


def _lambda_coeffs(rng, p, prec, trunc, mu, lam):
    """Residues mod p^prec of an element with invariants (mu, lam)."""
    m = p**prec
    coeffs = []
    for i in range(trunc + 1):
        if i < lam:
            c = p**(mu + 1) * rng.randrange(p**(prec - mu - 1))
        elif i == lam:
            c = p**mu * (rng.randrange(p**(prec - mu - 1)) * p
                         + rng.randrange(1, p))
        else:
            c = p**mu * rng.randrange(p**(prec - mu))
        coeffs.append(c % m)
    return coeffs


# -- report corpus (report-cold, sigma-warm) ---------------------------------


def report_corpus(sq, seed: int, blocks: int) -> list[dict]:
    """Form records with S0, psi, t and an L-function, block by block.

    Record fields: id, cell (p, N, D), form (the JSON record), s0,
    psi (character JSON or None), t, lfun (Lambda-element JSON),
    lfun_lambda, lfun_id (file stem of the L-function), repeat_of,
    cyc_nebentype.
    """
    rng = random.Random(f"report/{seed}")
    out: list[dict] = []
    by_cell: dict[int, list[dict]] = {}
    for b in range(blocks):
        repeats = set(rng.sample(range(12), REPEATS_PER_BLOCK)) if b else set()
        block = []
        for c in range(12):
            p = REPORT_PRIMES[c // 3]
            prec, trunc = GRID[c % 3]
            size = S0_SIZES[c % 3][(c // 3 + c % 3) % 4]
            rid = f"r{b:02d}{c:02d}"
            rec = (_repeat(rng, rng.choice(by_cell[c]), rid, size)
                   if c in repeats else None)
            if rec is None:
                rec = _fresh(sq, rng, rid, b, c, p, prec, trunc, size)
            by_cell.setdefault(c, []).append(rec)
            block.append(rec)
        rng.shuffle(block)
        out.extend(block)
    return out


def _fresh(sq, rng, rid, b, c, p, prec, trunc, size) -> dict:
    weight = (2, 4, 6, 4)[(b + c) % 4]
    kind = (b + c) % 4                  # each D meets each kind per block
    lam = rng.randint(0, 6)
    room = trunc - GUARD - lam
    level, character, bad, cyc = 1, sq.characters.trivial_character(1), {}, False
    s0 = _s0(rng, p, level, 0, size, room)
    while kind and (level == 1 or s0 is None):
        if kind == 3 and (p - 1) % 4 == 0:
            level = rng.choice([q for q in ORDER4_LEVELS if q != p])
            character = _char_of_order(sq, level, 4, rng)
            cyc = True
        else:
            level = rng.choice([q for q in LEVEL_PRIMES if q != p])
            character = (sq.characters.trivial_character(level) if kind == 1
                         else _char_of_order(sq, level, 2, rng))
        bad = ({str(level): {"type": "depleted"}} if kind == 2 else
               {str(level): {"type": "ordinary",
                             "aq": str(rng.choice((1, -1)))}})
        s0 = _s0(rng, p, level, 0 if kind == 2 else 1, size, room)
    ap = {}
    for q in EIGEN_PRIMES:
        if q == level:
            continue
        bound = int(2 * q**((weight - 1) / 2))
        ap[str(q)] = str(_unit(rng, p, max(bound, p)) if q == p
                         else rng.randint(-bound, bound))
    form = {"label": f"form-{rid}", "weight": weight, "level": level,
            "character": character.to_json(), "ap": ap, "p": p,
            "precision": prec, "trunc": trunc, "bad_primes": bad,
            "flags": {"residually_irreducible": True,
                      "p_distinguished": True}}
    psi_kind = (2 * b + c) % 4
    psi, t = None, 0
    if psi_kind == 2:
        t = rng.choice((2, 4))
    elif psi_kind == 3:
        psi = _char_of_order(sq, rng.choice((3, 4, 8)), 2, rng).to_json()
        t = rng.choice((0, 2))
    lfun = {"p": p, "precision": prec,
            "coeffs": [str(x) for x in
                       _lambda_coeffs(rng, p, prec, trunc, 0, lam)]}
    return {"id": rid, "cell": (p, prec, trunc), "form": form,
            "s0": s0, "psi": psi, "t": t,
            "lfun": lfun, "lfun_lambda": lam, "lfun_id": rid,
            "repeat_of": None, "cyc_nebentype": cyc}


def _repeat(rng, orig: dict, rid: str, size: int) -> dict | None:
    """The same form under a new label with a different S0, or None
    when no different S0 of this size fits the truncation."""
    form = orig["form"]
    p, level, trunc = form["p"], form["level"], form["trunc"]
    level_degree = int(form["bad_primes"].get(str(level), {}).get("type")
                       == "ordinary")
    room = trunc - GUARD - orig["lfun_lambda"]
    for _ in range(20):
        s0 = _s0(rng, p, level, level_degree, size, room)
        if s0 is not None and s0 != orig["s0"]:
            return dict(orig, id=rid, form=dict(form, label=f"form-{rid}"),
                        s0=s0, repeat_of=orig["id"])
    return None


def _sigma_bound(p: int, q: int, degree: int) -> int:
    """Upper bound for the lambda-invariant of a degree-d lift at q.

    Mod p the lift is P(s (1+T)^e) with (1+T)^e = (1+T^(p^v))^u, u a
    unit and v = v_p(e(q)) = v_p(q^(p-1) - 1) - 1, so lambda is p^v
    times the multiplicity of a root of P mod p, at most its degree.
    """
    n, v = q**(p - 1) - 1, -1
    while n % p == 0:
        n //= p
        v += 1
    return degree * p**v


def _s0(rng, p, level, level_degree, size, room) -> list[int] | None:
    """A sorted S0 of the given size, the level prime included, whose
    lambda bound fits in `room`, or None when the level prime leaves
    no room.

    The report can only verify lambda_S0 = lambda + sum(sigma) while
    lambda_S0 stays below the truncation, so primes that could push it
    there are skipped, keeping the guard that weierstrass_prep uses.
    """
    s0 = [level] if level > 1 else []
    used = _sigma_bound(p, level, level_degree) if level > 1 else 0
    pool = [q for q in EIGEN_PRIMES if q not in (p, level)]
    rng.shuffle(pool)
    for q in pool:
        if len(s0) == size:
            break
        bound = _sigma_bound(p, q, 3)
        if used + bound + 3 * (size - len(s0) - 1) <= room:
            s0.append(q)
            used += bound
    return sorted(s0) if len(s0) == size else None


# -- lambda corpus ------------------------------------------------------------


def lambda_corpus(seed: int, blocks: int) -> list[dict]:
    """Lambda-elements F with a partner G, congruent to F up to a unit
    mod p or deliberately not.

    Fields: id, cell, p, prec, trunc, mu, lam, congruent, f, g
    (coefficient lists).
    """
    rng = random.Random(f"lambda/{seed}")
    out = []
    for b in range(blocks):
        block = []
        for c in range(9):
            p = LAMBDA_PRIMES[c // 3]
            prec, trunc = GRID[c % 3]
            # in every block each D meets each mu and each third of [0, D/3]
            mu = c // 3
            band = (mu + c) % 3
            lam = min(trunc // 3, int(trunc / 9 * (band + rng.random())))
            congruent = (b + c) % 2 == 0
            f = _lambda_coeffs(rng, p, prec, trunc, mu, lam)
            m = p**prec
            u = rng.randrange(1, p)
            g = [(u * x + p * rng.randrange(p**(prec - 1))) % m for x in f]
            if not congruent:
                j = rng.choice([i for i in range(trunc + 1) if i != lam])
                g[j] = (g[j] + rng.randrange(1, p)) % m
            block.append({"id": f"e{b:02d}{c}", "cell": (p, prec, trunc),
                          "p": p, "prec": prec, "trunc": trunc, "mu": mu,
                          "lam": lam, "congruent": congruent, "f": f, "g": g})
        rng.shuffle(block)
        out.extend(block)
    return out


# -- tables ---------------------------------------------------------------------


def character_classes(sq) -> dict[tuple[int, int], list]:
    """Primitive characters of conductor <= 40, by (conductor, order)."""
    classes: dict[tuple[int, int], list] = {}
    for m in range(1, 41):
        for chi in sq.characters.characters_mod(m):
            if chi.conductor == m:
                classes.setdefault((m, chi.order), []).append(chi)
    return classes


def tables_corpus(sq, seed: int, blocks: int) -> list[dict]:
    """Character rows (one member of every (conductor, order) class per
    block) mixed with q-expansion checks in the int and cyc rings."""
    rng = random.Random(f"tables/{seed}")
    classes = character_classes(sq)
    primes = _primes_upto(QEXP_TRUNC)
    out = []
    for b in range(blocks):
        block = [{"kind": "char", "chi": rng.choice(members)}
                 for _, members in sorted(classes.items())]
        block += [_qexp_item(sq, rng, primes, False)
                  for _ in range(QEXP_INT_PER_BLOCK)]
        block += [_qexp_item(sq, rng, primes, True)
                  for _ in range(QEXP_CYC_PER_BLOCK)]
        rng.shuffle(block)
        out.extend(block)
    return out


def _qexp_item(sq, rng, primes, cyc: bool) -> dict:
    weight = rng.choice((2, 4))
    if cyc:
        p = rng.choice((5, 13))
        level = rng.choice([q for q in ORDER4_LEVELS if q != p])
        character = _char_of_order(sq, level, 4, rng)
        q = rng.choice((2, 3, 7, 11))      # prime to every ORDER4_LEVELS
    else:
        p = rng.choice((5, 7))
        level, character = 1, sq.characters.trivial_character(1)
        q = rng.choice((2, 3, 5, 7, 11))
    ap = {ell: rng.randint(-10, 10) for ell in primes}
    ap[p] = _unit(rng, p, 2 * p)
    coeffs = [rng.randint(-50, 50) for _ in range(QEXP_TRUNC + 1)]
    return {"kind": "qexp_cyc" if cyc else "qexp_int", "weight": weight,
            "p": p, "level": level, "character": character, "q": q,
            "ap": ap, "coeffs": coeffs}
