"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: exact residue equality for
all p-adic criteria, 1e-6 relative for the Euler-product truncation,
1e-9 for the numeric-roots comparison.  Runtime limits are asserted for
the two heavy exact criteria.
"""

import time
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from symsq.characters import trivial_character
from symsq.cyclotomic import CycNumber, cyc_embed_padic
from symsq.euler import (SatakeData, df_complex, euler_to_lambda,
                         evaluate_factor_padic, symsq_factor)
from symsq.iwasawa import (IwasawaElement, congruence_transfer_check,
                           congruent_mod_p, invariants, reconstruct,
                           specialize, weierstrass_prep)
from symsq.padic import PAdicInt, inv, teichmuller
from symsq.qexp import (coeffs_agree, expansion_from_eigenvalues, hecke_U,
                        p_stabilize, tau)
from symsq.characters import gauss_sum, l_neg

from conftest import (PRIMES_TO_200, characters_with_order_dividing,
                      primitive_characters, random_eigen_map, seeded)


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_01_weierstrass_reconstruction():
    rng = seeded(101)
    start = time.perf_counter()
    count = 0
    for p in (5, 7):
        for _ in range(100):
            n, d = 6, 40
            coeffs = [rng.randrange(p**n) for _ in range(d + 1)]
            if rng.random() < 0.25:
                coeffs = [c * p**rng.choice([1, 2]) % p**n for c in coeffs]
            f = IwasawaElement(p, n, tuple(coeffs))
            w = weierstrass_prep(f)
            assert reconstruct(w, d).coeffs == f.coeffs
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 200
    assert elapsed < 5.0, f"too slow: {elapsed:.2f}s"
    report(1, f"200 exact reconstructions (p=5,7; N=6; D=40) in {elapsed:.2f}s")


@lru_cache(maxsize=1)
def _local_factor_corpus():
    rng = seeded(102)
    psis = {5: characters_with_order_dividing(4, 16, coprime_to=5),
            7: characters_with_order_dividing(6, 16, coprime_to=7)}
    corpus = []
    for p, qs, count in ((5, (2, 3, 7, 11, 13), 30),
                         (7, (2, 3, 11, 13), 24)):
        for i in range(count):
            q = qs[i % len(qs)]
            k = rng.choice([2, 4, 6])
            a = rng.randint(1, 60)
            while a % p == 0:
                a += 1
            eps = rng.choice([1, -1, 1, -1] if p == 7
                             else [1, -1, CycNumber.zeta(4)])
            psi = rng.choice(psis[p])
            t = rng.choice([0, 2, 4])
            data = SatakeData(q, "unramified", a, eps, k)
            factor = symsq_factor(data)
            lifted = euler_to_lambda(factor, psi, t, p, 5, 16)
            corpus.append((p, q, k, a, psi, t, factor, lifted))
    return corpus


def test_criterion_02_local_factor_identity():
    start = time.perf_counter()
    corpus = _local_factor_corpus()
    assert len(corpus) >= 50
    checks = 0
    for p, q, k, a, psi, t, factor, lifted in corpus:
        eta1_q = teichmuller(q, p, 5)
        for n in range(1, k, 2):
            left = specialize(lifted, n)
            x = inv(PAdicInt(p, 5, q))**n
            chi = cyc_embed_padic(psi(q), p, 5) * eta1_q**(t + n - 1)
            right = evaluate_factor_padic(factor, CycNumber.one(), chi * x)
            assert left == right, (p, q, k, a, t, n)
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"too slow: {elapsed:.2f}s"
    report(2, f"{len(corpus)} tuples, {checks} exact specializations "
              f"mod p^5 in {elapsed:.2f}s")


def test_criterion_03_mu_vanishes_on_corpus():
    corpus = _local_factor_corpus()
    for p, q, k, a, psi, t, factor, lifted in corpus:
        mu, _ = invariants(lifted)
        assert mu == 0, (p, q, k, a, t)
    report(3, f"mu = 0 for all {len(corpus)} Lambda-lifts in the corpus")


def test_criterion_04_invariant_additivity():
    rng = seeded(104)
    for trial in range(50):
        p = rng.choice([5, 7])
        n, d = 6, 40
        lam0 = rng.randint(0, 4)
        coeffs = [p * rng.randrange(p**(n - 1)) for _ in range(lam0)]
        coeffs.append(rng.randrange(p**n) * p + rng.randrange(1, p))
        coeffs += [rng.randrange(p**n) for _ in range(d - lam0)]
        mu0 = rng.choice([0, 0, 1])
        lfun = IwasawaElement(p, n, tuple(c * p**mu0 for c in coeffs))
        qs = rng.sample([q for q in (2, 3, 7, 11, 13, 17) if q != p],
                        rng.randint(0, 4))
        lifts = []
        for q in qs:
            a = rng.randint(1, 40)
            while a % p == 0:
                a += 1
            data = SatakeData(q, "unramified", a, rng.choice([1, -1]),
                              rng.choice([2, 4, 6]))
            lifts.append(euler_to_lambda(symsq_factor(data),
                                         trivial_character(1), 0, p, n, d))
        sigma = 0
        for lifted in lifts:
            mu_q, lam_q = invariants(lifted)
            assert mu_q == 0
            sigma += lam_q
        mu_l, lam_l = invariants(lfun)
        out = reduce(mul, lifts, lfun)
        mu_o, lam_o = invariants(out)
        assert mu_o == mu_l, (trial, mu_o, mu_l)
        assert lam_o == lam_l + sigma, (trial, lam_o, lam_l, sigma)
    report(4, "lambda additivity and mu stability on 50 random assemblies")


def test_criterion_05_congruence_transfer():
    rng = seeded(105)
    verified = 0
    for trial in range(50):
        p = rng.choice([5, 7])
        n, d = 4, 16
        qs = rng.sample([q for q in (2, 3, 7, 11, 13, 17) if q != p],
                        rng.randint(1, 4))
        psi = trivial_character(1)
        t = rng.choice([0, 2])
        lifts1, lifts2 = [], []
        for q in qs:
            k = rng.choice([2, 4])
            eps = rng.choice([1, -1])
            a1 = rng.randint(1, 50)
            a2 = a1 + p * rng.randint(-4, 4)
            data1 = SatakeData(q, "unramified", a1, eps, k)
            data2 = SatakeData(q, "unramified", a2 if a2 else a1 + p, eps, k)
            lifts1.append(euler_to_lambda(symsq_factor(data1),
                                          psi, t, p, n, d))
            lifts2.append(euler_to_lambda(symsq_factor(data2),
                                          psi, t, p, n, d))
        one = IwasawaElement.one(p, n, d)
        f = reduce(mul, lifts1, one)
        g = reduce(mul, lifts2, one)
        verdict = congruent_mod_p(f, g)
        assert verdict.congruent and verdict.unit == 1, trial
        out = congruence_transfer_check(f, g)
        assert out["congruent"]
        assert out["mu_f"] == 0
        assert out["conclusion"] == "transfer_verified", (trial, out)
        verified += 1
    report(5, f"{verified} congruent corpus pairs with equal lambda")


def test_criterion_06_tau_annihilation():
    rng = seeded(106)
    trunc = 500
    for trial in range(50):
        q = rng.choice([2, 3, 5, 7, 11])
        coeffs = [rng.randint(-50, 50) for _ in range(trunc + 1)]
        from symsq.qexp import QExpansion
        h_un = QExpansion(rng.choice([2, 4]), q + 1, trivial_character(1),
                          tuple(coeffs), "int")
        assert hecke_U(tau(h_un, q, "unramified"), q).is_zero(), trial
        h_or = QExpansion(rng.choice([2, 4]), q * (q + 1),
                          trivial_character(1), tuple(coeffs), "int")
        assert hecke_U(tau(h_or, q, "ordinary"), q).is_zero(), trial
    report(6, "U_q annihilates tau images: 100 random expansions, "
              "both modes, truncation 500")


def test_criterion_07_p_stabilization():
    rng = seeded(107)
    # frozen brute-force anchor: alpha for (p, a, c) = (5, 1, 5) mod 25
    roots = [x for x in range(25)
             if (x * x - x + 5) % 25 == 0 and x % 5 == 1]
    assert roots == [21]
    from symsq.padic import hensel_unit_root
    assert hensel_unit_root(PAdicInt(5, 2, 1), PAdicInt(5, 2, 5)).residue == 21

    for trial in range(20):
        p = 5 if trial < 15 else 7
        k = rng.choice([2, 4])
        ap = random_eigen_map(rng, PRIMES_TO_200, p)
        g0 = expansion_from_eigenvalues(k, 1, trivial_character(1), ap, 200)
        g = p_stabilize(g0, ap[p], 1, p, 4)
        alpha = hensel_unit_root(PAdicInt(p, 4, ap[p]),
                                 PAdicInt(p, 4, p**(k - 1)))
        left = hecke_U(g, p)
        right = g.scale(alpha)
        assert left.trunc == 200 // p
        assert coeffs_agree(left, right), trial
    report(7, "U_p eigen-relation mod p^4 on truncation 200 for 20 "
              "stabilized forms; alpha(1,5) = 21 against brute force")


def test_criterion_08_gauss_norms():
    start = time.perf_counter()
    count = 0
    for chi in primitive_characters(40):
        c = chi.modulus
        assert gauss_sum(chi) * gauss_sum(chi.conjugate()) == chi(-1) * c, c
        count += 1
    elapsed = time.perf_counter() - start
    report(8, f"G(chi) G(chi-bar) = chi(-1) c for all {count} primitive "
              f"characters with conductor <= 40 in {elapsed:.2f}s")


def test_criterion_09_kubota_leopoldt_integrality():
    start = time.perf_counter()
    values = {}
    checked = 0
    for p in (5, 7):
        for chi in primitive_characters(40):
            c = chi.modulus
            if c == 1 or _is_prime_power_of(c, p):
                continue
            if chi.order % p == 0:
                continue   # ramified value field: denominators are not v_p
            sign = 1 if chi.is_even() else -1
            for m in range(1, 11):
                if (-1)**m != sign:
                    continue
                key = (chi.modulus, chi.exponents, m)
                if key not in values:
                    values[key] = l_neg(chi, m)
                assert values[key].denominator_lcm() % p != 0, (p, c, m)
                checked += 1
    elapsed = time.perf_counter() - start
    report(9, f"v_p(L(1-m, chi)) >= 0 for {checked} (p, chi, m) triples "
              f"in {elapsed:.2f}s")


def _is_prime_power_of(c, p):
    while c % p == 0:
        c //= p
    return c == 1


def test_criterion_10_complex_sanity():
    rng = seeded(110)
    primes = [q for q in range(2, 20001)
              if all(q % d for d in range(2, int(q**0.5) + 1))]
    worst = 0.0
    for corpus_idx in range(5):
        k = 2
        data = []
        for q in primes:
            r = rng.random()
            if r < 0.01 and q < 50:
                data.append(SatakeData(q, "depleted", 0, 0, k))
            elif r < 0.02 and q < 50:
                data.append(SatakeData(q, "ordinary", rng.randint(1, 3), 0, k))
            else:
                bound = max(1, int(2 * q**((k - 1) / 2)))
                a = rng.randint(-bound, bound)
                data.append(SatakeData(q, "unramified", a, 1, k))
        s = k + 2
        v1 = df_complex(data, trivial_character(1), s, 10**4)
        v2 = df_complex(data, trivial_character(1), s, 2 * 10**4)
        rel = abs(v2 - v1) / abs(v2)
        worst = max(worst, rel)
        assert rel < 1e-6, (corpus_idx, rel)

    for _ in range(50):
        q = rng.choice([2, 3, 5, 7, 11])
        k = rng.choice([2, 3, 4])
        a = rng.randint(-10, 10)
        eps = rng.choice([1, -1])
        mine = symsq_factor(SatakeData(q, "unramified", a, eps, k))
        alpha, beta = np.roots([1, -a, eps * q**(k - 1)])
        roots = [alpha * beta, alpha**2, beta**2]
        e1 = sum(roots)
        e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        e3 = roots[0] * roots[1] * roots[2]
        for got, want in zip(mine.coeffs, (1, -e1, e2, -e3)):
            assert abs(complex(got) - want) / max(1.0, abs(want)) < 1e-9
    report(10, f"Euler product truncation stable to {worst:.2e} relative "
               f"(< 1e-6); symsq factors match numeric roots to 1e-9")
