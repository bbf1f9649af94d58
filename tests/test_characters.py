import hashlib
import json
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from symsq.characters import (MAX_MODULUS, DirichletCharacter, _dlog_table,
                              bernoulli_number, characters_mod, gauss_sum, gen_bernoulli,
                              is_residually_trivial, l_neg, trivial_character,
                              unit_group_structure)
from symsq.cyclotomic import CycNumber, cyc_embed_padic, euler_phi, exact_json
from symsq.errors import SchemaError
from symsq.padic import teichmuller

from conftest import (oracle_bernoulli_numbers, oracle_gauss_sum,
                      oracle_gen_bernoulli, primitive_characters, seeded)


def quadratic_mod_p(p):
    return next(c for c in characters_mod(p) if c.order == 2)


class TestEvaluation:
    def test_quadratic_mod_5(self):
        chi = quadratic_mod_p(5)
        assert chi(2) == -1
        assert chi(4) == 1

    def test_value_at_one(self):
        for m in (1, 4, 12, 40):
            for chi in characters_mod(m):
                assert chi(1) == 1

    def test_gcd_gives_zero(self):
        chi = next(iter(characters_mod(4)))
        assert chi(2).is_zero()

    def test_multiplicative(self):
        rng = seeded(20)
        for m in (5, 8, 15, 21, 36):
            for chi in characters_mod(m):
                for _ in range(5):
                    a, b = rng.randint(1, 100), rng.randint(1, 100)
                    if gcd(a * b, m) != 1:
                        continue
                    assert chi(a * b) == chi(a) * chi(b)

    def test_trivial_character_builds_no_dlog_table(self):
        # the trivial character used to fill a discrete-log table of
        # phi(m) entries to return 1; 99989 is prime and used nowhere else
        before = _dlog_table.cache_info().currsize
        chi = trivial_character(99989)
        assert chi(2) == 1 and chi(-1) == 1 and chi.is_even()
        assert chi(3 * 99989).is_zero()
        assert _dlog_table.cache_info().currsize == before

    def test_characters_mod_order_is_pinned(self):
        # the bench corpora pick characters by position in this list
        for m in range(1, 201):
            exps = [chi.exponents for chi in characters_mod(m)]
            assert exps == sorted(exps, key=lambda e: e[::-1]), m
            assert len(set(exps)) == len(exps) == euler_phi(m), m

    def test_dlog_table_inverts_the_generators(self):
        for m in range(1, 201):
            gens = [g for g, _ in unit_group_structure(m)]
            table = _dlog_table(m)
            assert sorted(table) == [a for a in range(m) if gcd(a, m) == 1]
            for a, xs in table.items():
                assert prod(pow(g, x, m) for g, x in zip(gens, xs)) % m == a

    def test_exponent_row_is_value_exponent_at_every_residue(self):
        # the row gauss_sum and gen_bernoulli read, None off the units
        for m in range(1, 201):
            for chi in characters_mod(m):
                assert chi._exponent_row() == [chi.value_exponent(a)
                                               for a in range(m)], chi

    def test_parity_is_sign_at_minus_one(self):
        for m in (3, 4, 5, 8, 12):
            for chi in characters_mod(m):
                v = chi(-1)
                assert v == 1 if chi.is_even() else v == -1


    def test_cached_order_against_the_lcm_formula(self):
        # order is computed once per character and then read from the
        # instance: the lcm of d_i / gcd(d_i, k_i) over the generators,
        # which is the least n with chi^n trivial
        for m in range(1, 41):
            orders = [d for _, d in unit_group_structure(m)]
            for chi in characters_mod(m):
                want = lcm(1, *(d // gcd(d, k)
                                for d, k in zip(orders, chi.exponents)))
                assert chi.order == want == chi.order, (m, chi)
                assert "order" in vars(chi)
                assert (chi**want).is_trivial()
                assert not any((chi**n).is_trivial() for n in range(1, want))
                assert DirichletCharacter(m, chi.exponents).order == want


class TestConductor:
    def test_examples(self):
        assert trivial_character(12).conductor == 1
        # quadratic mod 8 induced from mod 4: chi(-1 part) = -1, chi(5) = 1
        chi8 = DirichletCharacter(8, (1, 0))
        assert chi8.conductor == 4
        assert quadratic_mod_p(5).conductor == 5

    def test_oracle_pairwise_definition(self):
        # smallest d such that a == b mod d forces chi(a) == chi(b)
        def oracle(chi):
            m = chi.modulus
            units = [a for a in range(1, m + 1) if gcd(a, m) == 1]
            for d in sorted(k for k in range(1, m + 1) if m % k == 0):
                if all(chi(a) == chi(b) for a in units for b in units
                       if (a - b) % d == 0):
                    return d
            return m
        for m in (8, 9, 12, 15, 16, 21):
            for chi in characters_mod(m):
                assert chi.conductor == oracle(chi)

    def test_primitivize_keeps_values(self):
        for m in (12, 16, 45):
            for chi in characters_mod(m):
                prim = chi.primitivize()
                assert prim.modulus == chi.conductor
                for a in range(1, 60):
                    if gcd(a, m) == 1:
                        assert prim(a) == chi(a)

    def test_restrict_to_keeps_values_or_refuses(self):
        chi = DirichletCharacter(12, (1, 1))      # primitive mod 12
        assert chi.conductor == 12
        # 4 divides 12 but chi does not factor through it; 5 and 7 do
        # not divide 12; 24 is a multiple, which is lift_to's job
        for c in (4, 5, 7, 24):
            with pytest.raises(ValueError):
                chi.restrict_to(c)
        for m in (12, 24, 45):
            for chi in characters_mod(m):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    if not chi.factors_through(d):
                        with pytest.raises(ValueError):
                            chi.restrict_to(d)
                        continue
                    small = chi.restrict_to(d)
                    assert small.modulus == d
                    for a in range(1, m):
                        if gcd(a, m) == 1:
                            assert small(a) == chi(a), (chi, d, a)


class TestGaussSums:
    def test_trivial_convention(self):
        assert gauss_sum(trivial_character(1)) == 1
        assert gauss_sum(trivial_character(12)) == 1

    def test_mod_3(self):
        g = gauss_sum(quadratic_mod_p(3))
        assert g == CycNumber(3, (Fraction(1), Fraction(2)))   # 1 + 2 zeta_3
        assert g * g == -3

    def test_mod_5(self):
        g = gauss_sum(quadratic_mod_p(5))
        assert g * g == 5

    def test_norm_identity_spot(self):
        for chi in primitive_characters(20):
            c = chi.modulus
            lhs = gauss_sum(chi) * gauss_sum(chi.conjugate())
            assert lhs == chi(-1) * c, (c, chi.exponents)


class TestBernoulli:
    def test_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_gen_examples(self):
        assert gen_bernoulli(trivial_character(1), 2) == Fraction(1, 6)
        chi4 = next(c for c in characters_mod(4) if not c.is_trivial())
        assert gen_bernoulli(chi4, 1) == Fraction(-1, 2)
        even = quadratic_mod_p(5)
        assert gen_bernoulli(even, 3).is_zero()

    def test_parity_vanishing(self):
        for chi in primitive_characters(15):
            for m in range(1, 7):
                if (m, chi.modulus) == (1, 1):
                    continue
                if (chi.is_even() and m % 2 == 1) or \
                        (chi.is_odd() and m % 2 == 0):
                    assert gen_bernoulli(chi, m).is_zero(), (chi, m)

    def test_l_neg(self):
        assert l_neg(trivial_character(1), 2) == Fraction(-1, 12)
        chi4 = next(c for c in characters_mod(4) if not c.is_trivial())
        assert l_neg(chi4, 1) == Fraction(1, 2)
        assert l_neg(quadratic_mod_p(5), 3).is_zero()

    def test_riemann_zeta_values(self):
        one = trivial_character(1)
        assert l_neg(one, 1) == Fraction(-1, 2)       # zeta(0)
        assert l_neg(one, 4) == Fraction(1, 120)      # zeta(-3)


class TestAgainstOracles:
    """Differential checks of the integer-native Gauss sums and B_{m,chi}
    against the per-residue oracles in conftest."""

    def test_gauss_sum(self):
        for chi in primitive_characters(24) + list(characters_mod(20)):
            got, want = gauss_sum(chi), oracle_gauss_sum(chi)
            assert (got.order, got.coeffs) == (want.order, want.coeffs), chi

    def test_gen_bernoulli_and_l_neg(self):
        chi37 = next(c for c in characters_mod(37) if c.order == 36)
        cases = [(chi, m) for chi in primitive_characters(24)
                 for m in range(1, 11)]
        cases += [(chi, m) for chi in characters_mod(20) for m in (1, 2, 3)]
        cases += [(chi37, m) for m in (1, 9, 29)]
        for chi, m in cases:
            want = oracle_gen_bernoulli(chi, m)
            got = gen_bernoulli(chi, m)
            assert (got.order, got.coeffs) == (want.order, want.coeffs), \
                (chi, m)
            assert l_neg(chi, m).coeffs == \
                (want * Fraction(-1, m)).coeffs, (chi, m)

    def test_bernoulli_numbers(self):
        assert tuple(bernoulli_number(j) for j in range(31)) == \
            oracle_bernoulli_numbers(30)


def test_table_bytes_are_pinned():
    # exact_json of G(chi), G(chi)G(chi-bar) and L(1-m, chi) for m <= 10
    # on the primitive characters of conductor <= 40, in characters_mod
    # order, hashed; the digest was recorded when every reduction mod
    # Phi_n went row by row
    chis = primitive_characters(40)
    assert len(chis) == 285
    digest = hashlib.sha256()
    for chi in chis:
        g = gauss_sum(chi)
        row = [exact_json(g), exact_json(g * gauss_sum(chi.conjugate())),
               *(exact_json(l_neg(chi, m)) for m in range(1, 11))]
        digest.update(json.dumps(row, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "8c289fe30368bd7edd08a05261cc799ff105278c52903dba0df988b63a14a4c7")


class TestAgainstSympy:
    """Real characters against sympy's Bernoulli polynomials.  sympy 1.14
    takes B_1 = +1/2 where symsq takes -1/2; the polynomials B_m(x)
    agree."""

    def test_real_characters(self):
        sympy = pytest.importorskip("sympy")
        assert sympy.bernoulli(1) == -bernoulli_number(1)
        x = sympy.Symbol("x")
        polys = {m: sympy.Poly(sympy.bernoulli(m, x), x) for m in range(1, 11)}
        for chi in primitive_characters(24):
            if chi.order > 2:
                continue
            c = chi.modulus
            for m, poly in polys.items():
                want = sympy.Integer(c)**(m - 1) * sum(
                    int(chi(a).as_rational()) * poly.eval(sympy.Rational(a, c))
                    for a in range(1, c + 1))
                got = gen_bernoulli(chi, m).as_rational()
                assert (got.numerator, got.denominator) == (
                    want.p, want.q), (chi, m)


class TestTeichmullerCharacter:
    """The convention that pins an embedding: along each primitive root,
    exactly one character mod p has values that embed to teichmuller()."""

    @staticmethod
    def lifts(p, root=None):
        return [chi for chi in characters_mod(p)
                if all(cyc_embed_padic(chi(a), p, 4, root) == teichmuller(a, p, 4)
                       for a in range(1, p))]

    def test_embeds_to_teichmuller_lift(self):
        for p in (5, 7, 11, 13):
            eta1, = self.lifts(p)
            assert eta1.order == p - 1 and eta1.conductor == p

    def test_respects_primitive_root_override(self):
        # one character per root, a different one for each root, and the
        # default root's own when the root is the smallest one
        for p in (5, 7, 11, 13):
            roots = [g for g in range(2, p)
                     if len({pow(g, x, p) for x in range(p - 1)}) == p - 1]
            found = {}
            for root in roots:
                (found[root],) = self.lifts(p, root)
            assert len(set(found.values())) == len(roots), p
            assert self.lifts(p) == [found[roots[0]]]


class TestStructure:
    def test_two_adic_structure(self):
        assert unit_group_structure(8) == ((7, 2), (5, 2))
        assert unit_group_structure(4) == ((3, 2),)
        assert unit_group_structure(2) == ()

    def test_counts(self):
        for m in (1, 2, 3, 8, 12, 36, 40):
            chars = list(characters_mod(m))
            expected = 1
            for _, d in unit_group_structure(m):
                expected *= d
            assert len(chars) == expected

    def test_residual_triviality(self):
        assert is_residually_trivial(trivial_character(1), 5)
        eta_w = next(c for c in characters_mod(25) if c.order == 5)
        assert is_residually_trivial(eta_w, 5)
        assert not is_residually_trivial(quadratic_mod_p(5), 5)


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        for m in (1, 5, 8, 40):
            for chi in characters_mod(m):
                rec = chi.to_json()
                back = DirichletCharacter.from_json(rec)
                assert back == chi
                assert back.to_json() == rec

    def test_rejects_foreign_generators(self):
        rec = {"modulus": 5, "images": [[3, 1]]}
        with pytest.raises(SchemaError):
            DirichletCharacter.from_json(rec)

    def test_rejects_modulus_below_one(self):
        # modulus 0 used to pass and divide by zero at the first value
        for m in (0, -7):
            with pytest.raises(SchemaError, match="modulus"):
                DirichletCharacter.from_json({"modulus": m, "images": []})

    def test_modulus_bound(self):
        # the largest modulus a record may name decodes; one more is
        # refused before it is factored
        top = trivial_character(MAX_MODULUS).to_json()
        assert DirichletCharacter.from_json(top).modulus == MAX_MODULUS
        with pytest.raises(SchemaError, match="modulus"):
            DirichletCharacter.from_json({"modulus": MAX_MODULUS + 1,
                                          "images": []})
