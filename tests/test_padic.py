import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq.errors import NotAUnit, NotOrdinary, PrecisionLoss
from symsq.padic import (MAX_PRIME_TEST, PAdicInt, factorize, from_rational,
                         hensel_unit_root, int_valuation, inv, is_prime,
                         padic_log1p, teichmuller)

from conftest import pow_per_term_log1p, seeded


class TestVal:
    def test_examples(self):
        assert PAdicInt(5, 3, 50).val() == 2
        assert PAdicInt(5, 3, 1).val() == 0
        assert PAdicInt(5, 3, 0).val() is None

    def test_additive_when_determined(self):
        rng = seeded(1)
        for _ in range(200):
            p = rng.choice([5, 7, 11])
            n = rng.randint(2, 8)
            x = PAdicInt(p, n, rng.randrange(1, p**n))
            y = PAdicInt(p, n, rng.randrange(1, p**n))
            vx, vy = x.val(), y.val()
            if vx is None or vy is None:
                continue
            if vx + vy < n:
                assert (x * y).val() == vx + vy


class TestInv:
    def test_examples(self):
        assert inv(PAdicInt(5, 2, 9)) == PAdicInt(5, 2, 14)
        assert inv(PAdicInt(5, 2, 1)) == PAdicInt(5, 2, 1)
        with pytest.raises(NotAUnit):
            inv(PAdicInt(5, 2, 10))

    def test_inverse_property(self):
        rng = seeded(2)
        for _ in range(100):
            p = rng.choice([5, 7])
            n = rng.randint(1, 6)
            x = PAdicInt(p, n, rng.randrange(p**n))
            if not x.is_unit():
                continue
            assert (x * inv(x)).residue == 1


class TestTeichmuller:
    def test_examples(self):
        assert teichmuller(1, 5, 3).residue == 1
        assert teichmuller(2, 5, 3).residue == 57
        assert teichmuller(4, 5, 2).residue == 24
        with pytest.raises(NotAUnit):
            teichmuller(10, 5, 3)

    def test_against_power_oracle(self):
        # omega(a) == a^(p^(N-1)) mod p^N
        rng = seeded(3)
        for _ in range(100):
            p = rng.choice([5, 7, 11])
            n = rng.randint(1, 6)
            a = rng.randrange(1, p**n)
            if a % p == 0:
                continue
            assert teichmuller(a, p, n).residue == pow(a, p**(n - 1), p**n)

    def test_root_of_unity_and_multiplicative(self):
        rng = seeded(4)
        for _ in range(100):
            p = rng.choice([5, 7])
            n = rng.randint(1, 6)
            a, b = rng.randrange(1, 10 * p), rng.randrange(1, 10 * p)
            if a % p == 0 or b % p == 0:
                continue
            ta, tb = teichmuller(a, p, n), teichmuller(b, p, n)
            assert (ta**(p - 1)).residue == 1
            assert teichmuller(a * b, p, n) == ta * tb


def oracle_log1p(x: PAdicInt) -> PAdicInt:
    """Exact Fraction summation of the alternating series, then reduce."""
    terms = x.prec + 8
    total = Fraction(0)
    for n in range(1, terms + 1):
        total += Fraction((-1)**(n + 1) * x.residue**n, n)
    return from_rational(total, x.p, x.prec)


class TestLog:
    def test_zero(self):
        assert padic_log1p(PAdicInt(5, 3, 0)).residue == 0

    def test_frozen_value(self):
        # oracle (exact series at higher precision, reduced): 5, not 15
        assert oracle_log1p(PAdicInt(5, 4, 5)).residue % 25 == 5
        assert padic_log1p(PAdicInt(5, 2, 5)).residue == 5

    def test_homomorphism_example(self):
        # (1+5)(1+5) - 1 = 35
        two_logs = padic_log1p(PAdicInt(5, 2, 5)) * 2
        assert padic_log1p(PAdicInt(5, 2, 35)) == two_logs

    def test_against_oracle(self):
        rng = seeded(5)
        for _ in range(60):
            p = rng.choice([5, 7])
            n = rng.randint(2, 7)
            x = PAdicInt(p, n, p * rng.randrange(p**(n - 1)))
            assert padic_log1p(x) == oracle_log1p(x)

    def test_against_pow_per_term_oracle(self):
        # the running power r^n must keep the guard digits that the
        # division by p^v_p(n) spends, up to precision 90
        rng = seeded(7)
        for _ in range(200):
            p = rng.choice([5, 7, 11, 13])
            n = rng.randint(1, 90)
            v = rng.choice([1, 1, 1, 2])
            r = p**v * rng.randrange(p**n) % p**n
            assert padic_log1p(PAdicInt(p, n, r)).residue == \
                pow_per_term_log1p(r, p, n)

    def test_homomorphism_random(self):
        rng = seeded(6)
        for _ in range(60):
            p = rng.choice([5, 7])
            n = rng.randint(2, 6)
            x = PAdicInt(p, n, p * rng.randrange(p**(n - 1)))
            y = PAdicInt(p, n, p * rng.randrange(p**(n - 1)))
            z = x + y + x * y          # (1+x)(1+y) - 1
            assert padic_log1p(z) == padic_log1p(x) + padic_log1p(y)

    def test_rejects_units(self):
        with pytest.raises(ValueError):
            padic_log1p(PAdicInt(5, 3, 2))


class TestHensel:
    def test_examples(self):
        assert hensel_unit_root(PAdicInt(5, 2, 1), PAdicInt(5, 2, 5)).residue == 21
        assert hensel_unit_root(PAdicInt(5, 1, 2), PAdicInt(5, 1, 0)).residue == 2
        with pytest.raises(NotOrdinary):
            hensel_unit_root(PAdicInt(5, 2, 5), PAdicInt(5, 2, 5))

    def test_brute_force_oracle(self):
        # exhaustive search at small precision
        for p, n, a, c in [(5, 2, 1, 5), (5, 3, 3, 10), (7, 2, 2, 7),
                           (7, 2, 5, 21), (11, 2, 4, 11)]:
            roots = [x for x in range(p**n)
                     if (x * x - a * x + c) % p**n == 0 and x % p == a % p]
            got = hensel_unit_root(PAdicInt(p, n, a), PAdicInt(p, n, c))
            assert got.residue in roots and len(roots) == 1

    def test_random_ordinary(self):
        rng = seeded(7)
        for _ in range(100):
            p = rng.choice([5, 7, 11])
            n = rng.randint(1, 8)
            a = rng.randrange(1, p**n)
            if a % p == 0:
                continue
            c = p * rng.randrange(p**(n - 1))
            alpha = hensel_unit_root(PAdicInt(p, n, a), PAdicInt(p, n, c))
            assert (alpha * alpha - alpha * a + c).residue == 0
            assert alpha.val() == 0
            assert alpha.residue % p == a % p


class TestPrecisionModel:
    def test_binary_ops_take_min(self):
        x = PAdicInt(5, 4, 7)
        y = PAdicInt(5, 2, 3)
        assert (x + y).prec == 2
        assert (x * y).prec == 2
        assert (x - y).prec == 2

    def test_exact_div_p(self):
        x = PAdicInt(5, 4, 50)
        assert x.exact_div_p(2) == PAdicInt(5, 2, 2)
        with pytest.raises(ValueError):
            PAdicInt(5, 4, 7).exact_div_p(1)
        with pytest.raises(PrecisionLoss):
            PAdicInt(5, 2, 25).exact_div_p(2)

    def test_cannot_raise_precision(self):
        with pytest.raises(PrecisionLoss):
            PAdicInt(5, 2, 3).reduce(4)

    def test_from_rational(self):
        assert from_rational(Fraction(1, 2), 5, 2).residue == 13
        with pytest.raises(NotAUnit):
            from_rational(Fraction(1, 5), 5, 2)

    @given(st.integers(0, 5**4 - 1), st.integers(0, 5**4 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b):
        x, y = PAdicInt(5, 4, a), PAdicInt(5, 4, b)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * x == x * x + y * x


class TestIsPrime:
    def test_strong_pseudoprimes_against_sympy(self):
        # psi_12 passes the twelve bases 2..37, so is_prime took it for a
        # prime until base 41 was added; psi_13 passes all thirteen bases
        # and is the first n that is_prime refuses
        sympy = pytest.importorskip("sympy")
        psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
        assert psi_13 == MAX_PRIME_TEST
        assert is_prime(psi_12) is sympy.isprime(psi_12) is False
        assert not sympy.isprime(psi_13)
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(psi_13)
        assert is_prime(sympy.prevprime(psi_13))
        for n in [*range(5001), *range(psi_13 - 500, psi_13)]:
            assert is_prime(n) == sympy.isprime(n), n


    def test_table_against_sympy(self):
        # below 43^2 = 1849 is_prime answers from a table sieved at import,
        # above it by trial division and the Miller-Rabin bases
        sympy = pytest.importorskip("sympy")
        for n in range(-3, 2500):
            assert is_prime(n) is sympy.isprime(n), n
        assert not is_prime(43 * 43) and is_prime(1847) and is_prime(1861)


class TestFactorize:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(1, 5001):
            assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n


class TestEqualityAndHash:
    def test_an_int_equals_only_the_residue_itself(self):
        # 130 = 5 mod 5^3 used to equal PAdicInt(5, 3, 5) while hashing
        # apart from it, so a set of the two held two members
        x = PAdicInt(5, 3, 5)
        assert x == 5 and 5 == x
        assert x != 130 and x != -120 and x != 5 + 5**3
        assert hash(x) == hash(5)
        assert {x, 5} == {5} and len({x, 5}) == 1
        assert PAdicInt(5, 3, 0) == 0 and PAdicInt(5, 3, 0) != 5**3
        assert PAdicInt(5, 3, 1) == True      # noqa: E712 (bool is an int)

    def test_equal_values_hash_alike(self):
        for p, n in ((5, 1), (5, 3), (7, 2)):
            for r in range(p**n):
                x = PAdicInt(p, n, r)
                assert x == PAdicInt(p, n, r + p**n) == r
                assert hash(x) == hash(PAdicInt(p, n, r + p**n)) == hash(r)
        assert PAdicInt(5, 3, 5) != PAdicInt(5, 2, 5)
        assert PAdicInt(5, 3, 5) != PAdicInt(7, 3, 5)

    def test_a_non_number_is_not_equal(self):
        x = PAdicInt(5, 3, 5)
        assert x.__eq__("5") is NotImplemented
        assert x != "5" and x != [5] and x is not None


class TestOperatorEdges:
    def test_int_valuation_of_zero_is_refused(self):
        with pytest.raises(ValueError, match="valuation of 0 is undefined"):
            int_valuation(0, 5)

    def test_fraction_operands_are_coerced(self):
        x = PAdicInt(5, 3, 7)
        half = from_rational(Fraction(1, 2), 5, 3)
        assert x + Fraction(1, 2) == x + half == PAdicInt(5, 3, 70)
        assert x * Fraction(1, 2) == x * half
        assert x - Fraction(1, 2) == x - half
        with pytest.raises(NotAUnit):
            x + Fraction(1, 5)

    def test_other_operands_are_refused(self):
        x = PAdicInt(5, 3, 7)
        for dunder in (x.__add__, x.__sub__, x.__mul__):
            assert dunder("a") is NotImplemented
        for op, sym in ((lambda a: a + "a", "+"), (lambda a: a - "a", "-")):
            with pytest.raises(TypeError, match=re.escape(
                    f"unsupported operand type(s) for {sym}: "
                    f"'PAdicInt' and 'str'")):
                op(x)
        with pytest.raises(TypeError, match="can't multiply sequence by "
                           "non-int of type 'PAdicInt'"):
            x * "a"     # str's repeat is tried once PAdicInt declines
        assert x.__add__(1.5) is NotImplemented
        with pytest.raises(ValueError, match="mixed primes 5 and 7"):
            x + PAdicInt(7, 3, 1)

    def test_int_minus_padic(self):
        x = PAdicInt(5, 3, 7)
        assert 3 - x == PAdicInt(5, 3, 3 - 7) == PAdicInt(5, 3, 121)
        assert (3 - x).prec == 3

    def test_negative_power_is_the_inverse_power(self):
        x = PAdicInt(5, 4, 7)
        for k in (1, 2, 5):
            assert x**-k == inv(x)**k
            assert (x**-k * x**k).residue == 1
        with pytest.raises(NotAUnit):
            PAdicInt(5, 4, 10)**-1

    def test_exact_div_by_p_to_the_zero_is_the_value(self):
        x = PAdicInt(5, 4, 7)
        assert x.exact_div_p(0) is x

    def test_hensel_refuses_a_unit_constant(self):
        with pytest.raises(ValueError, match=r"requires v\(c\) >= 1"):
            hensel_unit_root(PAdicInt(5, 2, 1), PAdicInt(5, 2, 2))
