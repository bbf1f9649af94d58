from fractions import Fraction

import pytest

from symsq.cyclotomic import (CycNumber, cyc_embed_padic, cyc_mul,
                              cyclotomic_poly, default_primitive_root, dlog,
                              embedding_root, euler_phi, exact_json,
                              parse_exact, parse_rational)
from symsq.errors import NotEmbeddable, OrderMismatch
from symsq.padic import from_rational

from conftest import oracle_cyc_mul, oracle_cyclotomic, seeded


def test_cyclotomic_polynomials_match_oracle():
    for n in list(range(1, 25)) + [36, 40, 60]:
        assert [Fraction(c) for c in cyclotomic_poly(n)] == oracle_cyclotomic(n)


def test_phi12_known_value():
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_mul_examples():
    z3 = CycNumber.zeta(3)
    assert cyc_mul(z3, z3).coeffs == (Fraction(-1), Fraction(-1))
    z4 = CycNumber.zeta(4)
    assert cyc_mul(z4, z4).coeffs == (Fraction(-1), Fraction(0))
    u = CycNumber(3, (Fraction(1), Fraction(2)))   # 1 + 2 zeta_3
    assert cyc_mul(u, u) == -3


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatch):
        cyc_mul(CycNumber.zeta(3), CycNumber.zeta(4))


def test_mul_against_oracle():
    rng = seeded(10)
    for _ in range(100):
        n = rng.randint(1, 24)
        d = euler_phi(n)
        u = CycNumber(n, tuple(Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 5)) for _ in range(d)))
        v = CycNumber(n, tuple(Fraction(rng.randint(-9, 9),
                                        rng.randint(1, 5)) for _ in range(d)))
        assert cyc_mul(u, v).coeffs == oracle_cyc_mul(u, v)


def test_promotion_preserves_value():
    rng = seeded(11)
    for _ in range(50):
        n = rng.choice([1, 2, 3, 4, 6, 8, 12])
        m = n * rng.choice([1, 2, 3])
        u = CycNumber(n, tuple(Fraction(rng.randint(-5, 5))
                               for _ in range(euler_phi(n))))
        promoted = u.promote(m)
        assert abs(promoted.to_complex() - u.to_complex()) < 1e-9
        assert promoted == u


def test_conjugate_and_galois():
    z5 = CycNumber.zeta(5)
    assert z5.conjugate() == CycNumber.zeta(5, 4)
    assert z5.galois(2) == CycNumber.zeta(5, 2)
    assert abs(z5.to_complex() * z5.conjugate().to_complex() - 1) < 1e-12
    with pytest.raises(ValueError):
        z5.galois(5)


def test_rational_detection():
    x = CycNumber.from_rational(Fraction(3, 4), 12)
    assert x.is_rational() and x.as_rational() == Fraction(3, 4)
    assert not CycNumber.zeta(12).is_rational()


def test_embed_examples():
    assert cyc_embed_padic(CycNumber.from_rational(7), 5, 2).residue == 7
    assert cyc_embed_padic(CycNumber.zeta(4), 5, 2).residue == 7
    with pytest.raises(NotEmbeddable):
        cyc_embed_padic(CycNumber.zeta(3), 5, 2)
    with pytest.raises(NotEmbeddable):
        cyc_embed_padic(CycNumber.from_rational(Fraction(1, 5)), 5, 3)


def test_embed_is_multiplicative():
    rng = seeded(12)
    for _ in range(100):
        p = rng.choice([5, 7, 13])
        n = rng.choice([d for d in (1, 2, 3, 4, 6, 12) if (p - 1) % d == 0])
        d = euler_phi(n)
        u = CycNumber(n, tuple(Fraction(rng.randint(-9, 9)) for _ in range(d)))
        v = CycNumber(n, tuple(Fraction(rng.randint(-9, 9)) for _ in range(d)))
        prec = rng.randint(1, 6)
        eu = cyc_embed_padic(u, p, prec)
        ev = cyc_embed_padic(v, p, prec)
        assert cyc_embed_padic(u * v, p, prec) == eu * ev


def test_embed_sends_zeta_to_root_of_unity():
    for p in (5, 7, 13):
        for n in (1, 2, 4):
            if (p - 1) % n:
                continue
            z = cyc_embed_padic(CycNumber.zeta(n), p, 5)
            assert (z**n).residue == 1


def test_default_primitive_roots():
    assert default_primitive_root(5) == 2
    assert default_primitive_root(7) == 3
    assert default_primitive_root(13) == 2


def test_euler_phi_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 5001):
        assert euler_phi(n) == sympy.totient(n), n


class TestEmbeddingRoot:
    def test_none_is_the_smallest_primitive_root(self):
        for p in (5, 7, 11, 13):
            assert embedding_root(p, None) == default_primitive_root(p)

    def test_reduced_mod_p(self):
        assert embedding_root(5, 8) == embedding_root(5, 3) == 3
        assert embedding_root(5, -3) == 2

    def test_non_primitive_roots_are_refused(self):
        for p in (5, 7, 11, 13):
            for g in range(p + 1):
                if len({pow(g, x, p) for x in range(p - 1)}) == p - 1:
                    continue
                with pytest.raises(NotEmbeddable):
                    embedding_root(p, g)
                with pytest.raises(NotEmbeddable):
                    cyc_embed_padic(CycNumber.one(), p, 3, primitive_root=g)

    def test_dlog_inverts_powers(self):
        for p in (5, 7, 11, 13):
            for root in [None] + [g for g in range(2, p)
                                  if len({pow(g, x, p)
                                          for x in range(p - 1)}) == p - 1]:
                g = embedding_root(p, root)
                for x in range(p - 1):
                    assert dlog(pow(g, x, p), p, root) == x
        with pytest.raises(ValueError):
            dlog(10, 5)


def test_embed_accepts_rationals():
    for x in (0, 3, -7, Fraction(2, 3), Fraction(-11, 4)):
        assert cyc_embed_padic(x, 5, 4) == from_rational(x, 5, 4)
        assert cyc_embed_padic(x, 5, 4) == cyc_embed_padic(
            CycNumber.from_rational(x), 5, 4)
    with pytest.raises(NotEmbeddable):
        cyc_embed_padic(Fraction(1, 5), 5, 4)


def test_exact_json_roundtrip():
    u = CycNumber(4, (Fraction(1, 2), Fraction(-3)))
    for x in (0, -5, Fraction(7, 3), u):
        assert parse_exact(exact_json(x)) == x
    assert exact_json(Fraction(7, 3)) == "7/3"
    assert exact_json(u) == u.to_json()
    assert type(parse_rational("6/3")) is int
    assert parse_rational(4) == 4
    with pytest.raises(ValueError):
        parse_rational("zeta")


def test_serialization_roundtrip():
    u = CycNumber(8, (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 11)))
    assert CycNumber.from_json(u.to_json()) == u
