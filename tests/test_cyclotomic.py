import pickle
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq.cyclotomic import (MAX_EXPONENT, MAX_ORDER, _MOBIUS_STEPS,
                              CycNumber, _cyc, _cyclotomic_sparse,
                              _mobius_factors, _reduce_ints,
                              _residue_embedding, _times_phi, _zeta_image,
                              cyc_embed_padic,
                              cyclotomic_poly, default_primitive_root,
                              embedding_root, euler_phi, exact_json,
                              parse_exact, parse_rational)
from symsq.errors import NotEmbeddable, OrderMismatch
from symsq.padic import (PAdicInt, factorize, from_rational, is_prime,
                         teichmuller)

from conftest import (FractionCycNumber, _oracle_phi, _poly_divmod,
                      oracle_cyc_mul, oracle_cyclotomic, seeded,
                      smallest_primitive_root)


def test_cyclotomic_polynomials_match_oracle():
    for n in list(range(1, 25)) + [36, 40, 60]:
        assert [Fraction(c) for c in cyclotomic_poly(n)] == oracle_cyclotomic(n)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in list(range(1, 201)) + [420, 930, 1332]:
        want = sympy.cyclotomic_poly(n, polys=True).all_coeffs()
        assert cyclotomic_poly(n) == tuple(int(c) for c in reversed(want)), n


def test_phi12_known_value():
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


# every order to 200, and table orders up to five distinct primes (2310):
# both sides of the crossover to the Moebius product
_REDUCE_ORDERS = tuple(range(1, 201)) + (420, 465, 930, 1332, 2310)


def _mobius_passes(n):
    """The kinds of pass the Moebius reduction at order n makes: the
    quotient times Phi_n^-1 mod x^(n - phi), the remainder times Phi_n
    mod x^phi."""
    kinds = set()
    phi = euler_phi(n)
    for size, sign in ((n - phi, -1), (phi, 1)):
        for d, mu in _mobius_factors(n):
            kinds.add("d >= L" if d >= size else "times" if mu == sign
                      else "d = 1" if d == 1 else "d^2 <= L" if d * d <= size
                      else "d^2 > L")
    return kinds


def test_reduce_ints_matches_long_division():
    above = [n for n in _REDUCE_ORDERS if (n - euler_phi(n))
             * len(_cyclotomic_sparse(n)) > _MOBIUS_STEPS]
    assert 0 < len(above) < len(_REDUCE_ORDERS)
    assert set().union(*map(_mobius_passes, above)) == {
        "times", "d = 1", "d^2 <= L", "d^2 > L", "d >= L"}
    rng = seeded(13)
    for n in _REDUCE_ORDERS:
        phi = euler_phi(n)
        dense = [rng.randint(-10**30, 10**30) for _ in range(n)]
        gauss = [0] * n             # a Gauss sum: a few small counts
        for _ in range(rng.randint(1, n // 8 + 1)):
            gauss[rng.randrange(n)] += 1
        low = dense[:phi] + [0] * (n - phi)
        for raw in (dense, gauss, low):
            _, rem = _poly_divmod(raw, _oracle_phi(n))
            want = rem + [0] * (phi - len(rem))
            assert _reduce_ints(list(raw), n) == want[:phi], n


# every order to 200 and the tables workload's largest Gauss-sum orders
_SYMPY_ORDERS = tuple(range(1, 201)) + (330, 420, 465, 506, 666, 812, 930,
                                        1332)


def test_reduce_ints_matches_sympy_rem(monkeypatch):
    """Against sympy 1.14's dense remainder by Phi_n over ZZ, on dense,
    sparse and signed vectors, and on one vector at most _MOBIUS_STEPS
    row steps (the row loop alone) and one just over it (a smaller order
    through Phi_2m(x) = Phi_m(-x) or Phi_qm(x) = Phi_m(x^q), or at an
    odd squarefree order the Moebius product) wherever n - phi(n) leaves
    room for both."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    from symsq import cyclotomic

    orders, moebius = [], []        # the orders reduced at, and divided at

    def reduce_ints(folded, n):
        orders.append(n)
        return _reduce_ints(folded, n)

    def times_phi(s, n, sign):      # sign -1: the division, not building Phi
        if sign < 0:
            moebius.append(n)
        return _times_phi(s, n, sign)

    monkeypatch.setattr(cyclotomic, "_reduce_ints", reduce_ints)
    monkeypatch.setattr(cyclotomic, "_times_phi", times_phi)
    x, rng, paths = sympy.Symbol("x"), seeded(29), set()
    for n in _SYMPY_ORDERS:
        phi, terms = euler_phi(n), len(_cyclotomic_sparse(n))
        mod = [ZZ(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(n, x),
                                               x).all_coeffs()]
        dense = [rng.randrange(10**6) for _ in range(n)]
        sparse = [0] * n
        for _ in range(rng.randint(1, n // 8 + 1)):
            sparse[rng.randrange(n)] += rng.randint(1, 3)
        signed = [rng.randint(-10**30, 10**30) for _ in range(n)]
        raws = [(dense, None), (sparse, None), (signed, None)]
        rows = _MOBIUS_STEPS // terms + 1       # the fewest rows past it
        if n - phi >= rows:
            for k, past in ((rows - 1, False), (rows, True)):
                raw = [rng.randint(-9, 9) for _ in range(phi)]
                raw += [0] * (n - phi)
                for i in rng.sample(range(phi, n), k):
                    raw[i] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
                raws.append((raw, past))
        for raw, past in raws:
            rem = dup_rem(dup_strip([ZZ(c) for c in reversed(raw)]), mod, ZZ)
            want = [int(c) for c in reversed(rem)]
            want += [0] * (phi - len(want))
            orders.clear()
            moebius.clear()
            assert cyclotomic._reduce_ints(list(raw), n) == want, n
            smaller = orders[1:] != []
            if past is not None:
                assert (smaller or moebius != []) is past, n
            if smaller:
                paths.add("fold" if n % 4 == 2 else "slices")
            if moebius:
                paths.add("moebius")
                assert all(m % 2 and _square_free(m) for m in moebius), n
    assert paths == {"fold", "slices", "moebius"}


def _square_free(n):
    return all(e == 1 for _, e in factorize(n))


def test_mul_examples():
    z3 = CycNumber.zeta(3)
    assert (z3 * z3).coeffs == (Fraction(-1), Fraction(-1))
    z4 = CycNumber.zeta(4)
    assert (z4 * z4).coeffs == (Fraction(-1), Fraction(0))
    u = CycNumber(3, (Fraction(1), Fraction(2)))   # 1 + 2 zeta_3
    assert u * u == -3


def test_mul_order_mismatch():
    # a product promotes both operands to the lcm of their orders; an
    # explicit promotion to an order that is not a multiple is refused
    z3, z4 = CycNumber.zeta(3), CycNumber.zeta(4)
    assert (z3 * z4).order == 12
    assert z3 * z4 == CycNumber.zeta(12)**7
    with pytest.raises(OrderMismatch):
        z3.promote(4)


# orders of the Gauss-sum and L-value rows of the tables, up to 1332 =
# lcm(37, 36), where phi = 432 is the largest
_TABLE_ORDERS = (148, 333, 1332)


def test_mul_against_oracle():
    rng = seeded(10)
    cases = [(rng.randint(1, 24), rng.choice((9, 10**30))) for _ in range(100)]
    for n, top in cases + [(n, 10**30) for n in _TABLE_ORDERS]:
        d = euler_phi(n)
        u = CycNumber(n, tuple(Fraction(rng.randint(-top, top),
                                        rng.randint(1, 5)) for _ in range(d)))
        v = CycNumber(n, tuple(Fraction(rng.randint(-top, top),
                                        rng.randint(1, 5)) for _ in range(d)))
        assert (u * v).coeffs == oracle_cyc_mul(u, v), n


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


def _via_fraction(s):
    """parse_rational's general path: str(s) through Fraction, an int
    when the denominator is 1, or the exception that raises."""
    try:
        f = Fraction(str(s))
    except Exception as exc:        # the class is the answer
        return type(exc)
    return int(f) if f.denominator == 1 else f


@pytest.mark.parametrize("s", [
    "007", "-0", "-007", "+5", " 5", "5 ", "-", "", "--5", "1_000",
    "\u0661\u0662", "\u22125", "9" * 4301, "-" + "9" * 4300, "9" * 4300,
    True, False, 7, -7, 0], ids=lambda s: ascii(s)[:12])
def test_int_fast_path_agrees_with_fraction(s):
    # a JSON int and a string of ASCII digits with at most a leading '-'
    # skip Fraction; every input must read as the Fraction path reads it,
    # with the same type, or fail with the same class
    want = _via_fraction(s)
    if isinstance(want, type):
        with pytest.raises(want):
            parse_rational(s)
    else:
        got = parse_rational(s)
        assert (type(got), got) == (type(want), want)


def test_to_json_writes_integer_numerators_or_reduced_fractions():
    assert CycNumber(4, (3, -2)).to_json() == {"order": 4,
                                               "coeffs": ["3", "-2"]}
    half = CycNumber(4, (Fraction(2, 4), Fraction(1, 4)))
    assert (half.num, half.den) == ((2, 1), 4)
    assert half.to_json() == {"order": 4, "coeffs": ["1/2", "1/4"]}
    assert CycNumber.from_json(half.to_json()) == half


def test_exponent_notation_is_bounded():
    # small exponents read as before; a power of ten past the int-string
    # digit limit is refused before Fraction expands it (8 s for 1e8000000)
    assert parse_rational("1e3") == 1000
    assert parse_rational("-25e-2") == Fraction(-1, 4)
    assert parse_rational("15E-1") == Fraction(3, 2)
    assert parse_rational("1e4299") == 10**4299
    for text in ("1e4300", "1e8000000", "-3E-8000000", "2e+1_000_000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1e")


def test_order_is_bounded_before_it_is_factored():
    # euler_phi factored the order by trial division before the number of
    # coefficients was checked: 10^18 + 3 is prime, so 10^9 steps
    start = time.perf_counter()
    for order in (10**18 + 3, MAX_ORDER + 1, 0, -7):
        for decode in (CycNumber.from_json, parse_exact):
            with pytest.raises(ValueError, match="need an order in"):
                decode({"order": order, "coeffs": []})
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError,
                       match=f"need {euler_phi(MAX_ORDER)} coefficients"):
        CycNumber.from_json({"order": MAX_ORDER, "coeffs": []})
    assert MAX_ORDER >= 1332


def test_exponent_bound_ignores_the_interpreter_digit_limit():
    # the bound is MAX_EXPONENT, not sys.get_int_max_str_digits(): lifting
    # that limit must not let 1e8000000 through to Fraction
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for text in ("1e4300", "1e8000000"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT


def test_serialization_roundtrip():
    u = CycNumber(8, (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 11)))
    assert CycNumber.from_json(u.to_json()) == u


class TestZetaImageCache:
    def test_cached_image_matches_uncached_route(self):
        _zeta_image.cache_clear()
        for p in (5, 7, 11, 13):
            roots = [g for g in range(2, p)
                     if len({pow(g, x, p) for x in range(p - 1)}) == p - 1]
            for n in (d for d in range(1, p) if (p - 1) % d == 0):
                for g in roots:
                    for prec in (1, 4, 9):
                        m = p**prec
                        want = pow(teichmuller(g, p, prec).residue,
                                   (p - 1) // n, m)
                        assert want == pow(pow(g, p**(prec - 1), m),
                                           (p - 1) // n, m)
                        for _ in range(2):      # a miss, then a hit
                            got = cyc_embed_padic(CycNumber.zeta(n), p, prec, g)
                            assert got.residue == want, (p, n, g, prec)
        assert _zeta_image.cache_info().hits > 0


    def test_residue_embedding_is_memoized_per_p_prec_and_root(self):
        # the memo keys on the root as given: 2 and 3 are primitive roots
        # mod 5 that send zeta_4 to the two square roots of -1
        zeta4 = CycNumber.zeta(4)
        assert _residue_embedding(5, 3, 2) is _residue_embedding(5, 3, 2)
        assert _residue_embedding(5, 3, 2) is not _residue_embedding(5, 3, 3)
        images = {g: _residue_embedding(5, 3, g)(zeta4) for g in (None, 2, 3)}
        assert images[None] == images[2] == teichmuller(2, 5, 3).residue
        assert images[3] == teichmuller(3, 5, 3).residue != images[2]
        assert _residue_embedding(5, 1, 2)(zeta4) == 2
        for g in (2, 3):
            assert cyc_embed_padic(zeta4, 5, 3, g).residue == images[g]
        with pytest.raises(NotEmbeddable):
            _residue_embedding(5, 3, 4)


class TestZetaAtOrdersOneAndTwo:
    def test_matches_the_reduction_mod_phi(self):
        # zeta_1^k = 1 and zeta_2^k = (-1)^k skip _reduce_ints; the value
        # is the one the reduction of x^(k mod n) mod Phi_n gives
        for order in (1, 2):
            for k in range(-3, 4):
                folded = [0] * order
                folded[k % order] = 1
                want = _cyc(order, _reduce_ints(folded, order), 1)
                got = CycNumber.zeta(order, k)
                sign = (-1)**(k % 2) if order == 2 else 1
                assert (got.order, got.num, got.den) == (
                    want.order, want.num, want.den) == (
                    order, (sign,), 1), (order, k)
                assert got == want == sign
                assert hash(got) == hash(want)
        assert CycNumber.zeta(2) == -1 and CycNumber.zeta(1) == 1
        with pytest.raises(ZeroDivisionError):
            CycNumber.zeta(0)


# -- integer numerators over one denominator, against the Fraction oracle --

_ORDERS = st.integers(1, 40)
_FRACS = st.builds(Fraction, st.one_of(st.integers(-30, 30),
                                       st.integers(-10**30, 10**30)),
                   st.integers(1, 12))


def _vector(draw, n):
    """phi(n) coefficients, now and then all equal."""
    if draw(st.integers(0, 4)) == 0:
        return (draw(_FRACS),) * euler_phi(n)
    return tuple(draw(st.lists(_FRACS, min_size=euler_phi(n),
                               max_size=euler_phi(n))))


@st.composite
def _pairs(draw):
    """Two elements whose orders divide one order in 1..40 (the same order
    half the time), as library values and oracle values."""
    top = draw(_ORDERS)
    divisors = [d for d in range(1, top + 1) if top % d == 0]
    n = draw(st.sampled_from(divisors))
    m = n if draw(st.booleans()) else draw(st.sampled_from(divisors))
    u, v = _vector(draw, n), _vector(draw, m)
    if draw(st.booleans()):       # some rational operands
        v = v[:1] + (0,) * (len(v) - 1)
    return ((CycNumber(n, u), CycNumber(m, v)),
            (FractionCycNumber(n, u), FractionCycNumber(m, v)))


def _same(x: CycNumber, want: FractionCycNumber):
    """x holds exactly the oracle's value, in normalized form."""
    assert (x.order, x.coeffs) == (want.order, want.coeffs)
    assert x == CycNumber(want.order, want.coeffs)
    assert x.den == want.denominator_lcm() == x.denominator_lcm()
    assert x.is_rational() == want.is_rational()
    assert x.to_json() == want.to_json()
    assert exact_json(x) == want.to_json()
    assert hash(x) == hash(CycNumber(want.order, want.coeffs))
    if want.is_rational():
        assert hash(x) == hash(want.coeffs[0]) == hash(want)


def _embedding_prime(n: int) -> int:
    return next(p for p in range(n + 1, 10**4, n) if p >= 5 and is_prime(p))


class TestAgainstFractionOracle:
    @given(_pairs(), st.integers(-6, 6), _FRACS)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, pair, k, f):
        (a, b), (oa, ob) = pair
        _same(a, oa)
        _same(a + b, oa + ob)
        _same(a - b, oa - ob)
        _same(b - a, ob - oa)
        _same(a * b, oa * ob)
        _same(-a, -oa)
        _same(a * k, oa * k)
        _same(k * a, oa * k)
        _same(a * f, oa * f)
        _same(a + k, oa + k)
        _same(a + f, oa + f)

    @pytest.mark.parametrize("n", (3, 5, 12, 37) + _TABLE_ORDERS)
    def test_products_at_the_read_back_bound(self, n):
        # numerators of one sign: the middle coefficient of the product,
        # before folding, is phi * max|a_i| * max|b_j|, the largest that
        # the residue mod m must read back, positive or negative
        phi = euler_phi(n)
        pairs = [(10**30, 7), (-10**30, -7),
                 (Fraction(10**30 + 1, 3), Fraction(-5, 4))]
        for x, y in pairs if phi <= 72 else pairs[:1]:
            u, v = (x,) * phi, (y,) * phi
            _same(CycNumber(n, u) * CycNumber(n, v),
                  FractionCycNumber(n, u) * FractionCycNumber(n, v))

    @given(_pairs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_powers(self, pair, e):
        (a, _), (oa, _) = pair
        want = FractionCycNumber.from_rational(1, oa.order)
        for _ in range(e):
            want = want * oa
        _same(a ** e, want)

    def test_powers_at_a_table_order(self):
        rng = seeded(12)
        u = tuple(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 5))
                  for _ in range(euler_phi(148)))
        a, want = CycNumber(148, u), FractionCycNumber(148, u)
        for e in range(1, 6):
            _same(a ** e, want)
            want = want * FractionCycNumber(148, u)
        with pytest.raises(ValueError):
            a ** -1

    @given(_pairs(), st.sampled_from([1, 2, 3]), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_promote_galois_and_equality(self, pair, step, j):
        (a, b), (oa, ob) = pair
        _same(a.promote(a.order * step), oa.promote(oa.order * step))
        if gcd(j, a.order) == 1:
            _same(a.galois(j), oa.galois(j))
        assert (a == b) == (oa == ob)
        assert (a == a.promote(a.order * step)) is True
        for r in (0, 1, -2, Fraction(3, 2), b.coeffs[0]):
            assert (a == r) == (oa == r)
            assert (b == r) == (ob == r)
        if a == b and a.order == b.order:
            assert hash(a) == hash(b)

    @given(_pairs(), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_embedding(self, pair, prec, pick):
        (a, _), (oa, _) = pair
        p = _embedding_prime(a.order)
        g0 = smallest_primitive_root(p)
        units = [k for k in range(1, p - 1) if gcd(k, p - 1) == 1]
        g = pow(g0, units[pick % len(units)], p)
        want = oa.embed_padic(p, prec, g)
        if want is None:
            with pytest.raises(NotEmbeddable):
                cyc_embed_padic(a, p, prec, g)
        else:
            assert cyc_embed_padic(a, p, prec, g).residue == want


class TestScalarTypesStayChecked:
    def test_immutable(self):
        x, u = PAdicInt(5, 3, 7), CycNumber(4, (Fraction(1, 2), 3))
        for obj, name in ((x, "residue"), (x, "p"), (x, "prec"), (u, "num"),
                          (u, "den"), (u, "order"), (u, "coeffs")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            del x.residue
        with pytest.raises(AttributeError):
            x.extra = 1
        assert (x.residue, u.num, u.den) == (7, (1, 6), 2)

    def test_bad_arguments_still_raise(self):
        for p in (4, 9, 25, 9):       # 9 twice: a cached verdict still raises
            with pytest.raises(ValueError):
                PAdicInt(p, 3, 1)
        with pytest.raises(ValueError):
            PAdicInt(5, 0, 1)
        with pytest.raises(ValueError):
            PAdicInt(5, 3, 1).reduce(0)
        with pytest.raises(ValueError):
            CycNumber(4, (1,))
        with pytest.raises(ValueError):
            CycNumber(0, ())

    def test_rational_hash_is_the_fraction_hash(self):
        assert hash(CycNumber.from_rational(Fraction(3, 2), 4)) == \
            hash(Fraction(3, 2))
        assert hash(CycNumber.from_rational(-7, 12)) == hash(-7)
        assert CycNumber.from_rational(Fraction(3, 2), 4) == Fraction(3, 2)
        assert {CycNumber.from_rational(Fraction(3, 2), 4): 1}[Fraction(3, 2)]

    def test_equal_values_of_different_orders_hash_alike(self):
        for n in (3, 5):
            z = CycNumber.zeta(n)
            assert z == z.promote(2 * n)
            assert len({z, z.promote(2 * n)}) == 1

    @given(_ORDERS, st.data(), st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_hash_survives_promotion(self, n, data, k):
        x = CycNumber(n, _vector(data.draw, n))
        assert hash(x) == hash(x.promote(k * n))

    def test_pickle_roundtrip(self):
        for x in (PAdicInt(7, 4, 100), CycNumber(12, (Fraction(1, 2), 0, 3, -1))):
            assert pickle.loads(pickle.dumps(x)) == x
