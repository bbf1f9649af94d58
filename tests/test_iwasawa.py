import hashlib
import json
import random
from functools import reduce
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq import cli, iwasawa, padic
from symsq.errors import (InsufficientPrecision, PrecisionLoss, SchemaError,
                          TruncationTooShort)
from symsq.iwasawa import (MAX_PADIC_MODULUS, MAX_PRECISION, MAX_TRUNC,
                           TRUNCATION_GUARD, CongruenceVerdict,
                           IwasawaElement, binomial_sum, congruent_mod_p,
                           factorial_valuation, frobenius_exponent,
                           invariants, product_invariants, reconstruct,
                           specialize, weierstrass_prep)
from symsq.padic import PAdicInt, inv, teichmuller

from conftest import (PRIMES_TO_200, extend_past_truncation,
                      full_inverse_weierstrass_prep,
                      recurrence_series_inverse_mod_p, schoolbook_mul,
                      schoolbook_mul_trunc, seeded,
                      teichmuller_frobenius_exponent)


def elem(p, prec, *coeffs, trunc=None):
    cs = list(coeffs)
    if trunc is not None:
        cs += [0] * (trunc + 1 - len(cs))
    return IwasawaElement(p, prec, tuple(cs))


@st.composite
def mul_cases(draw):
    """(a, b, mod, d): p in {5, 7, 11, 13}, mod p or p^N, lengths drawn
    apart, d anywhere up to past both degrees, and coefficient lists that
    are often zero or sparse and may hold values outside [0, mod)."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    mod = p**draw(st.sampled_from([1, draw(st.integers(2, 30))]))

    def series():
        n = draw(st.integers(0, 40))
        kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
        if kind == "zero":
            return [0] * n
        coeff = st.integers(-mod, 2 * mod)
        if kind == "sparse":
            coeff = st.one_of(st.just(0), st.just(0), st.just(0), coeff)
        return draw(st.lists(coeff, min_size=n, max_size=n))

    a, b = series(), series()
    d = draw(st.integers(0, len(a) + len(b) + 5))
    return a, b, mod, d


class TestKernels:
    @given(mul_cases())
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_schoolbook(self, case):
        a, b, mod, d = case
        assert padic._poly_mul_trunc(a, b, mod, d) == \
            schoolbook_mul_trunc(a, b, mod, d)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_mul_at_every_slot_width(self, width):
        # widths 1-8 go through array items (3 widens to 4, 5-7 to 8),
        # 9 is the narrowest slot on the bytes path; all-(mod - 1)
        # inputs fill the middle slots of the product to the brim
        rng = seeded(57)
        cases = [(p**k, n) for p in (5, 7, 11, 13) for k in range(1, 16)
                 for n in (1, 2, 5, 17, 40)
                 if ((n * (p**k - 1)**2).bit_length() + 7) // 8 == width]
        assert cases
        for mod, n in cases:
            top = [mod - 1] * n
            noisy = [rng.randrange(mod) for _ in range(n + 3)] + [mod - 1]
            for a, b in ((top, top + [mod - 1] * 4), (top, noisy)):
                for d in (0, n - 1, len(a) + len(b)):
                    assert padic._poly_mul_trunc(a, b, mod, d) == \
                        schoolbook_mul_trunc(a, b, mod, d)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_mul_narrow_by_wide_at_every_slot_width(self, width):
        # a mod-p digit series (coefficients below p, or all ones) times
        # one below mod = p^k, as in each Hensel step: the slot holds
        # min(len) * max(a) * max(b), which all-top times all-(mod - 1)
        # reaches in the middle slots, and is mostly narrower than the
        # slot that (mod - 1)^2 would need
        rng = seeded(58)
        cases = [(p, p**k, n, top) for p in (5, 7, 11, 13)
                 for k in range(1, 21) for n in (1, 2, 5, 17, 40)
                 for top in (p - 1, 1)
                 if ((n * top * (p**k - 1)).bit_length() + 7) // 8 == width]
        assert cases
        assert any(((n * (mod - 1)**2).bit_length() + 7) // 8 > width
                   for p, mod, n, top in cases)
        for p, mod, n, top in cases:
            narrow = [top] * n
            wide = [mod - 1] * (n + 4)
            noisy_narrow = [rng.randrange(top + 1) for _ in range(n - 1)]
            noisy_wide = [rng.randrange(mod) for _ in range(n + 3)]
            for a, b in ((narrow, wide), (wide, narrow),
                         (noisy_narrow + [top], noisy_wide + [mod - 1])):
                for d in (0, n - 1, len(a) + len(b)):
                    assert padic._poly_mul_trunc(a, b, mod, d) == \
                        schoolbook_mul_trunc(a, b, mod, d)

    @pytest.mark.parametrize("words", ["native", "bytes only"])
    def test_unreduced_product_is_exact(self, monkeypatch, words):
        # a digit series below p times one below p^k, as in the Hensel
        # lift, with the slot taken from `top` alone: the lift's bound
        # n * p^(k+1), and the largest product coefficient itself, which
        # the middle slots reach; slots of 1 to 8 bytes go through array
        # items and wider ones through bytes, or all through bytes
        if words == "bytes only":
            monkeypatch.setattr(padic, "_WORD_CODES", {})
        rng = seeded(59)
        widths = set()
        for p, k in ((5, 1), (5, 9), (13, 2), (13, 8), (13, 20),
                     (1000003, 1), (2**61 - 1, 1)):
            for n in (1, 2, 5, 17):
                digits, wide = [p - 1] * n, [p**k - 1] * (n + 4)
                noisy = [rng.randrange(p**k) for _ in range(n + 3)] + \
                    [p**k - 1]
                for a, b in ((digits, wide), (wide, digits), (digits, noisy),
                             ([], wide), (digits, []), ([], [])):
                    last = len(a) + len(b) - 2      # the product's degree
                    full = schoolbook_mul(a, b, max(last, 0))
                    for top in (n * p**(k + 1), max(a + b + full)):
                        widths.add((top.bit_length() + 7) // 8)
                        for d in (0, max(last - 1, 0), max(last, 0),
                                  last + 4):
                            assert padic._poly_mul_unreduced(a, b, d, top) \
                                == schoolbook_mul(a, b, d)
        assert min(widths) <= 8 < max(widths)

    def test_mul_sparse_elements(self):
        one = IwasawaElement.one(7, 10, 60)
        t_lam = IwasawaElement(7, 10, (0,) * 9 + (1,) + (0,) * 51)
        f = IwasawaElement(7, 10, tuple(range(1, 62)))
        assert one * f == f
        assert (t_lam * f).coeffs == (0,) * 9 + f.coeffs[:52]
        assert (t_lam * t_lam).coeffs[18] == 1
        assert IwasawaElement.zero(7, 10, 60) * f == IwasawaElement.zero(
            7, 10, 60)

    @given(st.sampled_from([5, 7, 11, 13]), st.integers(0, 80),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_series_inverse(self, p, d, data):
        u = data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                               max_size=d + 1).filter(lambda c: c[0] != 0))
        v = iwasawa._series_inverse_mod_p(u, p, d)
        assert v == recurrence_series_inverse_mod_p(u, p, d)
        assert schoolbook_mul_trunc(u, v, p, d) == [1] + [0] * d

    def test_frobenius_powers(self):
        rng = seeded(55)
        for p, n, d in ((5, 10, 60), (7, 20, 120), (13, 6, 40)):
            guard = n + factorial_valuation(d, p)
            for _ in range(4):
                e = PAdicInt(p, guard, rng.randrange(p**guard))
                base = binomial_sum([(1, e)], d, n)
                assert base.coeffs == tuple(comb(e.residue, k) % p**n
                                            for k in range(d + 1))
                assert binomial_sum([(1, e * 2)], d, n) == base * base
                assert binomial_sum([(1, e * 3)], d, n) == base * base * base

    def test_weierstrass_matches_schoolbook_kernels(self, monkeypatch):
        rng = seeded(56)
        elements = []
        for p, n, d in ((5, 10, 60), (7, 20, 120), (11, 6, 40)):
            for mu in (0, 1, 2):
                coeffs = [rng.randrange(p**n) * p**mu % p**n
                          for _ in range(d + 1)]
                lam = rng.randrange(d // 3)
                for i in range(lam):
                    coeffs[i] = coeffs[i] * p % p**n
                elements.append(IwasawaElement(p, n, tuple(coeffs)))
        fast = [weierstrass_prep(f) for f in elements]
        with monkeypatch.context() as mp:     # as on a big-endian host
            mp.setattr(padic, "_WORD_CODES", {})
            assert [weierstrass_prep(f) for f in elements] == fast

        def bounded(a, b, d, top):
            out = schoolbook_mul(a, b, d)
            assert max(a + b + out, default=0) <= top
            return out

        # iwasawa calls padic's kernels through its own bindings; every
        # product of the lift goes through a schoolbook one, none
        # through padic's Kronecker core
        monkeypatch.setattr(iwasawa, "_poly_mul_trunc", schoolbook_mul_trunc)
        monkeypatch.setattr(iwasawa, "_poly_mul_unreduced", bounded)
        monkeypatch.setattr(iwasawa, "_series_inverse_mod_p",
                            recurrence_series_inverse_mod_p)
        monkeypatch.setattr(padic, "_poly_mul_unreduced", None)
        assert [weierstrass_prep(f) for f in elements] == fast


@st.composite
def product_cases(draw):
    """(L, factors, kinds): mu(L) in {0, 1, 2}; each factor a unit-shaped
    lift, one at lower precision or shorter truncation, or one that
    vanishes mod p (so the product mod p vanishes up to D)."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def series(prec, mu, trunc, lam):
        coeffs = [rng.randrange(p**prec) for _ in range(trunc + 1)]
        for i in range(min(lam, trunc + 1)):
            coeffs[i] = coeffs[i] * p
        if lam <= trunc:
            coeffs[lam] = coeffs[lam] * p + rng.randrange(1, p)
        return IwasawaElement(p, prec, tuple(c * p**mu for c in coeffs))

    d = draw(st.integers(0, 30))
    mu = draw(st.sampled_from([0, 1, 2]))
    lfun = series(n, mu, d, draw(st.integers(0, d)))
    kinds = draw(st.lists(st.sampled_from(
        ["unit", "unit", "unit", "low", "short", "zero"]), max_size=5))
    factors = []
    for kind in kinds:
        prec = rng.randint(1, n - 1) if kind == "low" else n + rng.randint(0, 2)
        trunc = rng.randint(0, d) if kind == "short" else d + rng.randint(0, 3)
        lam = trunc + 1 if kind == "zero" else rng.randint(0, 3)
        factors.append(series(prec, 0, trunc, lam))
    return lfun, factors, kinds


class TestProductInvariants:
    @given(product_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_product(self, case):
        lfun, factors, kinds = case
        # the answer mod p, from the schoolbook product of L / p^mu
        p, mu = lfun.p, invariants(lfun)[0]
        d = min([lfun.trunc] + [g.trunc for g in factors])
        mod_p = [c // p**mu for c in lfun.coeffs]
        for g in factors:
            mod_p = schoolbook_mul_trunc(mod_p, g.coeffs, p, d)
        lam = next((i for i, c in enumerate(mod_p[:d + 1]) if c % p), None)
        if "zero" in kinds:
            assert lam is None
        if lam is not None and "low" not in kinds:
            # with every factor at L's precision, the full product agrees
            assert invariants(reduce(mul, factors, lfun)) == (mu, lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IwasawaElement, "__mul__", None)
            if lam is None:
                with pytest.raises(TruncationTooShort):
                    product_invariants(lfun, factors)
            else:
                assert product_invariants(lfun, factors) == (mu, lam)

    def test_mixed_primes_are_refused(self):
        with pytest.raises(ValueError, match="mixed primes"):
            product_invariants(elem(5, 2, 1, 1), [elem(7, 2, 1, 1)])

    def test_positive_mu_stays_mod_p(self, monkeypatch):
        # mu(L) = 2: dividing L by p^2 first keeps the product mod p alive
        lfun = elem(5, 6, 50, 25, trunc=8)
        factor = elem(5, 6, 5, 1, trunc=8)
        monkeypatch.setattr(IwasawaElement, "__mul__", None)
        assert product_invariants(lfun, [factor, factor]) == (2, 2)


@st.composite
def prep_cases(draw):
    """Elements with mu in {0, 1, 2} and lambda from 0 to past D - guard,
    or vanishing mod p^N, for p in {5, 7, 11, 13} at N <= 30, and for
    p = 1000003 at N <= 4 and p = 2^61 - 1 at N <= 2, whose one-digit
    series meet slots wider than 8 bytes; D <= 200."""
    p, top_n = draw(st.sampled_from([(5, 30), (7, 30), (11, 30), (13, 30),
                                     (1000003, 4), (2**61 - 1, 2)]))
    mu = draw(st.sampled_from([0, 1, 2]))
    kind = draw(st.sampled_from(["prep"] * 6 + ["short", "zero"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, d = rng.randint(1, top_n), rng.randint(0, 200)
    if kind == "prep":
        lam = rng.randint(0, max(d - TRUNCATION_GUARD, 0))
    else:
        lam = rng.randint(max(d - TRUNCATION_GUARD, 0), d)
    m = p**n
    coeffs = [rng.randrange(m) for _ in range(d + 1)]
    for i in range(lam):
        coeffs[i] = coeffs[i] * p
    coeffs[lam] = coeffs[lam] * p + rng.randrange(1, p)
    if kind == "zero":
        coeffs = [0] * (d + 1)
    return IwasawaElement(p, n, tuple(c * p**mu for c in coeffs))


def _prep_or_refusal(prep, f):
    try:
        return prep(f)
    except (TruncationTooShort, InsufficientPrecision) as exc:
        return type(exc)


def _with_invariants(rng, p, n, d, mu, lam):
    """A random element mod (p^n, T^(d+1)) with the given mu < n and
    lambda <= d."""
    coeffs = [rng.randrange(p**(n - mu)) for _ in range(d + 1)]
    coeffs[:lam] = [c * p for c in coeffs[:lam]]
    coeffs[lam] = coeffs[lam] * p + rng.randrange(1, p)
    return IwasawaElement(p, n, tuple(c * p**mu for c in coeffs))


def _matches_oracle_and_reconstructs(f):
    w = weierstrass_prep(f)
    assert (w.mu, w.lam) == invariants(f)
    assert w == full_inverse_weierstrass_prep(f)
    assert reconstruct(w, f.trunc) == f
    return w


class TestWeierstrass:
    @given(prep_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_full_inverse_oracle(self, f):
        assert _prep_or_refusal(weierstrass_prep, f) == \
            _prep_or_refusal(full_inverse_weierstrass_prep, f)

    def test_already_distinguished(self):
        f = elem(5, 4, 25, 5, 1, trunc=8)
        w = weierstrass_prep(f)
        assert (w.mu, w.lam) == (0, 2)
        assert w.distinguished == (25, 5, 1)
        assert all(c == (1 if i == 0 else 0)
                   for i, c in enumerate(w.unit.coeffs))

    def test_pure_p_multiple(self):
        w = weierstrass_prep(elem(5, 4, 5, 5, trunc=6))
        assert (w.mu, w.lam) == (1, 0)
        assert w.distinguished == (1,)
        assert w.prec == 3
        assert w.determined_precision == 3    # lambda = 0: P = 1 exactly

    def test_unit_at_one(self):
        w = weierstrass_prep(elem(5, 4, 5, 1, trunc=6))
        assert (w.mu, w.lam) == (0, 1)

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecision):
            weierstrass_prep(elem(5, 2, 0, 0, 0, trunc=8))

    def test_truncation_guard(self):
        f = elem(5, 3, *([5] * 8 + [1, 5, 5]))   # lambda = 8, trunc = 10
        with pytest.raises(TruncationTooShort):
            weierstrass_prep(f)
        w = weierstrass_prep(elem(5, 3, *([5] * 8 + [1, 5, 5]), trunc=12))
        assert w.lam == 8                     # the same element at D = 12

    def test_reconstruction_random(self):
        rng = seeded(50)
        for _ in range(40):
            p = rng.choice([5, 7])
            n, d = 6, 40
            coeffs = [rng.randrange(p**n) for _ in range(d + 1)]
            if rng.random() < 0.3:
                mu = rng.choice([1, 2])
                coeffs = [c * p**mu % p**n for c in coeffs]
            f = IwasawaElement(p, n, tuple(coeffs))
            try:
                w = weierstrass_prep(f)
            except InsufficientPrecision:
                continue
            assert reconstruct(w, d).coeffs == f.coeffs
            assert w.distinguished[-1] == 1
            assert all(c % p == 0 for c in w.distinguished[:-1])
            assert w.unit.coeffs[0] % p != 0

    # the carried error starts as E_1 = (f - T^lam ubar) / p; its edges
    # are one digit (no Hensel step), lambda = 0 (no dP, so the error
    # moves on by P dU alone) and lambda at the guard (the shortest dU,
    # TRUNCATION_GUARD + 1 terms)

    def test_one_digit_runs_no_hensel_step(self):
        rng = seeded(59)
        for p in (5, 7, 11, 13):
            for n, d, lam in ((1, 20, 7), (4, 30, 0), (6, 40, 12)):
                f = _with_invariants(rng, p, n, d, n - 1, lam)
                w = _matches_oracle_and_reconstructs(f)
                assert w.prec == 1
                assert w.distinguished == (0,) * lam + (1,)

    def test_lambda_zero(self):
        rng = seeded(60)
        for p in (5, 7, 11, 13):
            for n, d, mu in ((1, 8, 0), (6, 40, 0), (12, 60, 2), (30, 120, 1)):
                w = _matches_oracle_and_reconstructs(
                    _with_invariants(rng, p, n, d, mu, 0))
                assert w.distinguished == (1,)

    def test_lambda_at_the_guard(self):
        rng = seeded(61)
        for p in (5, 7, 11, 13):
            for n, d, mu in ((2, TRUNCATION_GUARD, 0), (6, 40, 1),
                             (20, 120, 0)):
                lam = d - TRUNCATION_GUARD
                w = _matches_oracle_and_reconstructs(
                    _with_invariants(rng, p, n, d, mu, lam))
                assert w.lam == lam

    def test_at_the_decoder_bounds(self):
        # the oracle takes most of a second here, so only the exact
        # reconstruction is checked
        f = _with_invariants(seeded(62), 13, MAX_PRECISION, MAX_TRUNC, 1, 250)
        assert f.modulus == MAX_PADIC_MODULUS
        w = weierstrass_prep(f)
        assert (w.mu, w.lam, w.prec) == (1, 250, MAX_PRECISION - 1)
        assert reconstruct(w, MAX_TRUNC) == f

    def test_prep_bytes_are_pinned(self, tmp_path, capsys):
        # symsq prep stdout on 50 seeded elements across p, N, D, mu and
        # lambda, hashed; the digest was recorded while each Hensel
        # product reduced its operands and output mod p^(N - m)
        rng = seeded(64)
        digest = hashlib.sha256()
        path = tmp_path / "lam.json"
        for i in range(50):
            p = (5, 7, 11, 13, 1000003)[i % 5]
            n = rng.randint(1, 4 if p > 13 else 40)
            d = rng.randint(TRUNCATION_GUARD, 250)
            f = _with_invariants(rng, p, n, d, rng.randrange(min(n, 3)),
                                 rng.randint(0, d - TRUNCATION_GUARD))
            path.write_text(json.dumps(f.to_json()))
            assert cli.main(["prep", str(path)]) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == (
            "47c7b95103e35e5b390df8560df22058ae8775b7182bbcc166d5cde7978eae20")

    def test_unit_ends_in_lambda_padding_zeros(self):
        # deg(P U) <= D fixes the unit's last lam coefficients at zero;
        # as power-series coefficients they are not determined even mod p
        rng = seeded(63)
        for _ in range(60):
            p = rng.choice([5, 7, 11, 13])
            n, d = rng.randint(1, 10), rng.randint(TRUNCATION_GUARD + 1, 50)
            lam = rng.randint(1, d - TRUNCATION_GUARD)
            f = _with_invariants(rng, p, n, d, rng.randint(0, n - 1), lam)
            w = weierstrass_prep(f)
            assert w.unit.trunc == d
            assert w.unit.coeffs[-lam:] == (0,) * lam
            assert reconstruct(w, d) == f

    def test_distinguished_is_determined_to_its_stated_precision(self):
        # raise-and-compare: a series that agrees with f mod T^(D+1)
        # (f extended past D) has a distinguished polynomial that agrees
        # with f's mod p^determined_precision, not always mod p^prec
        rng = seeded(56)
        over_claimed = 0
        for _ in range(300):
            p = rng.choice([5, 7, 11])
            n, d = rng.randint(1, 8), rng.randint(TRUNCATION_GUARD, 40)
            mu = rng.randint(0, min(2, n - 1))
            lam = rng.randint(0, d - TRUNCATION_GUARD)
            coeffs = [rng.randrange(p**n) for _ in range(d + 1)]
            coeffs[:lam] = [c * p for c in coeffs[:lam]]
            coeffs[lam] = coeffs[lam] * p + rng.randrange(1, p)
            f = IwasawaElement(p, n, tuple(c * p**mu for c in coeffs))
            w = weierstrass_prep(f)
            for _ in range(2):
                g = extend_past_truncation(f, rng.randint(1, 40), rng)
                v = weierstrass_prep(g)
                assert (v.mu, v.lam) == (w.mu, w.lam)
                diffs = [a - b for a, b in zip(w.distinguished,
                                               v.distinguished)]
                assert all(c % p**w.determined_precision == 0
                           for c in diffs)
                over_claimed += any(c % p**w.prec for c in diffs)
        assert over_claimed

    def test_invariant_additivity(self):
        rng = seeded(51)
        for _ in range(40):
            p = rng.choice([5, 7])
            n, d = 6, 40
            f = IwasawaElement(p, n, tuple(rng.randrange(p**n)
                                           for _ in range(d + 1)))
            g = IwasawaElement(p, n, tuple(rng.randrange(p**n)
                                           for _ in range(d + 1)))
            mf, lf = invariants(f)
            mg, lg = invariants(g)
            if mf + mg >= n or lf + lg > d - 4:
                continue
            mp_, lp = invariants(f * g)
            assert (mp_, lp) == (mf + mg, lf + lg)


class TestConstructor:
    def test_public_constructor_reduces_and_checks(self):
        e = IwasawaElement(5, 2, (-1, 30, 25, -26))
        assert e.coeffs == (24, 5, 0, 24)
        assert IwasawaElement.from_json(
            {"p": 5, "precision": 2, "coeffs": ["-1", "30"]}).coeffs == (24, 5)
        assert e.reduce(1).coeffs == (4, 0, 0, 4)
        assert e.truncate(1) == IwasawaElement(5, 2, (24, 5))
        for prec in (0, -1):
            with pytest.raises(ValueError):
                IwasawaElement(5, prec, (1,))
        with pytest.raises(ValueError):
            binomial_sum([(1, PAdicInt(5, 4, 3))], 2, 0)

    def test_products_match_the_public_constructor(self):
        a, b = elem(7, 3, 5, -8, 400), elem(7, 2, 48, 1, 3)
        got = a * b
        assert got == IwasawaElement(got.p, got.prec, got.coeffs)
        assert got.coeffs == tuple(schoolbook_mul_trunc(
            a.coeffs, b.coeffs, 7**2, 2))


class TestOnePlusTPow:
    def test_small_exponents(self):
        e1 = binomial_sum([(1, PAdicInt(5, 10, 1))], 4, 3)
        assert e1.coeffs == (1, 1, 0, 0, 0)
        e2 = binomial_sum([(1, PAdicInt(5, 10, 2))], 4, 3)
        assert e2.coeffs == (1, 2, 1, 0, 0)
        e5 = binomial_sum([(1, PAdicInt(5, 10, 5))], 2, 2)
        assert e5.coeffs == (1, 5, 10)

    def test_guard_precision_enforced(self):
        with pytest.raises(PrecisionLoss):
            binomial_sum([(1, PAdicInt(5, 4, 3))], 25, 4)   # v5(25!) = 6

    def test_group_law(self):
        rng = seeded(52)
        for _ in range(100):
            p = rng.choice([5, 7])
            n, d = 4, 12
            guard = n + factorial_valuation(d, p)
            e1 = PAdicInt(p, guard, rng.randrange(p**guard))
            e2 = PAdicInt(p, guard, rng.randrange(p**guard))
            a = binomial_sum([(1, e1)], d, n)
            b = binomial_sum([(1, e2)], d, n)
            both = binomial_sum([(1, e1 + e2)], d, n)
            assert a * b == both

    def test_integer_exponent_matches_binomial(self):
        from math import comb
        e = binomial_sum([(1, PAdicInt(7, 12, 9))], 9, 4)
        for k in range(10):
            assert e.coeffs[k] == comb(9, k) % 7**4

    def test_factorial_table_against_binomials(self):
        # the shared table of k! is keyed by (p, D, N): reuse it across
        # exponents and check every coefficient, past several p-powers
        rng = seeded(57)
        for p in (5, 7, 11, 13):
            for d, n in ((30, 3), (60, 10), (130, 6)):
                guard = n + factorial_valuation(d, p)
                for _ in range(3):
                    e = rng.randrange(10**6)
                    got = binomial_sum([(1, PAdicInt(p, guard, e))], d, n)
                    assert got.coeffs == tuple(comb(e, k) % p**n
                                               for k in range(d + 1))


class TestFrobeniusExponent:
    def test_postcondition_oracle(self):
        # (1+p)^e == q / teich(q), checked by plain modular exponentiation
        for p in (5, 7):
            for q in (2, 3, 11, 13, 29):
                n = 5
                e = frobenius_exponent(q, p, n)
                qw = (q * pow(teichmuller(q, p, n).residue, -1, p**n)) % p**n
                assert pow(1 + p, e.residue % p**(n - 1), p**n) == qw

    def test_wild_part_example(self):
        # q = 2, p = 5: teich(2)^(-1) = 68 mod 125, q_w = 11 mod 125
        t = teichmuller(2, 5, 3)
        assert inv(t).residue == 68
        qw = PAdicInt(5, 3, 2) * inv(t)
        assert qw.residue == 11
        e = frobenius_exponent(2, 5, 3)
        assert pow(6, e.residue % 25, 125) == 11

    def test_specialized_group_element_matches(self):
        # evaluating (1+T)^e at T = p reproduces (1+p)^e
        p, n = 5, 4
        e = frobenius_exponent(3, p, n + factorial_valuation(n, p))
        a = binomial_sum([(1, e)], n, n)
        val = sum(c * p**k for k, c in enumerate(a.coeffs)) % p**n
        assert val == pow(1 + p, e.residue % p**(n - 1), p**n)

    def test_rejects_p(self):
        with pytest.raises(ValueError):
            frobenius_exponent(5, 5, 3)

    def test_matches_teichmuller_route(self):
        # log(q^(p-1))/(p-1) against log(q/teich(q)), every prime q < 200
        for p in (5, 7, 11, 13):
            for q in PRIMES_TO_200:
                if q == p:
                    continue
                for prec in (1, 2, 3, 4, 7, 12, 25, 47, 90):
                    e = frobenius_exponent(q, p, prec)
                    assert e.prec == prec
                    assert e.residue == \
                        teichmuller_frobenius_exponent(q, p, prec), (q, p, prec)


class TestSpecialize:
    def test_identity_points(self):
        f = elem(5, 2, 1, 1, trunc=4)
        assert specialize(f, 1).residue == 1
        assert specialize(f, 3).residue == 16

    def test_constant(self):
        f = elem(7, 3, 42, trunc=6)
        for n in (1, 2, 5):
            assert specialize(f, n).residue == 42

    def test_homomorphism(self):
        rng = seeded(53)
        for _ in range(50):
            p = rng.choice([5, 7])
            prec, d = 4, 12
            f = IwasawaElement(p, prec, tuple(rng.randrange(p**prec)
                                              for _ in range(d + 1)))
            g = IwasawaElement(p, prec, tuple(rng.randrange(p**prec)
                                              for _ in range(d + 1)))
            n = rng.randint(1, 6)
            assert specialize(f * g, n) == specialize(f, n) * specialize(g, n)

    def test_truncation_too_short(self):
        with pytest.raises(PrecisionLoss):
            specialize(elem(5, 6, 1, 1, trunc=3), 2)


class TestCongruence:
    def test_examples(self):
        f = elem(5, 3, 0, 1, trunc=4)               # T
        g = elem(5, 3, 0, 1, 5, trunc=4)            # T + 5T^2
        v = congruent_mod_p(f, g)
        assert v.congruent and v.unit == 1

        f2 = elem(5, 3, 0, 2, trunc=4)              # 2T
        v = congruent_mod_p(f2, f)
        assert v.congruent and v.unit == 2

        t_sq = elem(5, 3, 0, 0, 1, trunc=4)         # T^2
        v2 = congruent_mod_p(f, t_sq)
        assert not v2.congruent

    def test_unit_must_be_unit(self):
        zero_at = elem(5, 3, 0, 5, trunc=4)         # == 0 mod 5
        t = elem(5, 3, 0, 1, trunc=4)
        assert not congruent_mod_p(zero_at, t).congruent

    def test_zero_target(self):
        a = elem(5, 3, 5, 25, trunc=4)
        b = elem(5, 3, 0, 0, trunc=4)
        assert congruent_mod_p(a, b).congruent

    def test_transfer_generative(self):
        # F == u G mod p with mu(F) = 0 forces mu(G) = 0, lambda equal
        rng = seeded(54)
        for _ in range(60):
            p = rng.choice([5, 7])
            n, d = 5, 20
            g_coeffs = [rng.randrange(p**n) for _ in range(d + 1)]
            if all(c % p == 0 for c in g_coeffs):
                continue
            u = rng.randrange(1, p)
            f_coeffs = [(u * c + p * rng.randrange(p**(n - 1))) % p**n
                        for c in g_coeffs]
            f = IwasawaElement(p, n, tuple(f_coeffs))
            g = IwasawaElement(p, n, tuple(g_coeffs))
            assert congruent_mod_p(f, g).congruent
            mf, lf = invariants(f)
            mg, lg = invariants(g)
            if mf == 0:
                assert mg == 0 and lf == lg


class TestSerialization:
    def test_roundtrip(self):
        f = elem(5, 4, 7, 0, 23, 600, trunc=6)
        rec = f.to_json()
        assert IwasawaElement.from_json(rec) == f
        assert IwasawaElement.from_json(rec).to_json() == rec

    def test_rejects_p_that_is_not_a_prime_at_least_5(self):
        for p in (0, 1, 3, 4, -5, 25):
            rec = {"p": p, "precision": 3, "coeffs": ["1", "5", "0"]}
            with pytest.raises(SchemaError, match="prime"):
                IwasawaElement.from_json(rec)

    def test_precision_and_truncation_bounds(self):
        # a record at both bounds decodes; one past either, or a
        # precision below 1, is refused before any coefficient is read
        top = {"p": 5, "precision": MAX_PRECISION,
               "coeffs": ["1"] * (MAX_TRUNC + 1)}
        f = IwasawaElement.from_json(top)
        assert (f.prec, f.trunc) == (MAX_PRECISION, MAX_TRUNC)
        for rec in (top | {"precision": MAX_PRECISION + 1},
                    top | {"precision": 0},
                    top | {"coeffs": ["1"] * (MAX_TRUNC + 2)}):
            with pytest.raises(SchemaError, match="precision in"):
                IwasawaElement.from_json(rec)

    def test_modulus_bound(self):
        # p^precision up to 13^100 decodes; 17^100 and 1000003^19 are
        # refused before any coefficient is read
        top = {"p": 13, "precision": MAX_PRECISION, "coeffs": ["1", "13"]}
        assert IwasawaElement.from_json(top).modulus == MAX_PADIC_MODULUS
        for rec in (top | {"p": 17}, top | {"p": 1000003, "precision": 19}):
            with pytest.raises(SchemaError, match="MAX_PADIC_MODULUS"):
                IwasawaElement.from_json(rec)
        assert IwasawaElement.from_json(
            top | {"p": 1000003, "precision": 18}).prec == 18

    def test_verdict_truthiness(self):
        assert CongruenceVerdict(True, 1)
        assert not CongruenceVerdict(False)
