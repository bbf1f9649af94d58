from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq import euler
from symsq.characters import characters_mod, trivial_character
from symsq.cyclotomic import (CycNumber, cyc_embed_padic, euler_phi,
                              exact_json)
from symsq.errors import (DivergenceGuard, InvalidSatake, NotIntegral,
                          NotOrdinary, PrecisionLoss)
from symsq.euler import (EulerFactor, SatakeData, df_complex, ep_factor,
                         euler_to_lambda, evaluate_factor_complex,
                         evaluate_factor_padic, substitute_frobenius, symsq_dirichlet_coeff_check,
                         symsq_factor)
from symsq.iwasawa import (IwasawaElement, congruent_mod_p,
                           factorial_valuation, frobenius_exponent,
                           invariants)
from symsq.padic import PAdicInt, inv, teichmuller

from conftest import (PRIMES_TO_200, characters_with_order_dividing,
                      cyc_symsq_coeffs, per_power_substitute_frobenius,
                      seeded)


class TestSatakeValidation:
    def test_depleted_must_vanish(self):
        with pytest.raises(InvalidSatake):
            SatakeData(2, "depleted", 3, 0, 2)
        SatakeData(2, "depleted", 0, 0, 2)

    def test_ordinary_needs_nonzero(self):
        with pytest.raises(InvalidSatake):
            SatakeData(2, "ordinary", 0, 0, 2)

    def test_unramified_needs_eps(self):
        with pytest.raises(InvalidSatake):
            SatakeData(2, "unramified", 1, 0, 2)

    def test_composite_q(self):
        with pytest.raises(InvalidSatake):
            SatakeData(6, "unramified", 1, 1, 2)

    def test_unknown_type_and_low_weight(self):
        with pytest.raises(InvalidSatake) as err:
            SatakeData(2, "split", 1, 1, 2)
        assert str(err.value) == "unknown type 'split'"
        with pytest.raises(InvalidSatake) as err:
            SatakeData(2, "unramified", 1, 1, 1)
        assert str(err.value) == "weight must be >= 2, got 1"

    def test_degree_above_three(self):
        with pytest.raises(InvalidSatake) as err:
            EulerFactor(2, (1, 0, 0, 0, 1))
        assert str(err.value) == "Euler factor degree exceeds 3"


class TestSymsqFactor:
    def test_zero_eigenvalue(self):
        # alpha^2 = beta^2 = -b, alpha beta = b
        f = symsq_factor(SatakeData(2, "unramified", 0, 1, 2))
        assert f.coeffs == (1, 2, -4, -8)

    def test_worked_example(self):
        f = symsq_factor(SatakeData(2, "unramified", -2, 1, 2))
        assert f.coeffs == (1, -2, 4, -8)

    def test_depleted(self):
        assert symsq_factor(SatakeData(3, "depleted", 0, 0, 4)).coeffs == (1,)

    def test_ordinary_degree_one(self):
        f = symsq_factor(SatakeData(3, "ordinary", 2, 0, 2))
        assert f.coeffs == (1, -4)

    def test_constant_term_validation(self):
        with pytest.raises(InvalidSatake):
            EulerFactor(2, (2, 1))

    def test_int_lane_matches_the_cyc_arithmetic(self):
        # an int a_q with eps(q) = +-1 takes symsq_factor's int lane; every
        # coefficient must come back as the all-CycNumber rule builds it,
        # at eps's order (2 and 4 included), with the same data and text
        units = {1: [1, -1], 2: [1, -1],
                 4: [1, -1, CycNumber.zeta(4), -CycNumber.zeta(4)]}
        a_values = [0, 1, -1, 7, -13, 10**40 + 3, -(10**25),
                    Fraction(3, 4), Fraction(-5, 7),
                    CycNumber.from_rational(5, 4), 2 - 3 * CycNumber.zeta(4)]
        for order, values in units.items():
            for unit in values:
                eps = CycNumber.from_rational(unit, order) \
                    if isinstance(unit, int) else unit
                for a_q in a_values:
                    for q, k in product((2, 3, 7, 101), range(2, 13)):
                        got = symsq_factor(
                            SatakeData(q, "unramified", a_q, eps, k)).coeffs
                        want = cyc_symsq_coeffs(a_q, eps, q, k)
                        assert got[0] == 1
                        for g, w in zip(got[1:], want[1:], strict=True):
                            case = (order, unit, a_q, q, k)
                            assert type(g) is CycNumber, case
                            assert (g.order, g.num, g.den) == (
                                w.order, w.num, w.den), case
                            assert exact_json(g) == exact_json(w), case
                            assert repr(g) == repr(w), case

    def test_numeric_roots_oracle(self):
        rng = seeded(60)
        for _ in range(60):
            q = rng.choice([2, 3, 5, 7])
            k = rng.choice([2, 3, 4])
            a = rng.randint(-10, 10)
            eps = rng.choice([1, -1])
            data = SatakeData(q, "unramified", a, eps, k)
            mine = symsq_factor(data)
            b = eps * q**(k - 1)
            alpha, beta = np.roots([1, -a, b])
            roots = [alpha * beta, alpha**2, beta**2]
            # coefficientwise comparison against elementary symmetric funcs
            e1 = sum(roots)
            e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            e3 = roots[0] * roots[1] * roots[2]
            for got, want in zip(mine.coeffs, (1, -e1, e2, -e3)):
                scale = max(1.0, abs(want))
                assert abs(complex(got) - want) / scale < 1e-9
            # and as functions on the disk |X| <= 1/2
            sup = max(abs(evaluate_factor_complex(mine, 1, 0.5 * np.exp(2j * np.pi * t)))
                      for t in np.linspace(0, 1, 7))
            for t in np.linspace(0, 1, 11):
                x = 0.5 * np.exp(2j * np.pi * t)
                oracle = np.prod([1 - r * x for r in roots])
                got = evaluate_factor_complex(mine, 1, x)
                assert abs(got - oracle) / max(1.0, sup) < 1e-9

    def test_coefficient_check(self):
        rng = seeded(61)
        for _ in range(20):
            q = rng.choice([2, 3, 7])
            k = rng.choice([2, 4, 6])
            a = rng.randint(-8, 8)
            data = SatakeData(q, "unramified", a, 1, k)
            assert symsq_dirichlet_coeff_check(data, trivial_character(1))

    def test_coefficient_check_with_a_quartic_nebentype(self):
        chi = next(c for c in characters_mod(13) if c.order == 4)
        rng = seeded(62)
        for _ in range(12):
            q = rng.choice([2, 3, 5, 7])
            k = rng.choice([2, 3, 4])
            a = rng.randint(-8, 8) + rng.randint(-3, 3) * CycNumber.zeta(4)
            eps = chi(q)
            assert symsq_dirichlet_coeff_check(
                SatakeData(q, "unramified", a, eps, k), chi)
            # a nebentype value other than chi(q) gives another a(q^2)
            for wrong in (eps * CycNumber.zeta(4), -eps, 1):
                if wrong == eps:
                    continue
                assert not symsq_dirichlet_coeff_check(
                    SatakeData(q, "unramified", a, wrong, k), chi)


def _rationals(p):
    return st.builds(Fraction, st.integers(-10**4, 10**4),
                     st.integers(1, 60).filter(lambda d: d % p))


@st.composite
def embeddable_factors(draw, p, q):
    """Euler factors at q of degree 0-3 with int, Fraction and CycNumber
    coefficients (zeros included) that embed in Z_p."""
    orders = [n for n in range(2, p) if (p - 1) % n == 0]
    cyc = st.sampled_from(orders).flatmap(lambda n: st.lists(
        _rationals(p), min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda c: CycNumber(n, c)))
    coeffs = draw(st.lists(st.one_of(
        st.just(0), st.integers(-10**9, 10**9), _rationals(p), cyc),
        max_size=3))
    return EulerFactor(q, (1, *coeffs))


QUADRATIC = [c for m in (3, 4, 8) for c in characters_mod(m) if c.order == 2]


class TestBinomialSumKernel:
    """The lift's single binomial_sum against one series per power j."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_power_oracle(self, data):
        p = data.draw(st.sampled_from([5, 7, 11, 13]))
        prec, trunc = data.draw(st.integers(1, 30)), data.draw(
            st.integers(0, 200))
        q = data.draw(st.sampled_from([q for q in PRIMES_TO_200[:20]
                                       if q != p]))
        factor = data.draw(embeddable_factors(p, q))
        psi = data.draw(st.sampled_from([trivial_character(1)] + QUADRATIC))
        t = data.draw(st.sampled_from([0, 2, 4]))
        got = euler_to_lambda(factor, psi, t, p, prec, trunc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(euler, "substitute_frobenius",
                       per_power_substitute_frobenius)
            want = euler_to_lambda(factor, psi, t, p, prec, trunc)
        assert got == want

        # an exponent one digit short of prec + v_p(trunc!) is refused
        need = prec + factorial_valuation(trunc, p)
        if need > 1:
            short = frobenius_exponent(q, p, need - 1)
            scalar = PAdicInt(p, prec, data.draw(st.integers(1, p - 1)))
            for route in (substitute_frobenius,
                          per_power_substitute_frobenius):
                with pytest.raises(PrecisionLoss):
                    route(factor, scalar, short, trunc, prec)


class TestLambdaLift:
    def test_depleted_lift_is_one(self):
        lifted = euler_to_lambda(EulerFactor(2, (1,)), trivial_character(1),
                                 0, 5, 4, 10)
        assert lifted == IwasawaElement.one(5, 4, 10)

    def test_formal_substitution(self):
        lifted = substitute_frobenius(EulerFactor(2, (1, -1)),
                                      PAdicInt(5, 4, 1), PAdicInt(5, 12, 1),
                                      8, 4)
        want = [0, -1 % 5**4] + [0] * 7
        assert list(lifted.coeffs) == want

    def test_local_factor_identity(self):
        # specialize(lift, n) equals the factor at (psi_{t+n-1}, q^(-n))
        rng = seeded(62)
        psis = {5: characters_with_order_dividing(4, 16, coprime_to=5),
                7: characters_with_order_dividing(6, 16, coprime_to=7)}
        for _ in range(12):
            p = rng.choice([5, 7])
            q = rng.choice([ell for ell in (2, 3, 7, 11, 13) if ell != p])
            k = rng.choice([2, 4, 6])
            a = rng.randint(1, 40)
            if a % p == 0:
                a += 1
            psi = rng.choice(psis[p])
            t = rng.choice([0, 2, 4])
            n_prec, d = 5, 16
            data = SatakeData(q, "unramified", a, 1, k)
            factor = symsq_factor(data)
            lifted = euler_to_lambda(factor, psi, t, p, n_prec, d)
            eta1_q = teichmuller(q, p, n_prec)
            from symsq.iwasawa import specialize
            for n in range(1, k, 2):
                left = specialize(lifted, n)
                x = inv(PAdicInt(p, n_prec, q))**n
                chi_emb = cyc_embed_padic(psi(q), p, n_prec) * eta1_q**(t + n - 1)
                right = evaluate_factor_padic(
                    factor, CycNumber.one(), chi_emb * x)
                assert left == right

    def test_primitive_root_reaches_factor_coefficients(self):
        # eps(2) = zeta_4 at p = 5 with root 3: the factor's coefficients
        # and psi(q) must be embedded along the same root
        from symsq.iwasawa import specialize
        p, n_prec, d = 5, 5, 16
        data = SatakeData(2, "unramified", 1, CycNumber.zeta(4), 2)
        factor = symsq_factor(data)
        x = inv(PAdicInt(p, n_prec, 2))
        for root in (None, 2, 3):
            lifted = euler_to_lambda(factor, trivial_character(1), 0, p,
                                     n_prec, d, primitive_root=root)
            want = evaluate_factor_padic(factor, CycNumber.one(), x,
                                         primitive_root=root)
            assert specialize(lifted, 1) == want

    def test_mu_vanishes(self):
        rng = seeded(63)
        for _ in range(10):
            p = rng.choice([5, 7])
            q = rng.choice([ell for ell in (2, 3, 11, 13) if ell != p])
            data = SatakeData(q, "unramified", rng.randint(1, 20), 1, 4)
            lifted = euler_to_lambda(symsq_factor(data),
                                     trivial_character(1), 0, p, 5, 16)
            mu, _ = invariants(lifted)
            assert mu == 0

    def test_character_vanishing_at_q(self):
        # psi(q) = 0 collapses the factor to 1
        psi = next(c for c in characters_mod(4) if c.is_even())
        data = SatakeData(2, "unramified", 1, 1, 2)
        lifted = euler_to_lambda(symsq_factor(data), psi, 0, 5, 4, 10)
        assert lifted == IwasawaElement.one(5, 4, 10)

    def test_lift_at_p_rejected(self):
        with pytest.raises(ValueError):
            euler_to_lambda(EulerFactor(5, (1, -1)), trivial_character(1),
                            0, 5, 4, 10)

    def test_odd_t_rejected(self):
        with pytest.raises(ValueError):
            euler_to_lambda(EulerFactor(2, (1, -1)), trivial_character(1),
                            1, 5, 4, 10)


class TestSigma:
    def test_depleted_sigma_zero(self):
        lifted = euler_to_lambda(EulerFactor(2, (1,)), trivial_character(1),
                                 0, 5, 4, 12)
        assert invariants(lifted) == (0, 0)

    def test_minus_t_unit(self):
        unit = IwasawaElement(5, 4, (1, 3, 2, 0, 0, 0, 0))
        minus_t = IwasawaElement(5, 4, (0, -1, 0, 0, 0, 0, 0))
        mu, lam = invariants(minus_t * unit)
        assert (mu, lam) == (0, 1)

    def test_unit_constant_term(self):
        lifted = euler_to_lambda(symsq_factor(
            SatakeData(2, "unramified", 1, 1, 4)),
            trivial_character(1), 0, 5, 5, 14)
        mu, lam = invariants(lifted)
        assert mu == 0 and lam >= 0

    def test_positive_mu_shows_in_the_lift(self):
        # 43^4 == 1 mod 25, so e(43) has positive valuation at p = 5 and
        # every binomial C(e, k) with k <= 4 vanishes mod 5.  With a
        # twist making the substituted point hit the root of 1 - X mod 5,
        # the truncated lift vanishes mod 5: sigma_43 = 5 is past D = 4.
        # euler_to_lambda returns it as it is; lift, sigma and report
        # refuse it (test_harness's test_positive_mu_fails_the_report).
        p, q = 5, 43
        psi = next(c for c in characters_mod(16)
                   if c.order == 4 and
                   (cyc_embed_padic(c(q), p, 1) * inv(PAdicInt(p, 1, q))
                    ).residue == 1)
        factor = symsq_factor(SatakeData(q, "ordinary", 1, 0, 2))
        assert invariants(euler_to_lambda(factor, psi, 0, p, 2, 4))[0] > 0


class TestEpFactor:
    def test_ramified_examples(self):
        one = trivial_character(1)
        assert ep_factor(2, one, PAdicInt(5, 2, 1), None, 1, True,
                         2, 5, 2).residue == 5
        assert ep_factor(1, one, PAdicInt(5, 2, 3), None, 1, True,
                         2, 5, 2).residue == 14
        assert ep_factor(1, one, PAdicInt(5, 2, 1), None, 2, True,
                         2, 5, 2).residue == 1

    def test_ramified_exponent(self):
        one = trivial_character(1)
        base = ep_factor(3, one, PAdicInt(5, 4, 2), None, 1, True, 4, 5, 4)
        cubed = ep_factor(3, one, PAdicInt(5, 4, 2), None, 3, True, 4, 5, 4)
        assert cubed == base**3

    def test_unramified_value(self):
        # independent residue computation with a quadratic twist
        p, n_prec, k, n = 5, 6, 2, 1
        psi = next(c for c in characters_mod(3) if c.order == 2)
        assert psi(p) == -1
        alpha = PAdicInt(p, n_prec, 2)
        beta = PAdicInt(p, n_prec, 35)
        got = ep_factor(n, psi, alpha, beta, 0, False, k, p, n_prec)
        m = p**(n_prec - n)
        t1 = (1 + pow(2, -2, m)) % m          # 1 - p^0 (-1)^-1 alpha^-2
        t2 = 2 % m                            # 1 - (-1) p^(k-1-n)
        t3 = (1 + 35 * 35 // 5) % m           # 1 - (-1) beta^2 / p
        assert got.prec == n_prec - n
        assert got.residue == t1 * t2 * t3 % m

    def test_not_integral(self):
        one = trivial_character(1)
        with pytest.raises(NotIntegral):
            ep_factor(3, one, PAdicInt(5, 4, 1), PAdicInt(5, 4, 5), 0,
                      False, 2, 5, 4)   # k-1-n = -2

    def test_not_ordinary(self):
        with pytest.raises(NotOrdinary):
            ep_factor(1, trivial_character(1), PAdicInt(5, 2, 5), None,
                      1, True, 2, 5, 2)

    def test_ramified_needs_r(self):
        with pytest.raises(ValueError):
            ep_factor(1, trivial_character(1), PAdicInt(5, 2, 1), None,
                      0, True, 2, 5, 2)


class TestAssemble:
    def test_basic_product(self):
        lfun = IwasawaElement(5, 4, (0, 1, 0, 0, 0, 0))       # T
        factor = IwasawaElement(5, 4, (0, -1, 0, 0, 0, 0))    # -T
        out = lfun * factor
        assert invariants(out) == (0, 2)
        assert out.coeffs[2] == 5**4 - 1

    def test_lambda_zero_factor(self):
        lfun = IwasawaElement(5, 4, (0, 1, 0, 0, 0))
        unit = IwasawaElement(5, 4, (2, 1, 0, 0, 0))
        out = lfun * unit
        assert invariants(out)[1] == invariants(lfun)[1]

    def test_congruence_propagation(self):
        # congruent Satake data gives coefficientwise-congruent lifts
        rng = seeded(64)
        for _ in range(10):
            p = rng.choice([5, 7])
            qs = [ell for ell in (2, 3, 11, 13) if ell != p]
            lifts1, lifts2 = [], []
            for q in qs:
                a = rng.randint(1, 30)
                if a % p == 0:
                    a += 1
                a2 = a + p * rng.randint(-3, 3)
                if a2 == 0:
                    a2 = a + p
                k = rng.choice([2, 4])
                f1 = symsq_factor(SatakeData(q, "unramified", a, 1, k))
                f2 = symsq_factor(SatakeData(q, "unramified", a2, 1, k))
                lifts1.append(euler_to_lambda(f1, trivial_character(1),
                                              0, p, 4, 12))
                lifts2.append(euler_to_lambda(f2, trivial_character(1),
                                              0, p, 4, 12))
            one = IwasawaElement.one(p, 4, 12)
            prod1 = reduce(mul, lifts1, one)
            prod2 = reduce(mul, lifts2, one)
            verdict = congruent_mod_p(prod1, prod2)
            assert verdict.congruent and verdict.unit == 1


class TestComplexSide:
    def test_all_depleted(self):
        data = [SatakeData(q, "depleted", 0, 0, 2) for q in (2, 3, 5)]
        assert df_complex(data, trivial_character(1), 4.0, 10) == 1.0

    def test_single_factor_example(self):
        data = [SatakeData(2, "unramified", -2, 1, 2)]
        got = df_complex(data, trivial_character(1), 4.0, 10)
        want = 1 / (1 - 2 / 16 + 4 / 256 - 8 / 4096)
        assert abs(got - want) < 1e-12

    def test_divergence_guard(self):
        data = [SatakeData(2, "unramified", 100, 1, 2)]
        with pytest.raises(DivergenceGuard):
            df_complex(data, trivial_character(1), 3.0, 10)
        with pytest.raises(DivergenceGuard):
            df_complex(data, trivial_character(1), 1.5, 10)

    def test_small_convergence(self):
        rng = seeded(65)
        primes = [q for q in range(2, 4000)
                  if all(q % d for d in range(2, int(q**0.5) + 1))]
        data = [SatakeData(q, "unramified",
                           rng.randint(-int(2 * q**0.5), int(2 * q**0.5)),
                           1, 2) for q in primes]
        v1 = df_complex(data, trivial_character(1), 4.0, 2000)
        v2 = df_complex(data, trivial_character(1), 4.0, 4000)
        assert abs(v2 - v1) / abs(v2) < 1e-5
