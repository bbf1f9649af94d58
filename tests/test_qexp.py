import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq.characters import characters_mod, trivial_character
from symsq.cyclotomic import CycNumber, euler_phi
from symsq.errors import (BadMode, BadPrime, NotEmbeddable, NotOrdinary,
                          OddCharacter)
from symsq.padic import PAdicInt
from symsq.padic import is_prime as _is_prime
from symsq.qexp import (QExpansion, _zero_like, coeffs_agree, deplete,
                        expansion_from_eigenvalues, hecke_T, hecke_U, hecke_V,
                        p_stabilize, tau, theta)

from conftest import (PRIMES_TO_200, composed_p_stabilize, composed_tau,
                      random_eigen_map, random_unit, seeded)


def make(coeffs, weight=2, level=1, char=None, ring="int"):
    return QExpansion(weight, level, char or trivial_character(1),
                      tuple(coeffs), ring)


def random_expansion(rng, trunc, weight=2, level=1, char=None):
    return make([rng.randint(-20, 20) for _ in range(trunc + 1)],
                weight, level, char)


class TestHeckeT:
    def test_example(self):
        f = make([0, 1, 3, 0, 7, 2, 5, 1, 4])
        g = hecke_T(f, 2)
        assert g.coefficient(1) == 3
        assert g.coefficient(2) == 7 + 2 * 1
        assert g.trunc == 4

    def test_zero(self):
        f = make([0] * 10)
        assert hecke_T(f, 3).is_zero()

    def test_eigen_normalization(self):
        rng = seeded(30)
        ap = random_eigen_map(rng, PRIMES_TO_200[:10], 5)
        f = expansion_from_eigenvalues(2, 1, trivial_character(1), ap, 30)
        for q in (2, 3, 5):
            assert hecke_T(f, q).coefficient(1) == ap[q]

    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            hecke_T(make([0, 1], level=4), 2)

    def test_refuses_a_weight_below_one(self):
        # q^(k-1) is a float at k <= 0: T_q, unramified tau, the eigenform
        # recursion and p-stabilization refuse it as a Fraction weight
        chi = next(c for c in characters_mod(13) if c.order == 4)
        ap = {2: 1, 3: 1, 5: 1, 7: 1}
        for k in (0, -1):
            for h in (make(range(30), k),
                      make([CycNumber.zeta(4)] * 30, k, 13, chi, "cyc")):
                with pytest.raises(BadPrime):
                    hecke_T(h, 2)
                with pytest.raises(BadPrime):
                    tau(h, 2, "unramified")
                with pytest.raises(BadPrime):
                    p_stabilize(h, 1, 1, 5, 4)
            with pytest.raises(BadPrime):
                expansion_from_eigenvalues(k, 1, trivial_character(1), ap, 10)

    def test_commutation(self):
        rng = seeded(31)
        for _ in range(20):
            f = random_expansion(rng, 120)
            a = hecke_T(hecke_T(f, 2), 3)
            b = hecke_T(hecke_T(f, 3), 2)
            assert coeffs_agree(a, b)


class TestUV:
    def test_uv_identity(self):
        rng = seeded(32)
        for _ in range(20):
            f = random_expansion(rng, 50)
            q = rng.choice([2, 3, 5])
            assert coeffs_agree(hecke_U(hecke_V(f, q), q), f)

    def test_v2_of_delta1(self):
        f = make([0, 1, 0, 0])
        g = hecke_V(f, 2)
        assert list(g.coeffs) == [0, 0, 1, 0]

    def test_u2_example(self):
        f = make([0, 1, 1, 0, 1])     # q + q^2 + q^4
        g = hecke_U(f, 2)
        assert g.coefficient(1) == 1
        assert g.coefficient(2) == 1

    def test_vu_restricts_to_multiples(self):
        rng = seeded(33)
        for _ in range(20):
            f = random_expansion(rng, 60)
            q = rng.choice([2, 3, 7])
            g = hecke_V(hecke_U(f, q), q)
            for n in range(g.trunc + 1):
                want = f.coeffs[n] if n % q == 0 else 0
                assert g.coeffs[n] == want


class TestDeplete:
    def test_all_ones(self):
        f = make([1] * 20)
        g = deplete(f, {2})
        for n in range(g.trunc + 1):
            assert g.coefficient(n) == (1 if n % 2 else 0)

    def test_empty_set_is_identity(self):
        f = make([3, 1, 4, 1, 5])
        assert deplete(f, set()) is f

    def test_u_kills_depleted(self):
        rng = seeded(34)
        for _ in range(20):
            f = random_expansion(rng, 80)
            s0 = set(rng.sample([2, 3, 5, 7], rng.randint(1, 3)))
            g = deplete(f, s0)
            for q in s0:
                assert hecke_U(g, q).is_zero()

    def test_equals_product_of_projectors(self):
        rng = seeded(35)
        for _ in range(20):
            f = random_expansion(rng, 90)
            s0 = sorted(rng.sample([2, 3, 5], rng.randint(1, 3)))
            g = deplete(f, s0)
            h = f
            for q in s0:
                h = h - hecke_V(hecke_U(h, q), q)
            assert coeffs_agree(g, h)

    def test_refuses_a_q_that_is_not_prime(self):
        h = make(range(30))
        for q in (0, 1, 4, -2, 2.0, True):
            for s0 in ({q}, {3, q}):
                with pytest.raises(BadPrime):
                    deplete(h, s0)


class TestTau:
    def test_unramified_example(self):
        h = make([0, 1] + [0] * 10)          # the expansion "q"
        out = tau(h, 2, "unramified")
        expect = [0, 1, 0, 0, 0, 0]
        assert list(out.coeffs)[:6] == expect[:out.trunc + 1]
        assert out.level == 4

    def test_ordinary_equals_deplete(self):
        rng = seeded(36)
        for _ in range(10):
            h = random_expansion(rng, 60, level=6)
            out = tau(h, 2, "ordinary")
            assert coeffs_agree(out, deplete(h, {2}))

    def test_tau_zero(self):
        h = make([0] * 30, level=2)
        assert tau(h, 2, "ordinary").is_zero()

    def test_annihilation_both_modes(self):
        rng = seeded(37)
        for _ in range(30):
            q = rng.choice([2, 3, 5])
            h_un = random_expansion(rng, 100, level=q + 1 if (q + 1) % q else 1)
            assert hecke_U(tau(h_un, q, "unramified"), q).is_zero()
            h_or = random_expansion(rng, 100, level=q)
            assert hecke_U(tau(h_or, q, "ordinary"), q).is_zero()

    def test_mode_level_mismatch(self):
        with pytest.raises(BadMode):
            tau(make([0, 1], level=3), 2, "ordinary")
        with pytest.raises(BadMode):
            tau(make([0, 1], level=4), 2, "unramified")
        with pytest.raises(BadMode):
            tau(make([0, 1], level=4), 2, "sideways")

    def test_tau_and_t_refuse_a_q_that_is_not_prime(self):
        h = make(range(30))                     # sum of n q^n, D = 29
        for q in (4, 6, 9, 1, 0, -2, -3, 2.0, True):
            for mode in ("ordinary", "unramified", "sideways"):
                for level in (1, 12):
                    with pytest.raises(BadPrime):
                        tau(replace(h, level=level), q, mode)
            with pytest.raises(BadPrime):
                hecke_T(h, q)

    def test_u_and_v_refuse_a_q_below_one(self):
        h = make(range(30))
        for q in (0, -1, -3):
            for op in (hecke_U, hecke_V):
                with pytest.raises(ValueError):
                    op(h, q)
        assert hecke_U(h, 1) == hecke_V(h, 1) == h
        assert hecke_U(h, 4).coeffs == (0, 4, 8, 12, 16, 20, 24, 28)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_composition(self, data):
        # the depletion against the operator composition: the same values,
        # metadata and refusals; h's own ring and coefficient objects off
        # the multiples of q, and a(0)'s zero on them; U_q kills it
        h, q, mode = data.draw(_tau_inputs())
        try:
            want = composed_tau(h, q, mode)
        except Exception as exc:                # the same class, then
            with pytest.raises(type(exc)):
                tau(h, q, mode)
            return
        got = tau(h, q, mode)
        assert coeffs_agree(got, want)
        assert (got.trunc, got.level, got.weight, got.character,
                got.primitive_root) == \
            (want.trunc, want.level, want.weight, want.character,
             want.primitive_root)
        assert got.trunc == h.trunc // q
        assert got.ring == h.ring
        zero = _fields(_zero_like(h.coeffs[0]))
        for n, c in enumerate(got.coeffs):
            if n % q:
                assert c is h.coeffs[n]
            else:
                assert _fields(c) == zero
        assert hecke_U(got, q).is_zero()

    def test_refuses_as_the_composition(self):
        chi3 = _TAU_CHARACTERS[2]
        padic = QExpansion(2, 7, chi3, (PAdicInt(5, 3, 1),) * 9, "padic")
        cyc = QExpansion(0, 7, chi3, (CycNumber.zeta(3),) * 9, "cyc")
        cases = [(padic, 2, "unramified", NotEmbeddable),  # ord 3 ∤ 5 - 1
                 (replace(padic, weight=Fraction(3, 2), ring="int",
                          coeffs=(1,) * 9), 2, "unramified", BadPrime),
                 (cyc, 2, "unramified", BadPrime),   # weight 0
                 (cyc, 2, "ordinary", BadMode), (cyc, 7, "unramified", BadMode),
                 (cyc, 7, "ramified", BadMode)]
        for h, q, mode, error in cases:
            with pytest.raises(error):
                composed_tau(h, q, mode)
            with pytest.raises(error):
                tau(h, q, mode)

    def test_tau_bytes_are_pinned(self):
        # repr of tau on a seeded grid shaped like the tables corpus
        # (truncation 500, int and order-4 cyc rings, both modes, q <= 11),
        # hashed; the digest is recorded on the depletion at q, whose repr
        # differs from the operator composition's: an int off the
        # multiples of q stays an int in a cyc expansion, and the zeros on
        # them are a(0)'s
        rng = seeded(47)
        digest = hashlib.sha256()
        order4 = [next(c for c in characters_mod(m) if c.order == 4)
                  for m in (5, 13)]
        for i in range(6):
            k = rng.choice((2, 4))
            coeffs = [rng.randint(-50, 50) for _ in range(501)]
            for q in (2, 3, 5, 7, 11):
                h = make(coeffs, k, q + 1)
                digest.update(repr(tau(h, q, "unramified")).encode())
                h = make(coeffs, k, q * (q + 1))
                digest.update(repr(tau(h, q, "ordinary")).encode())
            chi = order4[i % 2]
            ap = {ell: rng.randint(-10, 10) for ell in PRIMES_TO_200}
            ap.update({ell: rng.randint(-10, 10)
                       for ell in range(200, 501) if _is_prime(ell)})
            g0 = expansion_from_eigenvalues(k, chi.modulus, chi, ap, 500)
            for q in (2, 3, 5, 7, 11):
                if g0.level % q:
                    digest.update(repr(tau(g0, q, "unramified")).encode())
                g = g0 if g0.level % q == 0 else \
                    replace(g0, level=g0.level * q)
                digest.update(repr(tau(g, q, "ordinary")).encode())
        assert digest.hexdigest() == (
            "f9a537cc8ec6989de1608a66b4cb7af07061b712ab326d379814b9e66489f8ec")


def _fields(c):
    """What two coefficients must share to count as the same: the type,
    and a CycNumber's order, num and den or a PAdicInt's p, tag and
    residue."""
    if isinstance(c, CycNumber):
        return CycNumber, c.order, c.num, c.den
    if isinstance(c, PAdicInt):
        return PAdicInt, c.p, c.prec, c.residue
    return type(c), c


# trivial, quadratic, order 3 and order 4; at p = 5 the order-3 character
# does not embed, at p = 7 the order-4 one does not
_TAU_CHARACTERS = (trivial_character(1),
                   next(c for c in characters_mod(5) if c.order == 2),
                   next(c for c in characters_mod(7) if c.order == 3),
                   next(c for c in characters_mod(13) if c.order == 4))
_ROOTS = {5: (None, 2, 3), 7: (None, 3, 5), 13: (None, 2, 6)}


@st.composite
def _tau_inputs(draw):
    """(h, q, mode) over the int, cyc and padic rings: D up to 120,
    integer and Fraction weights, and a level that fits the mode except
    now and then, with an unknown mode now and then."""
    ring = draw(st.sampled_from(("int", "cyc", "padic")))
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    mode = draw(st.sampled_from(("ordinary", "unramified")))
    chi = draw(st.sampled_from(_TAU_CHARACTERS))
    kind = draw(st.integers(0, 7))          # k <= 0 is refused
    weight = Fraction(draw(st.integers(-3, 13)), draw(st.sampled_from((2, 3)))) \
        if kind == 0 else draw(st.integers(-1, 0) if kind == 1
                               else st.integers(1, 6))
    level = chi.modulus * draw(st.sampled_from((1, 2, 3, 4)))
    while level % q == 0:
        level //= q
    if draw(st.integers(0, 9)):             # else the level misfits the mode
        level *= q if mode == "ordinary" else 1
    else:
        level *= 1 if mode == "ordinary" else q
        mode = draw(st.sampled_from((mode, "sideways")))
    rng = seeded(draw(st.integers(0, 2**32)))   # coefficients, quickly
    small = lambda: rng.randint(-60, 60)
    frac = lambda: Fraction(small(), rng.choice((1, 2, 3, 10)))
    root = None
    if ring == "int":
        kinds = (small, small, frac)
    elif ring == "cyc":
        # mostly the character's order, now and then another one
        other = draw(st.sampled_from((1, 3, 4, 6)))
        def cyc(order):
            return lambda: CycNumber(order, [frac() for _ in
                                             range(euler_phi(order))])
        kinds = (small, frac, cyc(chi.order), cyc(chi.order), cyc(other))
    else:
        p = draw(st.sampled_from((5, 7, 13)))
        root = draw(st.sampled_from(_ROOTS[p]))
        kinds = (lambda: PAdicInt(p, rng.randint(1, 6), rng.randrange(p**6)),)
    coeffs = [rng.choice(kinds)() for _ in range(draw(st.integers(1, 121)))]
    h = QExpansion(weight, level, chi, tuple(coeffs), ring, root)
    return h, q, mode


class TestPStabilize:
    def test_alpha_beta_example(self):
        rng = seeded(38)
        ap = random_eigen_map(rng, PRIMES_TO_200[:15], 5)
        ap[5] = 1
        g0 = expansion_from_eigenvalues(2, 1, trivial_character(1), ap, 30)
        g = p_stabilize(g0, 1, 1, 5, 2)
        # alpha = 21, beta = 5 mod 25; b(5) = a(5) - 5 a(1)
        assert g.coefficient(5) == PAdicInt(5, 2, ap[5] - 5 * 1)
        assert g.level == 5

    def test_up_eigen_property(self):
        rng = seeded(39)
        for k in (2, 4):
            ap = random_eigen_map(rng, PRIMES_TO_200[:25], 5)
            g0 = expansion_from_eigenvalues(k, 1, trivial_character(1), ap, 100)
            g = p_stabilize(g0, ap[5], 1, 5, 3)
            from symsq.padic import hensel_unit_root
            alpha = hensel_unit_root(PAdicInt(5, 3, ap[5]),
                                     PAdicInt(5, 3, 5**(k - 1)))
            assert coeffs_agree(hecke_U(g, 5), g.scale(alpha))

    def test_beta_valuation(self):
        rng = seeded(40)
        for k in (2, 3, 4):
            a5 = 1 + 5 * rng.randint(0, 3)
            g0 = make([0, 1, 0, 0, 0, 0], weight=k)
            g = p_stabilize(g0, a5, 1, 5, k + 2)
            beta = -g.coefficient(5)          # a(5) = 0, so b(5) = -beta
            assert beta.val() == k - 1

    def test_zero_form(self):
        g0 = make([0] * 12)
        assert p_stabilize(g0, 1, 1, 5, 2).is_zero()

    def test_not_ordinary(self):
        with pytest.raises(NotOrdinary):
            p_stabilize(make([0, 1]), 5, 1, 5, 2)

    def test_level_already_divisible(self):
        with pytest.raises(BadPrime):
            p_stabilize(make([0, 1], level=5), 1, 1, 5, 2)


class TestPStabilizeRoot:
    """The primitive root reaches every embedding in the q-expansion layer."""

    def stabilize(self, root):
        chi = next(c for c in characters_mod(13) if c.order == 4)
        ap = {q: q % 7 - 3 for q in PRIMES_TO_200 if q <= 60}
        ap[5] = 1
        g0 = expansion_from_eigenvalues(2, 13, chi, ap, 60)
        return chi, ap, p_stabilize(g0, ap[5], chi(5), 5, 4,
                                    primitive_root=root)

    def test_roots_give_distinct_eigenforms(self):
        from symsq.cyclotomic import cyc_embed_padic
        from symsq.padic import hensel_unit_root
        out = {}
        for root in (2, 3):
            chi, ap, g = self.stabilize(root)
            assert g.primitive_root == root
            c = cyc_embed_padic(chi(5), 5, 4, root) * 5
            alpha = hensel_unit_root(PAdicInt(5, 4, ap[5]), c)
            assert coeffs_agree(hecke_U(g, 5), g.scale(alpha)), root
            # T_2 takes chi(2) = zeta_4^(+-1) along the same root
            assert coeffs_agree(hecke_T(g, 2), g.scale(ap[2])), root
            out[root] = g
        assert out[2].coeffs != out[3].coeffs
        with pytest.raises(ValueError):         # two embeddings never mix
            out[2] - out[3]
        with pytest.raises(ValueError):
            QExpansion(2, 1, trivial_character(1), (0, 1), "int", 2)

    def test_root_is_kept_on_the_expansion(self):
        _, _, g = self.stabilize(8)                # 8 = 3 mod 5
        assert g.primitive_root == 3
        _, _, plain = self.stabilize(None)
        assert plain.primitive_root is None
        with pytest.raises(NotEmbeddable):         # 4 is no root mod 5
            self.stabilize(4)


def _tags(f):
    return [(c.p, c.prec, c.residue) for c in f.coeffs]


class TestPStabilizeResidues:
    """The one-pass p_stabilize against the operator composition
    lifted - beta V_p(lifted) of conftest.composed_p_stabilize."""

    def inputs(self, rng):
        chi = next(c for c in characters_mod(13) if c.order == 4)
        ap = {q: rng.randint(-9, 9) for q in PRIMES_TO_200 if q <= 40}
        ap[5] = random_unit(rng, 5, 20)
        k = rng.choice((2, 3, 4))
        yield "int", make([rng.randint(-99, 99) for _ in range(41)], k), \
            ap[5], 1
        yield "fraction", make([Fraction(rng.randint(-99, 99),
                                         rng.choice((1, 2, 3, 7, 12)))
                                for _ in range(41)], k), \
            Fraction(ap[5], 3), Fraction(1, 2)
        yield "cyc", expansion_from_eigenvalues(2, 13, chi, ap, 40), \
            ap[5], chi(5)
        yield "cyc-denominators", make(
            [CycNumber(4, (Fraction(rng.randint(-9, 9), d),
                           Fraction(rng.randint(-9, 9), d)))
             for d in rng.choices((1, 2, 3, 6), k=41)],
            k, 13, chi, "cyc"), ap[5], chi(5) * 3
        # mixed precisions, a short a_p and a p-adic eps: the tags of the
        # result mix the coefficients', a(0)'s and beta's precisions
        yield "padic", make([PAdicInt(5, rng.randint(1, 7),
                                      rng.randrange(5**7))
                             for _ in range(41)], k, ring="padic"), \
            PAdicInt(5, rng.randint(2, 7), ap[5]), PAdicInt(5, 5, 6)

    def test_matches_the_composition(self):
        rng = seeded(44)
        for _ in range(3):
            for name, g0, a_p, eps in self.inputs(rng):
                for root in (2, 3):
                    for prec in (3, 6):
                        got = p_stabilize(g0, a_p, eps, 5, prec, root)
                        want = composed_p_stabilize(g0, a_p, eps, 5, prec,
                                                    root)
                        assert _tags(got) == _tags(want), (name, root, prec)
                        assert got == want, (name, root, prec)
                        if name == "padic":
                            assert len({c.prec for c in got.coeffs}) > 1

    def test_mixed_precision_tags(self):
        # a g0 whose a(0) is less precise than the rest gives mixed tags
        g0 = make((PAdicInt(5, 2, 3),) + tuple(
            PAdicInt(5, 6, c) for c in (1, 7, 2, 9, 4, 11)), ring="padic")
        g = p_stabilize(g0, 1, 1, 5, 6)
        assert [c.prec for c in g.coeffs] == [2, 2, 2, 2, 2, 6, 2]
        assert [c.prec for c in g.truncate(4).coeffs] == [2] * 5

    def test_same_refusals(self):
        chi = next(c for c in characters_mod(13) if c.order == 4)
        cyc = [CycNumber.zero(4), CycNumber(4, (Fraction(1, 10), 1))]
        cases = {
            "fraction": (make([0, 1, Fraction(2, 5), 3]), 1, 1,
                         NotEmbeddable),
            "cyc": (make(cyc, level=13, char=chi, ring="cyc"), 1, chi(5),
                    NotEmbeddable),
            "order": (make([0, CycNumber.zeta(3)], ring="cyc"), 1, 1,
                      NotEmbeddable),
            "a_p": (make([0, 1]), Fraction(1, 5), 1, NotEmbeddable),
            "padic": (make([PAdicInt(5, 3, 1), PAdicInt(7, 3, 2)],
                           ring="padic"), 1, 1, ValueError),
            "padic-a_p": (make([0, 1]), PAdicInt(7, 3, 1), 1, ValueError),
            # the first bad coefficient decides, as in the composition
            "first": (make([0, PAdicInt(7, 3, 1), Fraction(1, 5)]), 1, 1,
                      ValueError),
        }
        for name, (g0, a_p, eps, error) in cases.items():
            for root in (2, 3):
                with pytest.raises(error) as got:
                    p_stabilize(g0, a_p, eps, 5, 4, root)
                with pytest.raises(error) as want:
                    composed_p_stabilize(g0, a_p, eps, 5, 4, root)
                assert type(got.value) is type(want.value), name
                assert str(got.value) == str(want.value), name


class TestScaleResidues:
    def test_tags_are_those_of_padic_mul(self):
        # every tag is what PAdicInt.__mul__ proves, min of the two
        # precisions, never more
        rng = seeded(45)
        f = make([PAdicInt(5, rng.randint(1, 6), rng.randrange(5**6))
                  for _ in range(40)], ring="padic")
        for cprec in (1, 3, 6):
            c = PAdicInt(5, cprec, rng.randrange(5**6))
            got = f.scale(c)
            assert got.ring == "padic" and got.level == f.level
            for a, b in zip(f.coeffs, got.coeffs):
                want = c * a
                assert (b.prec, b.residue) == (want.prec, want.residue)
                assert b.prec == min(a.prec, cprec)
        other = PAdicInt(7, 3, 2)
        with pytest.raises(ValueError) as want:
            other * f.coeffs[0]
        with pytest.raises(ValueError) as got:
            f.scale(other)
        assert str(got.value) == str(want.value)


class TestEigenRecursion:
    def test_coefficient_recursion(self):
        rng = seeded(41)
        for m in (8, 12, 21):
            char = next(c for c in characters_mod(m)
                        if c.order <= 2 and c.is_even())
            ap = random_eigen_map(rng, PRIMES_TO_200[:20], 5)
            k = rng.choice([2, 4])
            f = expansion_from_eigenvalues(k, 1, char, ap, 60)
            for q in (5, 7):
                v = char(q)
                eps = int(v.as_rational()) if v.is_rational() else 0
                assert f.coefficient(q * q) == ap[q]**2 - eps * q**(k - 1)

    def test_cyc_expansion_keeps_int_coefficients(self):
        # a cyc expansion keeps ints where the nebentype does not enter
        chi = next(c for c in characters_mod(13) if c.order == 4)
        ap = {q: q % 5 - 2 for q in PRIMES_TO_200 if q <= 40}
        f = expansion_from_eigenvalues(2, 13, chi, ap, 40)
        assert f.ring == "cyc" and isinstance(f.coeffs[1], int)


class TestTheta:
    def test_trivial_character(self):
        t = theta(trivial_character(1), 10)
        assert t.coefficient(0) == CycNumber.from_rational(Fraction(1, 2))
        for j in (1, 4, 9):
            assert t.coefficient(j) == 1
        assert t.coefficient(2).is_zero()
        assert t.weight == Fraction(1, 2)
        assert t.level == 4

    def test_quadratic_mod_5(self):
        chi = next(c for c in characters_mod(5) if c.order == 2)
        t = theta(chi, 26)
        assert t.coefficient(1) == 1
        assert t.coefficient(4) == -1
        assert t.coefficient(9) == -1
        assert t.coefficient(16) == 1
        assert t.coefficient(25).is_zero()
        assert t.level == 4 * 25

    def test_p_power_conductor_vanishing(self):
        chi = next(c for c in characters_mod(25) if c.order == 5)
        assert chi.is_even()
        t = theta(chi, 200)
        for n in range(0, 201, 5):
            assert t.coefficient(n).is_zero()

    def test_odd_character_rejected(self):
        chi4 = next(c for c in characters_mod(4) if not c.is_trivial())
        with pytest.raises(OddCharacter):
            theta(chi4, 10)
