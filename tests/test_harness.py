import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsq.characters import (DirichletCharacter, characters_mod,
                              trivial_character)
from symsq.cyclotomic import CycNumber, cyc_embed_padic, embedding_root
from symsq.errors import (NotEmbeddable, NotOrdinary, SchemaError,
                          SymsqError, TruncationTooShort)
from symsq import cli, harness
from symsq.cli import emit_report
from symsq.euler import EulerFactor, SatakeData, euler_to_lambda, symsq_factor
from symsq.harness import (FormRecord, cache_key, invariant_report,
                           lift_factor, load_form)
from symsq.iwasawa import (MAX_PADIC_MODULUS, MAX_PRECISION, MAX_TRUNC,
                           MAX_WEIGHT, TRUNCATION_GUARD, IwasawaElement,
                           congruence_transfer_check, invariants, read_json)

from conftest import (PRIMES_TO_200, characters_with_order_dividing,
                      closed_sigma, embed_mod_p, frobenius_valuation,
                      lucas_sigma, oracle_cache_key, random_eigen_map,
                      schoolbook_mul_trunc, seeded, smallest_primitive_root)


def write_form(tmp_path, name="form.json", **overrides):
    rng = seeded(70)
    ap = {str(q): str(v) for q, v in
          random_eigen_map(rng, PRIMES_TO_200[:25], 5).items()}
    ap["5"] = "1"
    rec = {
        "label": "toy-11a",
        "weight": 2,
        "level": 11,
        "character": trivial_character(11).to_json(),
        "ap": ap,
        "p": 5,
        "precision": 4,
        "trunc": 16,
        "bad_primes": {"11": {"type": "ordinary", "aq": "1"}},
        "flags": {"residually_irreducible": True, "p_distinguished": True},
    }
    rec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return path


def write_p7_form(tmp_path):
    """p = 7, N = 10, D = 60, level 1: the lift at q = 19 has sigma = 49."""
    ap = json.loads(write_form(tmp_path).read_text())["ap"]
    ap["7"] = "1"
    return write_form(tmp_path, level=1,
                      character=trivial_character(1).to_json(), ap=ap, p=7,
                      precision=10, trunc=60, bad_primes={})


def write_order4_form(tmp_path):
    """p = 5, level 13, a nebentype of order 4: eps(2) is a primitive
    4th root of unity, so the Euler factor at 2 depends on the root."""
    chi = next(c for c in characters_mod(13) if c.order == 4)
    return write_form(tmp_path, "order4.json", level=13,
                      character=chi.to_json(),
                      bad_primes={"13": {"type": "ordinary", "aq": "1"}})


def elem(p, prec, *coeffs, trunc=None):
    cs = list(coeffs)
    if trunc is not None:
        cs += [0] * (trunc + 1 - len(cs))
    return IwasawaElement(p, prec, tuple(cs))


class TestLoadForm:
    def test_minimal_record(self, tmp_path):
        form = load_form(write_form(tmp_path))
        assert form.label == "toy-11a"
        assert form.ap[2] is not None
        assert form.satake(2).ramification_type == "unramified"
        assert form.satake(11).ramification_type == "ordinary"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            load_form(path)

    def test_missing_keys_enumerated(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(SchemaError) as err:
            load_form(path)
        for key in ("label", "weight", "ap"):
            assert key in str(err.value)

    def test_not_ordinary(self, tmp_path):
        path = write_form(tmp_path, ap={"2": "1", "5": "10"})
        with pytest.raises(NotOrdinary):
            load_form(path)

    def test_not_embeddable(self, tmp_path):
        chi3 = next(c for c in characters_mod(3) if c.order == 2)
        bad = (chi3.lift_to(33)).to_json()
        path = write_form(tmp_path, level=33, character=bad,
                          bad_primes={"3": {"type": "depleted"},
                                      "11": {"type": "ordinary", "aq": "1"}},
                          p=7)
        # order 2 divides 6, so make it worse: use an order-10 character
        chi11 = next(c for c in characters_mod(11) if c.order == 10)
        path = write_form(tmp_path, level=11, character=chi11.to_json(), p=7)
        with pytest.raises(NotEmbeddable):
            load_form(path)

    def test_level_bound(self, tmp_path):
        # the largest prime level below the bound loads (trial division
        # takes 10^6 steps); a level past it is refused unfactored
        top = 999_999_999_989
        assert top < harness.MAX_LEVEL
        path = write_form(tmp_path, level=top,
                          character=trivial_character(1).to_json(),
                          bad_primes={str(top): {"type": "depleted"}})
        assert load_form(path).level == top
        path = write_form(tmp_path, level=harness.MAX_LEVEL + 1)
        with pytest.raises(SchemaError, match="level"):
            load_form(path)

    def test_weight_bound(self, tmp_path):
        # a local factor holds q^(3(k-1)): sigma took 6.6 s to exit 0 at
        # weight 3*10^6, and was still running at 10^7
        path = write_form(tmp_path, weight=MAX_WEIGHT)
        assert load_form(path).weight == MAX_WEIGHT
        with pytest.raises(SchemaError, match="weight"):
            load_form(write_form(tmp_path, weight=MAX_WEIGHT + 1))

    def test_precision_and_trunc_bounds(self, tmp_path):
        # a record at both bounds loads; one past either, in the record
        # or as an override, is refused on load
        path = write_form(tmp_path, precision=MAX_PRECISION, trunc=MAX_TRUNC)
        form = load_form(path)
        assert (form.precision, form.trunc) == (MAX_PRECISION, MAX_TRUNC)
        for key, top in (("precision", MAX_PRECISION), ("trunc", MAX_TRUNC)):
            with pytest.raises(SchemaError, match=key):
                load_form(write_form(tmp_path, **{key: top + 1}))
            with pytest.raises(SchemaError, match=key):
                load_form(write_form(tmp_path), **{key: top + 1})

    def test_modulus_bound(self, tmp_path):
        # p^precision up to 13^100 loads; past it, in the record or by
        # an override, it is refused on load (p = 17 at precision 100
        # used to load, and a lift or a preparation grows with p^N)
        ap = json.loads(write_form(tmp_path).read_text())["ap"]
        ap.update({"13": "1", "17": "1"})
        path = write_form(tmp_path, ap=ap, p=13, precision=MAX_PRECISION)
        assert load_form(path).p**MAX_PRECISION == MAX_PADIC_MODULUS
        with pytest.raises(SchemaError, match="MAX_PADIC_MODULUS"):
            load_form(write_form(tmp_path, ap=ap, p=17,
                                 precision=MAX_PRECISION))
        with pytest.raises(SchemaError, match="MAX_PADIC_MODULUS"):
            load_form(path, p=17)
        with pytest.raises(SchemaError, match="MAX_PADIC_MODULUS"):
            load_form(write_form(tmp_path, ap=ap, p=17),
                      precision=MAX_PRECISION)

    def test_character_and_overrides_must_divide_the_level(self, tmp_path,
                                                            capsys):
        chi3 = next(c for c in characters_mod(3) if c.order == 2)
        ordinary = {"type": "ordinary", "aq": "1"}
        for overrides, message in (
                ({"character": chi3.to_json()},
                 "character modulus 3 does not divide the level 11"),
                ({"bad_primes": {"11": ordinary, "3": {"type": "depleted"}}},
                 "bad-prime override at 3 but 3 does not divide the level "
                 "11")):
            path = write_form(tmp_path, **overrides)
            with pytest.raises(SchemaError, match=message):
                load_form(path)
            capsys.readouterr()
            assert cli.main(["euler", str(path), "-q", "2"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: SchemaError: ")
            assert message in err

    @pytest.mark.parametrize("entry", [{}, {"aq": "1"}, {"type": "split"}])
    def test_bad_prime_entry_needs_a_type_or_a_poly(self, tmp_path, entry):
        path = write_form(tmp_path, bad_primes={"11": entry})
        with pytest.raises(SchemaError) as err:
            load_form(path)
        assert str(err.value) == ("bad-prime entry at 11: needs a type "
                                  "(ordinary|depleted) or a poly")

    def test_record_without_a_p_is_refused(self, tmp_path):
        ap = json.loads(write_form(tmp_path).read_text())["ap"]
        del ap["5"]
        with pytest.raises(SchemaError) as err:
            load_form(write_form(tmp_path, ap=ap))
        assert str(err.value) == (
            "record has no a_5; ordinarity cannot be checked")

    def test_level_prime_entries_required(self, tmp_path):
        path = write_form(tmp_path, bad_primes={})
        with pytest.raises(SchemaError) as err:
            load_form(path)
        assert "11" in str(err.value)

    def test_residually_quadratic_warns(self, tmp_path):
        # (psi*eps)^2 trivial: hypothesis violated, warn but proceed
        chi = next(c for c in characters_mod(11) if c.order == 2)
        form = load_form(write_form(tmp_path, character=chi.to_json()))
        with pytest.warns(RuntimeWarning):
            report = invariant_report(form, trivial_character(1), 0, [2])
        assert report.table

    def test_polynomial_override(self, tmp_path):
        path = write_form(
            tmp_path,
            bad_primes={"11": {"type": "ordinary", "aq": "1",
                               "poly": ["1", "-3", "0", "2"]}})
        form = load_form(path)
        assert form.euler_factor(11).coeffs == (1, -3, 0, 2)

    def test_overrides_replace_record_values(self, tmp_path):
        form = load_form(write_form(tmp_path), precision=6, trunc=20)
        assert (form.p, form.precision, form.trunc) == (5, 6, 20)

    def test_overrides_are_validated(self, tmp_path):
        ap = json.loads(write_form(tmp_path).read_text())["ap"]
        ap["7"] = "14"
        with pytest.raises(NotOrdinary):
            load_form(write_form(tmp_path, ap=ap), p=7)
        with pytest.raises(SchemaError, match="prime to p"):
            load_form(write_form(tmp_path), p=11)
        with pytest.raises(SchemaError, match="trunc"):
            load_form(write_form(tmp_path), trunc=0)


class TestInvariantReport:
    def test_empty_s0(self, tmp_path):
        form = load_form(write_form(tmp_path))
        lfun = elem(5, 4, 0, 1, trunc=16)
        report = invariant_report(form, trivial_character(1), 0, [], lfun)
        assert report.table == []
        assert report.sigma_total == 0
        assert report.lfun["lambda_imprimitive"] == report.lfun["lambda"]

    def test_depleted_primes_contribute_zero(self, tmp_path):
        path = write_form(
            tmp_path, level=33,
            bad_primes={"3": {"type": "depleted"},
                        "11": {"type": "depleted"}})
        form = load_form(path)
        report = invariant_report(form, trivial_character(1), 0, [3, 11])
        assert report.sigma_total == 0

    def test_synthetic_additivity(self, tmp_path):
        form = load_form(write_form(tmp_path))
        lfun = elem(5, 4, 0, 1, trunc=16)     # lambda = 1
        report = invariant_report(form, trivial_character(1), 0, [2, 3], lfun)
        assert report.lfun["mu"] == 0
        assert report.lfun["lambda"] == 1
        expected = 1 + report.sigma_total
        assert report.lfun["lambda_imprimitive"] == expected

    def test_invariants_are_data(self, tmp_path):
        # mu = 0 per row, mu(L_S0) = mu(L) and lambda(L_S0) = lambda(L) +
        # sum(sigma) hold by construction; the report asserts none of them
        # and keeps them as data, with "assertions": [] and "passed": true
        # as constants of the JSON
        form = load_form(write_form(tmp_path))
        report = invariant_report(form, trivial_character(1), 0, [2, 3, 11],
                                  elem(5, 4, 0, 1, trunc=16))
        assert [row["mu"] for row in report.table] == [0, 0, 0]
        assert report.lfun == {
            "mu": 0, "lambda": 1, "mu_imprimitive": 0,
            "lambda_imprimitive": 1 + report.sigma_total}
        out = report.to_json()
        assert (out["assertions"], out["passed"]) == ([], True)
        assert report.to_text().endswith(
            f"L_S0: mu=0 lambda={1 + report.sigma_total}\nPASS\n")

    def test_refuses_an_l_function_it_cannot_read_at_the_form(self, tmp_path):
        form = load_form(write_form(tmp_path))      # p = 5, N = 4, D = 16
        psi = trivial_character(1)
        with pytest.raises(ValueError,
                           match="L-function prime differs from the form's"):
            invariant_report(form, psi, 0, [2], elem(7, 4, 0, 1, trunc=16))
        for lfun in (elem(5, 3, 0, 1, trunc=16), elem(5, 4, 0, 1, trunc=15)):
            with pytest.raises(ValueError, match="L-function precision/"
                                                 "truncation too small"):
                invariant_report(form, psi, 0, [2], lfun)

    def test_refuses_lambda_past_truncation(self, tmp_path):
        # lambda(L) = 6 and sigma_19 = 49 put lambda_S0 past D - 4 = 56,
        # where the truncated product cannot show its unit coefficient
        form = load_form(write_p7_form(tmp_path))
        lfun = elem(7, 10, *([0] * 6 + [1]), trunc=60)
        report = invariant_report(form, trivial_character(1), 0, [2, 19])
        assert report.table[1]["sigma"] == 49
        assert 6 + report.sigma_total > 56
        with pytest.raises(TruncationTooShort):
            invariant_report(form, trivial_character(1), 0, [2, 19], lfun)
        # at the guard itself, lambda_S0 = 7 + 49 = 56 is still reported
        report = invariant_report(form, trivial_character(1), 0, [19],
                                  elem(7, 10, *([0] * 7 + [1]), trunc=60))
        assert report.lfun["lambda_imprimitive"] == 56
        with pytest.raises(TruncationTooShort):
            invariant_report(form, trivial_character(1), 0, [19],
                             elem(7, 10, *([0] * 8 + [1]), trunc=60))

    def test_rejects_p_in_s0(self, tmp_path):
        form = load_form(write_form(tmp_path))
        with pytest.raises(ValueError):
            invariant_report(form, trivial_character(1), 0, [5])

    def test_cache_roundtrip(self, tmp_path):
        form = load_form(write_form(tmp_path))
        cache = tmp_path / "cache"
        first = lift_factor(form, 2, trivial_character(1), 0, None, cache)
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        again = lift_factor(form, 2, trivial_character(1), 0, None, cache)
        fresh = lift_factor(form, 2, trivial_character(1), 0, None, None)
        assert first == again == fresh

    def test_records_that_differ_only_in_label_share_an_entry(
            self, tmp_path, monkeypatch):
        # a lift depends on the factor, q, psi, t, p, N, D and the root,
        # not on the record's label
        cache = tmp_path / "cache"
        psi = trivial_character(1)
        first, second = (load_form(write_form(tmp_path, f"{label}.json",
                                              label=label))
                         for label in ("11a", "11b"))
        lifted = lift_factor(first, 2, psi, 0, None, cache)

        def refuse(*args):
            raise AssertionError("a cached lift was lifted again")

        monkeypatch.setattr(harness, "euler_to_lambda", refuse)
        assert lift_factor(second, 2, psi, 0, None, cache) == lifted
        assert len(list(cache.iterdir())) == 1

    def test_bad_cache_entries_are_misses(self, tmp_path):
        form = load_form(write_form(tmp_path))
        cache = tmp_path / "cache"
        psi = trivial_character(1)
        fresh = lift_factor(form, 2, psi, 0, None, None)
        path = cache / (cache_key(form, 2, psi, 0, None) + ".json")
        other_prec = elem(5, 3, *fresh.coeffs)
        other_trunc = elem(5, 4, *fresh.coeffs[:-1])
        for bad in ("", "{\"p\": 5, \"precis", "[1, 2]",
                    '{"p": 0, "precision": 4, "coeffs": ["1"]}',
                    json.dumps(other_prec.to_json()),
                    json.dumps(other_trunc.to_json())):
            cache.mkdir(exist_ok=True)
            path.write_text(bad)
            assert lift_factor(form, 2, psi, 0, None, cache) == fresh
            # the bad entry was rewritten whole, with no temp file left
            assert IwasawaElement.from_json(
                json.loads(path.read_text())) == fresh
            assert [f.name for f in cache.iterdir()] == [path.name]

    def test_failed_cache_write_leaves_no_temporary_file(self, tmp_path,
                                                         monkeypatch):
        # a directory where the entry belongs makes the rename fail; the
        # <key>.<pid>.tmp file written before it used to stay behind
        form = load_form(write_form(tmp_path))
        psi = trivial_character(1)
        cache = tmp_path / "cache"
        blocker = cache / (cache_key(form, 2, psi, 0, None) + ".json")
        blocker.mkdir(parents=True)
        fresh = lift_factor(form, 2, psi, 0, None, None)
        assert lift_factor(form, 2, psi, 0, None, cache) == fresh
        assert list(cache.iterdir()) == [blocker]

        # a temporary file that cannot be removed either is no error
        def unlink(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(Path, "unlink", unlink)
        assert lift_factor(form, 2, psi, 0, None, cache) == fresh

    def test_factor_built_once_per_lift(self, tmp_path, monkeypatch):
        form = load_form(write_form(tmp_path))
        built = []
        real = harness.symsq_factor

        def counting(*args):
            built.append(args[0].q)
            return real(*args)

        monkeypatch.setattr(harness, "symsq_factor", counting)
        invariant_report(form, trivial_character(1), 0, [2, 3],
                         cache_dir=tmp_path / "cache")
        assert built == [2, 3]
        # a warm cache rebuilds nothing more than the factor itself
        invariant_report(form, trivial_character(1), 0, [2, 3],
                         cache_dir=tmp_path / "cache")
        assert built == [2, 3, 2, 3]


def _grid_form(rng, p, prec, trunc, kind):
    """A form of the report-corpus grid: level 1, a quadratic nebentype
    with an ordinary level prime, or an order-4 nebentype with a
    depleted level prime (order 4 needs 4 | p - 1)."""
    level, bad, chi = 1, {}, trivial_character(1)
    if kind == 1:
        level = rng.choice([q for q in (3, 7, 11, 13, 17) if q != p])
        chi = next(c for c in characters_mod(level) if c.order == 2)
        bad = {level: {"type": "ordinary", "aq": rng.choice((1, -1))}}
    elif kind == 2 and (p - 1) % 4 == 0:
        level = rng.choice([q for q in (5, 13, 17, 29) if q != p])
        chi = rng.choice([c for c in characters_mod(level) if c.order == 4])
        bad = {level: {"type": "depleted"}}
    weight = rng.choice((2, 4, 6))
    bound = {q: int(2 * q**((weight - 1) / 2)) for q in PRIMES_TO_200[:18]}
    ap = {q: rng.randint(-b, b) for q, b in bound.items() if q != level}
    ap[p] = rng.choice([a for a in range(1, 2 * p) if a % p])
    return FormRecord(f"grid-{p}-{trunc}-{kind}", weight, level, chi, ap, p,
                      prec, trunc, bad)


def _grid_commands(tmp_path):
    """Argument lists on 32 seeded _grid_form records at p = 5, 7, 11, 13,
    as {"euler/lift": [...], "sigma": [...], "report": [...]}: euler and
    lift at one prime of S0, sigma and report --lfun in json and text.  One
    record in two is twisted by a quadratic psi, one in two by an even
    t, and S0 keeps the primes whose bound deg P * p^v fits below
    D - TRUNCATION_GUARD - lambda(L)."""
    rng = seeded(93)
    quadratic = [c for m in (3, 4, 8) for c in characters_mod(m)
                 if c.order == 2 and c.conductor == m]
    runs = {"euler/lift": [], "sigma": [], "report": []}
    for i in range(32):
        p = (5, 7, 11, 13)[i % 4]
        prec, trunc = ((4, 16), (10, 60), (20, 120))[i % 3]
        form = _grid_form(rng, p, prec, trunc, i % 3)
        path = tmp_path / f"form{i}.json"
        path.write_text(json.dumps({
            "label": form.label, "weight": form.weight, "level": form.level,
            "character": form.character.to_json(), "p": p,
            "precision": prec, "trunc": trunc,
            "ap": {str(q): str(a) for q, a in form.ap.items()},
            "bad_primes": {str(q): {k: str(v) for k, v in e.items()}
                           for q, e in form.bad_primes.items()}}))
        twist = ["--t", str(rng.choice((2, 4)))] if i % 4 >= 2 else []
        if i % 2:
            psi = tmp_path / f"psi{i}.json"
            psi.write_text(json.dumps(rng.choice(quadratic).to_json()))
            twist += ["--psi", str(psi)]
        lam = rng.randint(0, 6)
        room = trunc - TRUNCATION_GUARD - lam
        s0, size = [], rng.randint(1, 5)
        primes = [q for q in [form.level] * (form.level > 1)
                  + sorted(form.ap) if q != p]
        for q in rng.sample(primes, len(primes)):
            bound = (form.euler_factor(q).degree
                     * p**frobenius_valuation(q, p))
            if bound <= room and len(s0) < size:
                s0.append(q)
                room -= bound
        lfun = tmp_path / f"L{i}.json"
        coeffs = [rng.randrange(p**prec) for _ in range(trunc + 1)]
        coeffs[:lam] = [c * p % p**prec for c in coeffs[:lam]]
        coeffs[lam] += 1 - coeffs[lam] % p
        lfun.write_text(json.dumps(elem(p, prec, *coeffs).to_json()))
        q = str(rng.choice(s0))
        runs["euler/lift"] += [["euler", str(path), "-q", q],
                               ["lift", str(path), "-q", q, *twist]]
        s0 = ["--s0", ",".join(map(str, s0)), *twist]
        for fmt in ("json", "text"):
            runs["sigma"].append(["sigma", str(path), *s0, "--format", fmt])
            runs["report"].append(["report", str(path), *s0,
                                   "--lfun", str(lfun), "--format", fmt])
    return runs


def schoolbook_imprimitive(form, psi, t, s0, lfun):
    """(mu, lambda) of L and of L_S0 = L * prod(P_q) mod p, the latter
    from the schoolbook product of L / p^mu(L) and the lifts lift_factor
    returns, L read at the form's N and D; lambda_S0 is None when the
    product has no unit coefficient up to D."""
    p, m = form.p, form.p**form.precision
    coeffs = [c % m for c in lfun.coeffs[:form.trunc + 1]]
    mu = 0
    while all(c % p**(mu + 1) == 0 for c in coeffs):
        mu += 1
    lam = next(i for i, c in enumerate(coeffs) if c % p**(mu + 1))
    out = [c // p**mu for c in coeffs]
    for q in s0:
        out = schoolbook_mul_trunc(out, lift_factor(form, q, psi, t).coeffs,
                                   p, form.trunc)
    return mu, lam, next((i for i, c in enumerate(out) if c % p), None)


@st.composite
def imprimitive_cases(draw):
    """(form, psi, t, s0, L): a _grid_form record at D = 16 or 60, L with
    mu in {0, 1, 2} and lambda small or near D, at the form's precision
    and truncation or past them, and S0 of up to five primes, half the
    time kept below the guard."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    prec, trunc = draw(st.sampled_from([(4, 16), (10, 60)]))
    form = _grid_form(rng, p, prec, trunc, draw(st.integers(0, 2)))
    psi = draw(st.sampled_from([trivial_character(1)] + [
        c for m in (3, 4, 8) for c in characters_mod(m)
        if c.order == 2 and c.conductor == m]))
    t = draw(st.sampled_from([0, 2]))
    mu = draw(st.integers(0, 2))
    lam = draw(st.one_of(st.integers(0, 8), st.integers(trunc - 8, trunc)))
    n = prec + draw(st.integers(0, 2))
    coeffs = [rng.randrange(p**(n - mu)) for _ in range(
        trunc + 1 + draw(st.integers(0, 3)))]
    coeffs[:lam] = [c * p for c in coeffs[:lam]]
    coeffs[lam] = coeffs[lam] * p + rng.randrange(1, p)
    lfun = IwasawaElement(p, n, tuple(c * p**mu for c in coeffs))
    primes = [q for q in [form.level] * (form.level > 1) + sorted(form.ap)
              if q != p]
    room = trunc - TRUNCATION_GUARD - lam if draw(st.booleans()) else 2 * trunc
    s0 = []
    for q in rng.sample(primes, draw(st.integers(0, 5))):
        bound = form.euler_factor(q).degree * p**frobenius_valuation(q, p)
        if bound <= room:
            s0.append(q)
            room -= bound
    return form, psi, t, s0, lfun


class TestImprimitiveOracle:
    """lambda_S0 = lambda(L) + sum(sigma) and mu_S0 = mu(L), which the
    report gives as data, against the schoolbook product mod p."""

    @staticmethod
    def check(form, psi, t, s0, lfun):
        """The report, or None when it is rightly refused."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                want = schoolbook_imprimitive(form, psi, t, s0, lfun)
            except TruncationTooShort:      # a lift with sigma_q past D
                want = None
            if want is None or want[2] is None \
                    or want[2] > form.trunc - TRUNCATION_GUARD:
                with pytest.raises(TruncationTooShort):
                    invariant_report(form, psi, t, s0, lfun)
                return None
            report = invariant_report(form, psi, t, s0, lfun)
        mu, lam, lam_s0 = want
        assert report.lfun == {"mu": mu, "lambda": lam, "mu_imprimitive": mu,
                               "lambda_imprimitive": lam_s0}
        return report

    def test_on_the_grid_records(self, tmp_path):
        parser, reported = cli._build_parser(), 0
        for argv in _grid_commands(tmp_path)["report"][::2]:
            args = parser.parse_args(argv)
            psi = (trivial_character(1) if args.psi is None else
                   DirichletCharacter.from_json(read_json(args.psi)))
            s0 = [int(q) for q in args.s0.split(",")]
            lfun = IwasawaElement.from_json(read_json(args.lfun))
            reported += self.check(load_form(args.form), psi, args.t, s0,
                                   lfun) is not None
        assert reported == 32

    @given(imprimitive_cases())
    @settings(max_examples=60, deadline=None)
    def test_on_drawn_l_functions(self, case):
        self.check(*case)

    def test_positive_mu_stays_mod_p(self, tmp_path):
        # mu(L) = 2: L / p^2 = 2 + T keeps the product alive mod p, where
        # L times the lifts vanishes mod p
        form = load_form(write_form(tmp_path))
        report = self.check(form, trivial_character(1), 0, [2, 3, 11],
                            elem(5, 4, 50, 25, trunc=16))
        assert report.lfun["mu_imprimitive"] == 2
        assert report.lfun["lambda_imprimitive"] == report.sigma_total > 0


class TestLucasSigmaOracle:
    def test_sigma_tables_on_the_report_grid(self):
        # sigma_q from (1+T)^e = prod (1+T^(p^i))^(e_i) mod p (Lucas), with
        # e mod p^k found by search: no falling factorial, no guard digits
        # and no Kronecker multiply.  S0 keeps the primes whose a-priori
        # bound deg P * p^v, v = v_p(q^(p-1) - 1) - 1, fits below D.
        rng = seeded(91)
        quadratic = [c for m in (3, 4, 8) for c in characters_mod(m)
                     if c.order == 2 and c.conductor == m]
        rows = 0
        for p in (5, 7, 11, 13):
            g = smallest_primitive_root(p)
            for i, (prec, trunc) in enumerate(((10, 60), (20, 120),
                                               (30, 200))):
                form = _grid_form(rng, p, prec, trunc, (p + i) % 3)
                psi = rng.choice([trivial_character(1)] + quadratic)
                t = rng.choice((0, 2, 4))
                s0 = [q for q in [form.level] * (form.level > 1)
                      + sorted(form.ap)
                      if q != p and 3 * p**frobenius_valuation(q, p) <= trunc]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = invariant_report(form, psi, t, s0)
                for row in report.table:
                    q = row["q"]
                    factor = form.euler_factor(q)
                    assert row["mu"] == 0
                    assert row["sigma"] == lucas_sigma(
                        factor.coeffs, psi(q), q, p, t, trunc, g), (p, q)
                    assert row["sigma"] <= \
                        factor.degree * p**frobenius_valuation(q, p)
                    rows += 1
        assert rows > 150


# primes q != p with v = v_p(q^(p-1) - 1) - 1 = 0, 1, 2, 3, by p
Q_BY_V = {5: ((2, 3, 11), (7, 43, 101), (193, 251, 307), (443, 1249, 1693)),
          7: ((2, 3, 5), (31, 67, 79), (19, 1373, 1697), (3449, 4801, 5849)),
          11: ((2, 5, 7), (3, 233, 239), (2663, 3361, 5323),
               (45989, 60527, 75991)),
          13: ((2, 3, 5), (19, 23, 89), (5431, 6173, 9949),
               (239, 5051, 137993))}


@st.composite
def sigma_cases(draw):
    """(form, factor, psi, t, root) at p <= 13, with q of each v up to 3
    and D up to MAX_TRUNC: a symsq factor of each type, or a poly
    override made to vanish to order m at the point s = psi(q) q^(t-1)
    mod p, with its coefficients moved by multiples of p."""
    p = draw(st.sampled_from(sorted(Q_BY_V)))
    v = draw(st.integers(0, 3))
    q = draw(st.sampled_from(Q_BY_V[p][v]))
    psi = draw(st.sampled_from(characters_with_order_dividing(p - 1, 16)))
    t = draw(st.sampled_from([0, 2, 4]))
    roots = [g for g in range(2, p)
             if len({pow(g, i, p) for i in range(p)}) == p - 1]
    root = draw(st.sampled_from([None] + roots))
    kind = draw(st.sampled_from(["unramified", "ordinary", "depleted"]
                                + ["poly"] * 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "poly":
        s = embed_mod_p(psi(q), p, embedding_root(p, root)) \
            * pow(q, t - 1, p) % p
        coeffs = [1]
        for _ in range(rng.randint(1, 3)):          # times 1 + x X
            x = -pow(s, -1, p) if s and rng.random() < 0.7 else \
                rng.randrange(p)
            coeffs = [a + x * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        factor = EulerFactor(q, (1, *(c + p * rng.randint(-3, 3)
                                      for c in coeffs[1:])))
    else:
        a = 0 if kind == "depleted" else rng.choice(
            [x for x in range(-30, 31) if x])
        factor = symsq_factor(SatakeData(q, kind, a, rng.choice([1, -1]),
                                         rng.choice([2, 4])))
    form = FormRecord("closed-sigma", 2, 1, trivial_character(1), {}, p,
                      rng.randint(1, 3), rng.randint(1, MAX_TRUNC))
    return form, factor, psi, t, root


class TestClosedSigma:
    @given(sigma_cases())
    @settings(max_examples=150, deadline=None)
    def test_lambda_is_m_p_to_the_v(self, case):
        # lambda of every lift is sigma_q = m p^v with mu = 0; past D the
        # truncated lift has no unit coefficient and lift_factor refuses it
        form, factor, psi, t, root = case
        p, d = form.p, form.trunc
        # harness._closed_sigma, which the report reads, is checked
        # against both the oracle and the lift
        sigma = closed_sigma(factor, psi, t, p, root)
        lifted = euler_to_lambda(factor, psi, t, p, form.precision, d, root)
        if sigma <= d:
            assert invariants(lifted) == (0, sigma)
            assert harness._closed_sigma(form, factor.q, psi, t, root,
                                         factor) == sigma
        else:
            assert not any(c % p for c in lifted.coeffs)
            with pytest.raises(TruncationTooShort):
                lift_factor(form, factor.q, psi, t, root, factor=factor)
            with pytest.raises(TruncationTooShort):
                harness._closed_sigma(form, factor.q, psi, t, root, factor)

    @pytest.mark.parametrize("refusal", ["p in a denominator",
                                         "order not dividing p - 1",
                                         "sigma past D"])
    def test_refuses_what_the_lift_refuses(self, tmp_path, refusal):
        # the class and message of lift_factor's refusal: a poly override
        # that does not embed at p = 5, or sigma_19 = 49 > D = 40 at p = 7
        if refusal == "sigma past D":
            form, q = load_form(write_p7_form(tmp_path), trunc=40), 19
        else:
            coeff = (Fraction(1, 5) if refusal == "p in a denominator"
                     else CycNumber.zeta(3))
            form, q = FormRecord("override", 2, 11, trivial_character(1),
                                 {5: 1}, 5, 4, 16,
                                 {11: {"poly": (1, coeff)}}), 11
        factor, psi = form.euler_factor(q), trivial_character(1)
        with pytest.raises(SymsqError) as lifted:
            lift_factor(form, q, psi, 0, factor=factor)
        with pytest.raises(SymsqError) as closed:
            harness._closed_sigma(form, q, psi, 0, None, factor)
        assert type(closed.value) is type(lifted.value)
        assert str(closed.value) == str(lifted.value)

    def test_a_refused_row_leaves_no_cache_entry(self, tmp_path):
        # sigma_19 = 49 > D = 40: the row before it is cached, 19 is not
        form = load_form(write_p7_form(tmp_path), trunc=40)
        psi, cache = trivial_character(1), tmp_path / "cache"
        with pytest.raises(TruncationTooShort):
            invariant_report(form, psi, 0, [2, 19], cache_dir=cache)
        assert [f.name for f in cache.iterdir()] == [
            cache_key(form, 2, psi, 0, None) + ".json"]


def _other_primitive_roots(p):
    """The primitive roots mod p past the smallest, and the smallest
    written unreduced (plus p)."""
    roots = [g for g in range(2, p) if len({pow(g, i, p)
                                            for i in range(p - 1)}) == p - 1]
    return roots[1:] + [roots[0] + p]


class TestCacheKey:
    """cache_key joins one encoder's texts around a memo of the part that
    no row changes; conftest.oracle_cache_key is the one sorted
    json.dumps it replaces."""

    def test_grid_records_match_the_oracle(self):
        rng = seeded(94)
        psis = [trivial_character(1)] + [
            c for m in (3, 4, 5, 8) for c in characters_mod(m)
            if c.order in (2, 4) and c.conductor == m]
        for i in range(32):
            p = (5, 7, 11, 13)[i % 4]
            prec, trunc = ((4, 16), (10, 60), (20, 120))[i % 3]
            form = _grid_form(rng, p, prec, trunc, i % 3)
            primes = [q for q in [form.level] * (form.level > 1)
                      + sorted(form.ap) if q != p]
            roots = [None, *_other_primitive_roots(p)]
            for q in primes:
                factor = form.euler_factor(q)
                psi, t = rng.choice(psis), rng.choice((-2, 0, 2))
                for root in roots:
                    want = oracle_cache_key(form, q, psi, t, root, factor)
                    assert cache_key(form, q, psi, t, root,
                                     factor=factor) == want
                    assert cache_key(form, q, psi, t, root) == want

    @given(st.sampled_from((5, 17)), st.integers(2, 4),
           st.sampled_from((1, 2, 4)),
           st.lists(st.one_of(
               st.integers(-60, 60),
               st.fractions(max_denominator=12),
               st.tuples(st.fractions(max_denominator=6),
                         st.fractions(max_denominator=6)).map(
                   lambda c: CycNumber(4, list(c)))),
               min_size=3, max_size=3),
           st.sampled_from(("poly", "ordinary", "depleted")),
           st.fractions(max_denominator=9),
           st.sampled_from((0, 1, 2, 3)), st.sampled_from((-2, 0, 2)),
           st.integers(0, 3), st.integers(1, 30), st.integers(1, 200))
    @settings(max_examples=150, deadline=None)
    def test_records_match_the_oracle(self, p, weight, eps_order, aqs,
                                      bad, bad_value, psi_kind, t,
                                      root_kind, prec, trunc):
        # int, Fraction and order-4 CycNumber eigenvalues; an eps of
        # order 1, 2 or 4 mod 13; a level-13 factor that is a poly with
        # a denominator, ordinary or depleted; psi trivial, quadratic
        # or of order 4; t in {-2, 0, 2}; the root None or explicit
        eps = next(c for c in characters_mod(13) if c.order == eps_order)
        entry = {"poly": (1, bad_value, CycNumber(4, [bad_value, 1]))}
        if bad != "poly":
            entry = {"type": bad, "aq": bad_value if bad == "ordinary"
                     and bad_value else int(bad == "ordinary")}
        form = FormRecord("h", weight, 13, eps,
                          dict(zip((2, 3, 7), aqs)) | {p: 1}, p, prec,
                          trunc, {13: entry})
        psi = ([trivial_character(1)] + [
            next(c for c in characters_mod(m) if c.order == n)
            for m, n in ((3, 2), (4, 2), (5, 4))])[psi_kind]
        roots = [None, *_other_primitive_roots(p)]
        root = roots[root_kind % len(roots)]
        for q in (2, 3, 7, 13):
            factor = form.euler_factor(q)
            assert cache_key(form, q, psi, t, root, factor=factor) == (
                oracle_cache_key(form, q, psi, t, root, factor))

    def test_t_false_and_t_0_write_apart(self, tmp_path):
        # json writes False as false and 0 as 0, so the memo of the
        # row-independent part keys on the type of t as well
        form, psi = load_form(write_form(tmp_path)), trivial_character(1)
        factor = form.euler_factor(2)
        keys = [cache_key(form, 2, psi, t, None) for t in (0, False, 0)]
        assert keys[0] == keys[2] != keys[1]
        assert keys[1] == oracle_cache_key(form, 2, psi, False, None, factor)


class TestPrimitiveRoot:
    """The embedding root is resolved once, by cyclotomic.embedding_root."""

    def test_cache_key_stores_the_resolved_root(self, tmp_path):
        form = load_form(write_order4_form(tmp_path))
        psi = trivial_character(1)
        assert cache_key(form, 2, psi, 0, None) == cache_key(form, 2, psi, 0, 2)
        assert cache_key(form, 2, psi, 0, 8) == cache_key(form, 2, psi, 0, 3)
        assert cache_key(form, 2, psi, 0, 2) != cache_key(form, 2, psi, 0, 3)

    def test_non_primitive_root_refused_before_any_lift(self, tmp_path):
        form = load_form(write_order4_form(tmp_path))
        psi = trivial_character(1)
        for root in (0, 1, 4, 5):
            with pytest.raises(NotEmbeddable):
                invariant_report(form, psi, 0, [], primitive_root=root)
            with pytest.raises(NotEmbeddable):  # psi(2) = 0 embeds nothing
                lift_factor(form, 2, trivial_character(2), 0, root)
            with pytest.raises(NotEmbeddable):
                cache_key(form, 2, psi, 0, root)


class TestCongruenceTransfer:
    def test_plain_congruent_pair(self):
        f = elem(5, 3, 5, 1, trunc=8)         # T + 5
        g = elem(5, 3, 10, 1, trunc=8)        # T + 10
        out = congruence_transfer_check(f, g)
        assert out["congruent"]
        assert out["mu_f"] == 0 and out["lambda_f"] == 1
        assert out["conclusion"] == "transfer_verified"

    def test_positive_mu_no_conclusion(self):
        f = elem(5, 3, 0, 5, trunc=8)         # 5T
        g = elem(5, 3, 25, 5, trunc=8)        # 5T + 25
        out = congruence_transfer_check(f, g)
        assert out["congruent"]
        assert out["mu_f"] == 1
        assert out["conclusion"] == "no_conclusion"

    def test_unit_scalar(self):
        f = elem(5, 3, 0, 1, trunc=8)
        g = elem(5, 3, 0, 2, trunc=8)
        out = congruence_transfer_check(f, g)
        assert out["congruent"] and out["unit"] == 3   # 1 = 3 * 2 mod 5
        assert out["conclusion"] == "transfer_verified"

    def test_counterexample_emitted(self):
        f = elem(5, 3, 0, 1, trunc=8)
        g = elem(5, 3, 0, 0, 1, trunc=8)
        out = congruence_transfer_check(f, g)
        assert out["conclusion"] == "not_congruent"
        assert out["counterexample"]["index"] == 1

    def test_mixed_primes_are_refused(self):
        f = elem(5, 3, 0, 1, trunc=8)
        g = elem(7, 3, 0, 1, trunc=8)
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="mixed primes"):
                congruence_transfer_check(a, b)


_json_text = st.text(st.sampled_from("ab{}[],: \n\"\\\u00e9\u2028\x00"),
                     max_size=6) | st.text(max_size=4)
_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.integers(2**64, 2**200).map(lambda n: -n)
                 | st.floats() | _json_text)
_json_trees = st.recursive(
    _json_scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(_json_text, kids, max_size=4)),
    max_leaves=30)


class TestEmit:
    def test_empty_report_valid_json(self, tmp_path, capsys):
        from symsq.harness import InvariantReport
        rep = InvariantReport("x", 5, 4, 10, trivial_character(1).to_json(),
                              0, [], 0)
        code = emit_report(rep, "json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["sigma_table"] == []

    def test_text_format_ascending_primes(self, tmp_path, capsys):
        from symsq.harness import InvariantReport
        rows = [{"q": q, "type": "unramified", "sigma": 0, "degree": 3,
                 "mu": 0} for q in (2, 3, 7)]
        rep = InvariantReport("x", 5, 4, 10, trivial_character(1).to_json(),
                              0, rows, 0)
        emit_report(rep, "text")
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("q=")]
        assert [int(l.split()[0][2:]) for l in lines] == [2, 3, 7]

    # the emitter writes json.dumps(x, sort_keys=True, indent=2) itself;
    # these compare it with that call, on trees whose strings hold the
    # brackets, commas, newlines and indents it cuts at
    @given(_json_trees)
    @settings(max_examples=250, deadline=None)
    def test_indented_matches_json_dumps(self, tree):
        assert cli._indented(tree) == json.dumps(tree, sort_keys=True,
                                                 indent=2)

    @given(st.lists(st.dictionaries(_json_text, _json_scalars, min_size=1,
                                    max_size=4), min_size=1, max_size=5),
           st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_rows_of_scalars_match_json_dumps(self, rows, depth):
        # a list of dicts of scalars is one encoder call, cut at "},\n{"
        tree = rows
        for _ in range(depth):
            tree = {"rows": tree, "n": len(rows)}
        assert cli._indented(tree) == json.dumps(tree, sort_keys=True,
                                                 indent=2)

    def test_indented_edge_cases(self):
        nan, inf = float("nan"), float("inf")
        cases = [
            {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]], [{}]],
            (1, (2, (3,)), ()), {"é\n\"\\": "ü\u2028\t", "k": ["\x00"]},
            -0.0, 1e300, nan, [nan, inf, -inf, -0.0, 1e-300],
            2**64, -(2**64) - 1, [2**200, {"x": -(2**100)}],
            True, False, None, "", [True, False, None],
            {"rows": [{"q": 2, "s": "},\n    {"}, {"q": 3, "s": "]"}]},
            [{"a": 1}, {}], [{"a": []}, {"b": 1}], [{"a": 1}, [1]],
            {1: [2], 3: 4}, {1.5: [1], -0.0: 2}, {None: [1]},
            {True: [1], False: {"a": [None]}}, [[[[[1]]]]],
        ]
        for x in cases:
            assert cli._indented(x) == json.dumps(x, sort_keys=True,
                                                  indent=2), x

    def test_unordered_keys_keep_the_order_of_one_sort(self):
        # a NaN key orders nothing, so a sort's result hangs on its
        # input order: the keys must be sorted once, as json.dumps does,
        # and a subset must not be sorted again
        nan = float("nan")
        for keys in itertools.permutations((nan, 3.0, 1.0, 2.0)):
            for deep in keys:
                x = {k: [1] if k is deep else i for i, k in enumerate(keys)}
                assert cli._indented(x) == json.dumps(x, sort_keys=True,
                                                      indent=2), x

    def test_refusals_match_json_dumps(self):
        for x in ({1: [1], "a": 2}, [{"a": object()}], {(1, 2): [1]},
                  [1, {10**5000: 0}], [1, [10**5000]]):
            with pytest.raises((TypeError, ValueError)) as want:
                json.dumps(x, sort_keys=True, indent=2)
            with pytest.raises(type(want.value)):
                cli._indented(x)

    def test_emit_report_prints_the_indented_text(self, capsys):
        out = {"conclusion": "not_congruent", "counterexample":
               {"index": 1, "f": "0", "g": "1"}, "lambda_f": 1}
        assert emit_report(out, "json") == 1
        assert capsys.readouterr().out == json.dumps(
            out, sort_keys=True, indent=2) + "\n"


def run_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "symsq.cli", *args],
                          capture_output=True, text=True)


class TestCLI:
    @pytest.fixture(autouse=True)
    def _capture(self, capsys):
        self.capsys = capsys

    def run_cli(self, *args):
        """symsq run in process, read back like a finished subprocess."""
        self.capsys.readouterr()
        code = cli.main(list(args))
        out, err = self.capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    def test_prep_and_specialize(self, tmp_path):
        lam = elem(5, 4, 25, 5, 1, trunc=10)
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(lam.to_json()))
        out = self.run_cli("prep", str(path))
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["mu"] == 0 and payload["lambda"] == 2

        out = self.run_cli("specialize", str(path), "-n", "1")
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == "25"

    def test_prep_states_the_determined_precision(self, tmp_path):
        # P * U factors the truncated polynomial to "precision" digits;
        # as a power series, P is known to "determined_precision" digits
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(
            elem(5, 6, 5, 5, 5, 5, 5, *([1] * 8)).to_json()))
        out = self.run_cli("prep", str(path))
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert (payload["lambda"], payload["precision"],
                payload["determined_precision"]) == (5, 6, 2)

    def test_positive_mu_fails_the_report(self, tmp_path):
        # sigma_43 = m p^v = 1 * 5^1 at p = 5 (see test_euler's
        # test_positive_mu_shows_in_the_lift): at D = 4 the truncated lift
        # has no unit coefficient, and used to read as mu = 1, lambda = 1
        p, q = 5, 43
        psi = next(c for c in characters_mod(16)
                   if c.order == 4 and
                   (cyc_embed_padic(c(q), p, 1) * pow(q, -1, p)).residue == 1)
        psi_path = tmp_path / "psi.json"
        psi_path.write_text(json.dumps(psi.to_json()))
        form_path = write_form(
            tmp_path, level=q, character=trivial_character(1).to_json(),
            precision=2, trunc=4,
            bad_primes={str(q): {"type": "ordinary", "aq": "1"}})
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(p, 2, 0, 1, trunc=10).to_json()))
        form = (str(form_path), "--psi", str(psi_path))
        cache = tmp_path / "cache"
        for n in (1, 2):
            for args in (("lift", *form, "-q", str(q)),
                         ("sigma", *form, "--s0", str(q)),
                         ("report", *form, "--s0", str(q),
                          "--lfun", str(lfun))):
                out = self.run_cli(*args, "--precision", str(n),
                                   "--cache-dir", str(cache))
                assert out.returncode == 2, (n, args, out.stdout)
                assert out.stdout == ""
                assert "TruncationTooShort" in out.stderr
        assert not cache.exists()           # no refused lift is cached
        sigma = ("sigma", *form, "--s0", str(q), "--trunc", "10",
                 "--cache-dir", str(cache))
        out = self.run_cli(*sigma, "--format", "text")
        assert out.returncode == 0, out.stderr
        assert f"q={q:<6} type=ordinary    sigma=5" in out.stdout
        assert out.stdout.endswith("PASS\n")
        # a cache entry with no unit coefficient up to D is not served by
        # lift, the one command that reads entries; sigma reads none
        record = load_form(form_path, trunc=10)
        entry = cache / (cache_key(record, q, psi, 0, None) + ".json")
        assert [f.name for f in cache.iterdir()] == [entry.name]
        entry.write_text(json.dumps(elem(p, 2, 5, trunc=10).to_json()))
        out = self.run_cli("lift", *form, "-q", str(q), "--trunc", "10",
                           "--cache-dir", str(cache))
        assert out.returncode == 2, out.stdout
        assert "TruncationTooShort" in out.stderr
        assert self.run_cli(*sigma).stdout == self.run_cli(*sigma[:-2]).stdout

    def test_congruence_exit_codes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(elem(5, 3, 0, 1, trunc=6).to_json()))
        b.write_text(json.dumps(elem(5, 3, 0, 2, trunc=6).to_json()))
        assert self.run_cli("congruence", str(a), str(b)).returncode == 0
        c = tmp_path / "c.json"
        c.write_text(json.dumps(elem(5, 3, 0, 0, 1, trunc=6).to_json()))
        assert self.run_cli("congruence", str(a), str(c)).returncode == 1

    def test_congruence_refuses_elements_over_different_primes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(elem(5, 3, 0, 1, trunc=6).to_json()))
        b.write_text(json.dumps(elem(7, 3, 0, 1, trunc=6).to_json()))
        for args in ((a, b), (b, a)):
            out = self.run_cli("congruence", *map(str, args))
            assert out.returncode == 2
            assert out.stdout == ""
            assert "mixed primes" in out.stderr

    def test_input_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_subprocess("prep", str(missing)).returncode == 2

    def test_report_determinism_and_cache(self, tmp_path):
        form_path = write_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        cache = tmp_path / "cache"
        args = ("report", str(form_path), "--s0", "2,3", "--lfun", str(lfun))
        first = self.run_cli(*args, "--cache-dir", str(cache))
        second = self.run_cli(*args, "--cache-dir", str(cache))
        nocache = self.run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout == nocache.stdout
        assert list(cache.glob("*.json"))

    def test_truncated_cache_entry_does_not_wedge(self, tmp_path):
        form_path = write_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        cache = tmp_path / "cache"
        args = ("report", str(form_path), "--s0", "2,3", "--lfun", str(lfun))
        assert self.run_cli(*args, "--cache-dir", str(cache)).returncode == 0
        for entry in cache.glob("*.json"):
            text = entry.read_text()
            entry.write_text(text[:len(text) // 2])
        again = self.run_cli(*args, "--cache-dir", str(cache))
        nocache = self.run_cli(*args)
        assert again.returncode == 0, again.stderr
        assert again.stdout == nocache.stdout
        # lift, the one command that reads entries, rewrites them whole
        for q in ("2", "3"):
            lift = ("lift", str(form_path), "-q", q)
            out = self.run_cli(*lift, "--cache-dir", str(cache))
            assert out.returncode == 0, out.stderr
            assert out.stdout == self.run_cli(*lift).stdout
        for entry in cache.glob("*.json"):
            json.loads(entry.read_text())

    @pytest.mark.parametrize("damage", ["wrong coefficients", "truncated"])
    def test_sigma_and_report_read_no_cache_entry(self, tmp_path, damage):
        # an entry that decodes to another lift (lambda 7, where every
        # sigma here is at most 3) or does not decode changes nothing
        form_path = write_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        cache = tmp_path / "cache"
        runs = [(command, str(form_path), "--s0", "2,3", "--format", fmt)
                for command in ("sigma", "report") for fmt in ("json", "text")]
        runs = [run + ("--lfun", str(lfun)) * (run[0] == "report")
                for run in runs]
        assert self.run_cli(*runs[0], "--cache-dir", str(cache)).returncode == 0
        wrong = json.dumps(elem(5, 4, *[0] * 7, 1, trunc=16).to_json())
        for entry in cache.glob("*.json"):
            text = entry.read_text()
            entry.write_text(wrong if damage == "wrong coefficients"
                             else text[:len(text) // 2])
        for run in runs:
            cached = self.run_cli(*run, "--cache-dir", str(cache))
            assert cached.returncode == 0, (run, cached.stderr)
            assert cached.stdout == self.run_cli(*run).stdout, run

    def test_override_p_not_ordinary_is_refused(self, tmp_path):
        ap = json.loads(write_form(tmp_path).read_text())["ap"]
        ap["7"] = "14"
        form_path = write_form(tmp_path, ap=ap)
        out = self.run_cli("sigma", str(form_path), "--s0", "2", "--p", "7",
                           "--format", "text")
        assert out.returncode == 2
        assert "PASS" not in out.stdout
        assert "a_7 = 14" in out.stderr

    def test_override_p_dividing_level_exit_code(self, tmp_path):
        out = self.run_cli("sigma", str(write_form(tmp_path)), "--s0", "2",
                           "--p", "11")
        assert out.returncode == 2
        assert "prime to p = 11" in out.stderr

    def test_report_s0_is_canonical(self, tmp_path):
        form_path = write_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        args = ("report", str(form_path), "--lfun", str(lfun))
        typed = self.run_cli(*args, "--s0", "3,2,2")
        canonical = self.run_cli(*args, "--s0", "2,3")
        assert canonical.returncode == 0, canonical.stderr
        assert typed.stdout == canonical.stdout
        assert json.loads(typed.stdout)["provenance"]["s0"] == [2, 3]

    def test_euler_at_p_exits_2(self, tmp_path):
        out = self.run_cli("euler", str(write_form(tmp_path)), "-q", "5")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("error: ValueError: local data at p is "
                              "handled by stabilization\n")

    def test_sigma_past_the_records_eigenvalues_exits_2(self, tmp_path):
        # the record holds a(q) for q <= 97 only
        out = self.run_cli("sigma", str(write_form(tmp_path)),
                           "--s0", "2,101")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("error: SchemaError: eigenvalue a(101) not in "
                              "the record (bound too small)\n")

    def test_report_past_truncation_exit_code(self, tmp_path):
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(
            elem(7, 10, *([0] * 6 + [1]), trunc=60).to_json()))
        out = self.run_cli("report", str(write_p7_form(tmp_path)),
                           "--s0", "2,19", "--lfun", str(lfun))
        assert out.returncode == 2
        assert "truncation" in out.stderr

    def test_lambda_file_prime_is_validated(self, tmp_path):
        # p = 0 used to end in a ZeroDivisionError traceback, p = 4 in
        # an answer with exit 0
        from symsq.cli import main
        for p in (0, 4):
            path = tmp_path / f"lam{p}.json"
            path.write_text(json.dumps(
                {"p": p, "precision": 3, "coeffs": ["1", "1", "0"]}))
            out = self.run_cli("prep", str(path))
            assert out.returncode == 2, (p, out.stdout)
            assert "Traceback" not in out.stderr
            assert "prime >= 5" in out.stderr
            for argv in (["specialize", str(path), "-n", "1"],
                         ["congruence", str(path), str(path)]):
                assert main(argv) == 2, (p, argv)

    def test_s0_must_hold_primes(self, tmp_path, capsys):
        # --s0 0 used to end in a ZeroDivisionError traceback, and 4,6
        # exited 2 only because a(4) is missing from the record, as did
        # the strong pseudoprimes to the bases 2..37 and 2..41
        from symsq.cli import main
        form_path = str(write_form(tmp_path))
        for s0 in ("0", "4,6", "2,1", "2,-3", "2,318665857834031151167461",
                   "3317044064679887385961981"):
            for cmd in ("sigma", "report"):
                assert main([cmd, form_path, "--s0", s0]) == 2
                assert "S0 must hold primes" in capsys.readouterr().err

    def test_psi_modulus_zero_exits_2(self, tmp_path, capsys):
        from symsq.cli import main
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"modulus": 0, "images": []}))
        for cmd in ("sigma", "report"):
            assert main([cmd, str(write_form(tmp_path)), "--s0", "2,3",
                         "--psi", str(psi)]) == 2
            assert "modulus" in capsys.readouterr().err

    def test_one_process_matches_separate_processes(self, tmp_path, capsys):
        # the argparse tree is built once per process; nothing a command
        # parses may reach the next one
        form_path = str(write_form(tmp_path))
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        report = ["report", form_path, "--s0", "2,3", "--lfun", str(lfun)]
        runs = [report, ["prep", str(lfun)],
                report + ["--format", "text"]]
        separate = "".join(run_subprocess(*argv).stdout for argv in runs)
        capsys.readouterr()
        assert [cli.main(argv) for argv in runs] == [0, 0, 0]
        assert capsys.readouterr().out == separate
        assert cli._build_parser() is cli._build_parser()

    def _digest(self, tmp_path, runs):
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv in runs:
                out = self.run_cli(*argv)
                digest.update(f"{out.returncode}\n".encode())
                digest.update(out.stdout.replace(str(tmp_path), "").encode())
        return digest.hexdigest()

    def test_euler_and_lift_bytes_are_pinned(self, tmp_path):
        # stdout and exit codes on 32 seeded grid records, hashed; the
        # digest was recorded while every command also took --output
        runs = _grid_commands(tmp_path)["euler/lift"]
        assert self._digest(tmp_path, runs) == (
            "d312b3d1cc244c52bd3659cec336701fc2a243d52120714703f3aa36ab6657b0")

    def test_sigma_bytes_are_pinned(self, tmp_path):
        # as above, for sigma in json and text; the digest was recorded
        # while the report still asserted lambda_S0 = lambda + sum(sigma)
        runs = _grid_commands(tmp_path)["sigma"]
        assert self._digest(tmp_path, runs) == (
            "b243d2c71214e5ca8964012faed7ae32dc07db43310a68d258571628d406c228")

    def test_report_bytes_are_pinned(self, tmp_path):
        # as above, for report --lfun in json and text; the digest was
        # recorded once the report stopped asserting lambda_S0 = lambda +
        # sum(sigma) and gave that sum as data
        runs = _grid_commands(tmp_path)["report"]
        assert self._digest(tmp_path, runs) == (
            "102b30d736da9bf4220982c63258e4190cd75ffbad7c6ba096c19862e335c968")

    def test_json_report_never_renders_text(self, tmp_path, monkeypatch,
                                            capsys):
        from symsq.harness import InvariantReport

        def refuse(self):
            raise AssertionError("text rendered for a JSON report")

        monkeypatch.setattr(InvariantReport, "to_text", refuse)
        form_path = str(write_form(tmp_path))
        assert cli.main(["report", form_path, "--s0", "2,3",
                         "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sigma_table"]

    def test_non_primitive_root_exits_2(self, tmp_path):
        # 1 and 4 have order 1 and 2 mod 5, so zeta_4 would go to 1 or
        # -1: no ring map, yet the parent reported PASS
        form_path = write_order4_form(tmp_path)
        for root in ("1", "4"):
            for s0, cache in (("2,3", ()), ("", ()),
                              ("2,3", (f"--cache-dir={tmp_path / 'c'}",))):
                out = self.run_cli("sigma", str(form_path), "--s0", s0,
                                   "--primitive-root", root, *cache)
                assert out.returncode == 2, (root, s0, out.stdout)
                assert f"{root} is not a primitive root mod 5" in out.stderr
        assert not (tmp_path / "c").exists()

    def test_twist_refused_before_any_lift(self, tmp_path):
        # an odd t, or a psi of order 3 at p = 5, was refused only inside
        # a lift, so an empty S0, or one where psi vanishes, exited 0
        form_path = str(write_form(tmp_path))
        psi = tmp_path / "psi3.json"
        psi.write_text(json.dumps(next(
            c for c in characters_mod(7) if c.order == 3).to_json()))
        for twist, message in ((("--t", "1"), "t must be even, got 1"),
                               (("--psi", str(psi)),
                                "order 3 does not divide p - 1 = 4")):
            for command in (("sigma", "--s0", ""), ("sigma", "--s0", "7"),
                            ("report", "--s0", ""), ("lift", "-q", "7")):
                out = self.run_cli(command[0], form_path, *command[1:],
                                   *twist, f"--cache-dir={tmp_path / 'c'}")
                assert out.returncode == 2, (command, twist, out.stdout)
                assert message in out.stderr
        assert not (tmp_path / "c").exists()

    def test_stdout_is_the_same_bytes_in_every_process(self, tmp_path):
        # set and dict order must not leak into the report: two hash seeds
        form_path = write_order4_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        outs = [subprocess.run(
            [sys.executable, "-m", "symsq.cli", "report", str(form_path),
             "--s0", "2,3,13", "--lfun", str(lfun)], capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed}) for seed in "01"]
        assert [out.returncode for out in outs] == [0, 0], outs[0].stderr
        assert outs[0].stdout == outs[1].stdout

    def test_report_records_the_root_reduced_mod_p(self, tmp_path):
        form_path = write_order4_form(tmp_path)
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        args = ("report", str(form_path), "--s0", "2,3", "--lfun", str(lfun))
        eight = self.run_cli(*args, "--primitive-root", "8")
        three = self.run_cli(*args, "--primitive-root", "3")
        default = self.run_cli(*args)
        assert three.returncode == 0, three.stderr
        assert eight.stdout == three.stdout
        assert json.loads(three.stdout)["provenance"]["primitive_root"] == 3
        assert json.loads(default.stdout)["provenance"]["primitive_root"] is None

    def test_lift_primitive_root_end_to_end(self, tmp_path):
        # cli -> harness -> euler: the lift specializes to the factor
        # evaluated along the same root
        from symsq.cyclotomic import CycNumber
        from symsq.euler import evaluate_factor_padic
        from symsq.iwasawa import specialize
        from symsq.padic import PAdicInt, inv
        form_path = write_order4_form(tmp_path)
        form = load_form(form_path)
        x = inv(PAdicInt(5, form.precision, 2))
        lifts = {}
        for root in (None, 3):
            flag = () if root is None else ("--primitive-root", str(root))
            out = self.run_cli("lift", str(form_path), "-q", "2", *flag)
            assert out.returncode == 0, out.stderr
            lifted = IwasawaElement.from_json(json.loads(out.stdout)["lift"])
            want = evaluate_factor_padic(form.euler_factor(2), CycNumber.one(),
                                         x, primitive_root=root)
            assert specialize(lifted, 1) == want
            lifts[root] = lifted
        assert lifts[3] != lifts[None]

    def test_global_flags_before_or_after_the_subcommand(self, tmp_path):
        # every subcommand took seven global flags, before or after it,
        # and the one after won; a flag now goes after the subcommand
        # that reads it, and before it exits 2
        ap = json.loads(write_form(tmp_path).read_text())["ap"]
        ap["7"] = "1"
        form_path = str(write_form(tmp_path, ap=ap))
        flags = ["--format", "text", "--p", "7"]
        sigma = ["sigma", form_path, "--s0", "2,3"]
        after = self.run_cli(*sigma, "--precision", "3", *flags)
        assert after.returncode == 0, after.stderr
        assert after.stdout.startswith("form toy-11a  p=7 N=3 D=16")
        for before in ([*flags, *sigma, "--precision", "3"],
                       ["--precision", "5", *sigma, "--precision", "3"]):
            with pytest.raises(SystemExit) as exc:
                self.run_cli(*before)
            assert exc.value.code == 2
        # the default format is JSON
        assert json.loads(self.run_cli(*sigma).stdout)["sigma_table"]

    def test_without_cache_dir_nothing_is_written(self, tmp_path,
                                                  monkeypatch):
        # lift, sigma and report used to keep their lifts in a
        # .symsq-cache directory made in the working directory
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        form_path = str(write_form(inputs))
        lfun = inputs / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for args in (("lift", form_path, "-q", "2"),
                     ("sigma", form_path, "--s0", "2,3"),
                     ("report", form_path, "--s0", "2,3", "--lfun", str(lfun))):
            out = self.run_cli(*args)
            assert out.returncode == 0, (args, out.stderr)
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in inputs.iterdir()) == ["L.json",
                                                           "form.json"]

    @pytest.mark.parametrize("argv", [
        ("sigma", "@form", "--s0", "2,3", "--no-cache"),
        ("--no-cache", "lift", "@form", "-q", "2"),
        ("prep", "@lam", "--guard", "4"),
    ])
    def test_retired_flags_exit_2(self, tmp_path, argv):
        # --no-cache and prep --guard were removed: the cache is off
        # unless --cache-dir names one, and prep applies TRUNCATION_GUARD
        files = {"@form": str(write_form(tmp_path)),
                 "@lam": str(tmp_path / "L.json")}
        (tmp_path / "L.json").write_text(
            json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*(files.get(a, a) for a in argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in self.capsys.readouterr().err

    def test_unwritable_cache_is_skipped(self, tmp_path):
        # a --cache-dir naming a regular file used to exit 2 with
        # FileExistsError, though the cache flags are not inputs
        form_path = str(write_form(tmp_path))
        lfun = tmp_path / "L.json"
        lfun.write_text(json.dumps(elem(5, 4, 0, 1, trunc=16).to_json()))
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        for args in (("lift", form_path, "-q", "2"),
                     ("sigma", form_path, "--s0", "2,3"),
                     ("report", form_path, "--s0", "2,3", "--lfun", str(lfun))):
            cached = self.run_cli(*args, "--cache-dir", str(blocker))
            assert cached.returncode == 0, (args, cached.stderr)
            assert cached.stdout == self.run_cli(*args).stdout
        assert blocker.read_text() == ""

    def test_euler_and_lift_and_sigma(self, tmp_path):
        form_path = write_form(tmp_path)
        out = self.run_cli("euler", str(form_path), "-q", "2")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["degree"] == 3

        out = self.run_cli("lift", str(form_path), "-q", "2")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["mu"] == 0

        out = self.run_cli("sigma", str(form_path), "--s0", "2,3,11",
                           "--format", "text")
        assert out.returncode == 0
        assert "sigma_total" in out.stdout
