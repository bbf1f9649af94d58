"""Every input reaches symsq through one decoder per kind.

A fixed-seed hypothesis test mutates valid form records, characters,
Lambda-files, cache entries and argument lists, runs `cli.main` in
process, and requires that nothing but argparse's SystemExit(2) leaves
it.  A mutation that is invalid by construction must exit 2, and a
damaged cache entry must give the answer that no cache gives, both to
lift, which reads entries, and to sigma, which reads none.
"""

import argparse
import contextlib
import copy
import io
import json
import re
import tempfile
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symsq import cli
from symsq.characters import trivial_character
from symsq.errors import SchemaError
from symsq.harness import load_form
from symsq.iwasawa import MAX_WEIGHT, IwasawaElement, padic_problems

from conftest import PRIMES_TO_200, random_eigen_map, seeded

AP = {str(q): str(v) for q, v in
      random_eigen_map(seeded(70), PRIMES_TO_200[:25], 5).items()}
AP["5"] = "1"
FORM = {"label": "toy-11a", "weight": 2, "level": 11,
        "character": trivial_character(11).to_json(), "ap": AP, "p": 5,
        "precision": 4, "trunc": 16,
        "bad_primes": {"11": {"type": "ordinary", "aq": "1"}},
        "flags": {"residually_irreducible": True}}
PSI = {"modulus": 4, "images": [[3, 1]]}            # the character mod 4
LAMBDA = {"p": 5, "precision": 4, "coeffs": ["5", "1"] + ["0"] * 15}

# "@name" in an argument list is the file `name` of the example
COMMANDS = {
    "euler": ("euler", "@form", "-q", "2"),
    "lift": ("lift", "@form", "-q", "2", "--psi", "@psi"),
    "sigma": ("sigma", "@form", "--s0", "2,3", "--psi", "@psi"),
    "report": ("report", "@form", "--s0", "2,3", "--psi", "@psi", "--lfun",
               "@lam"),
    "prep": ("prep", "@lam"),
    "specialize": ("specialize", "@lam", "-n", "1"),
    "congruence": ("congruence", "@lam", "@lam2"),
}
READERS = {"form": ("euler", "lift", "sigma", "report"),
           "psi": ("lift", "sigma", "report"),
           "lam": ("prep", "specialize", "congruence", "report")}
CACHED = {command: COMMANDS[command] + ("--cache-dir", "@cache")
          for command in ("lift", "sigma")}
MISSING = "<missing key>"


class Case(NamedTuple):
    """An argument list, edits of the valid files, and the exit code
    required ("same": the exit code and stdout without --cache-dir)."""

    argv: tuple
    # (file, edit): ("set", path, value), ("cut", k), ("text", s), ("dir",)
    edits: tuple = ()
    expect: object = 2


def _set(rec, path, value):
    if not path:
        return value
    rec = copy.deepcopy(rec)
    node = rec
    for key in path[:-1]:
        node = node[key]
    if value == MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return rec


@lru_cache(maxsize=None)
def _cache_entries() -> dict:
    """The cache entries that sigma writes for the valid files."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _run(Path(tmp), Case(CACHED["sigma"][:-1] + ("@fill",)))
        assert code == 0
        return {f"cache/{p.name}": p.read_text()
                for p in Path(tmp).glob("*/fill/*.json")}


def _run(root: Path, case: Case) -> tuple[int, str]:
    """cli.main on the case's files, as (exit code, stdout)."""
    work = Path(tempfile.mkdtemp(dir=root))
    texts = {"form": json.dumps(FORM), "psi": json.dumps(PSI),
             "lam": json.dumps(LAMBDA), "lam2": json.dumps(LAMBDA)}
    if "@cache" in case.argv:
        texts.update(_cache_entries())
    entries = sorted(k for k in texts if k.startswith("cache/"))
    for name, edit in [(name, edit) for entry, edit in case.edits
                       for name in (entries if entry == "entry" else [entry])]:
        if edit[0] == "set":
            texts[name] = json.dumps(_set(json.loads(texts[name]), *edit[1:]))
        elif edit[0] == "cut":
            texts[name] = texts[name][:edit[1] % len(texts[name])]
        elif edit[0] == "text":
            texts[name] = edit[1]
        else:
            texts[name] = None
    for name, text in texts.items():
        path = work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
    argv = [str(work / a[1:]) if a.startswith("@") else a for a in case.argv]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse refusing the argv
            assert exc.code == 2, exc
            code = 2
    return code, out.getvalue().replace(str(work), "")    # form_source


# -- values that are invalid where they are put -----------------------------

NOT_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.text(max_size=3), st.lists(st.integers(0, 9),
                                                     max_size=2))
NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(),
                    st.text(max_size=3), st.lists(st.integers(0, 9),
                                                  max_size=2), st.just({}))
NOT_RATIONAL = st.one_of(
    st.none(), st.booleans(), st.lists(st.integers(0, 9), max_size=2),
    st.just({}), st.sampled_from([float("nan"), float("inf")]),
    st.sampled_from(["x", "", "1/0", "-2/0", "zeta", "1//2", "nan", "0x10"]))
NOT_DECIMAL = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
    st.lists(st.just("1"), max_size=2),
    st.sampled_from(["x", "", "1.5", "1/2", "0x1", "1e3", "--1"]))
NOT_PRIME_KEY = ["0", "1", "4", "9", "-3", " 2", "02", "x", "2.0", "", "²"]


def _bad_images(g):
    """images lists that do not give a character on the generator g."""
    return st.one_of(NOT_OBJECT, st.sampled_from([
        [], [[g]], [[g, 1, 0]], [[str(g), 1]], [[g, "1"]], [[g, True]],
        [[True, 1]], [[g, 0.5]], [[g + 1, 1]], [f"{g}1"], [[g, 1], [g, 1]],
        [{str(g): 1}]]))


def _int_below(least):
    return st.one_of(NOT_INT, st.integers(max_value=least - 1))


FORM_EDITS = [
    ((), NOT_OBJECT),
    (("weight",), st.one_of(_int_below(2), st.just(MAX_WEIGHT + 1))),
    (("level",), st.one_of(_int_below(1), st.sampled_from([22, 33, 55]))),
    (("p",), st.one_of(_int_below(5), st.sampled_from([9, 11, 25]))),
    (("precision",), _int_below(1)),
    (("trunc",), _int_below(1)),
    (("character",), NOT_OBJECT),
    (("character", "modulus"), st.one_of(NOT_INT, st.integers(-5, 10))),
    (("character", "images"), _bad_images(2)),
    (("ap",), NOT_OBJECT),
    (("ap", "2"), NOT_RATIONAL),
    (("ap", "5"), st.sampled_from(["0", "5", "10", "1/5", "-25/3"])),
    (("bad_primes",), st.one_of(NOT_OBJECT, st.just({}))),
    (("bad_primes", "11"), st.one_of(NOT_OBJECT, st.sampled_from([
        {}, {"type": "split"}, {"type": "ordinary"}, {"type": None},
        {"type": "depleted", "aq": "1"}, {"poly": 5}, {"poly": "12"},
        {"poly": []}, {"poly": ["2"]}, {"poly": {"0": "1"}},
        {"poly": ["1", {"order": 3}]}, {"poly": ["1", "x"]},
        {"poly": ["1", {"order": 0, "coeffs": []}]},
        {"poly": ["1", {"order": 3, "coeffs": ["1"]}]},
        {"poly": ["1", "0", "0", "0", "1"]}]))),
    (("bad_primes", "11", "aq"), st.one_of(NOT_RATIONAL, st.just("0"))),
]
FORM_DELETIONS = [(k,) for k in ("label", "weight", "level", "character",
                                 "ap", "p", "precision", "trunc",
                                 "bad_primes")] + [
    ("ap", "5"), ("bad_primes", "11"), ("character", "modulus"),
    ("character", "images")]
PSI_EDITS = [((), NOT_OBJECT),
             (("modulus",), st.one_of(NOT_INT, st.integers(-5, 3),
                                      st.sampled_from([8, 12]))),
             (("images",), _bad_images(3))]
LAMBDA_EDITS = [
    ((), NOT_OBJECT),
    (("p",), st.one_of(_int_below(5), st.sampled_from([9, 25, 49]))),
    (("precision",), _int_below(1)),
    (("coeffs",), st.one_of(NOT_OBJECT, st.sampled_from(
        [[], "12", {"0": "1"}, [1, 2], [1.7] + ["1"] * 16]))),
]
FLAG_VALUES = {
    "-q": ["0", "1", "-11", "4", "9", "x", "", "2.0", " 2", "02", "5"],
    "--s0": ["0", "4,6", "2,1", "2,-3", "x", "2,x", "5", "2;3", " 2"],
    "--t": ["1", "-1", "3", "x", ""],
    "-n": ["0", "-1", "x", ""],
    "--p": ["0", "1", "4", "9", "-5", "3", "11", "x"],
    "--precision": ["0", "-1", "x"],
    "--trunc": ["0", "-1", "x"],
    "--primitive-root": ["0", "1", "4", "5", "x"],
    "--format": ["xml", "", "JSON"],
}
FORM_FLAGS = ("--p", "--precision", "--trunc")
COMMAND_FLAGS = {
    "euler": ("-q",) + FORM_FLAGS,
    "lift": ("-q", "--t", "--primitive-root") + FORM_FLAGS,
    "sigma": ("--s0", "--t", "--primitive-root", "--format") + FORM_FLAGS,
    "report": ("--s0", "--t", "--primitive-root", "--format") + FORM_FLAGS,
    "prep": (),
    "specialize": ("-n",),
    "congruence": (),
}
# a value each flag accepts where it is read
VALID = {"-q": "2", "--s0": "2,3", "-n": "1", "--t": "0", "--p": "7",
         "--precision": "3", "--trunc": "8", "--primitive-root": "2",
         "--format": "json", "--psi": "@psi", "--lfun": "@lam",
         "--cache-dir": "@store"}


def _reads(command) -> set:
    """The flags a command reads: COMMAND_FLAGS and the file flags.
    The commands that lift (the readers of a character) take --psi
    and --cache-dir, and report reads --lfun."""
    files = set()
    if command in READERS["psi"]:
        files |= {"--psi", "--cache-dir"}
    if command == "report":
        files.add("--lfun")
    return set(COMMAND_FLAGS[command]) | files


ALL_FLAGS = sorted(set().union(*map(_reads, COMMANDS)))


def _edits(table, deletions):
    """One field set to a value invalid there, one deleted, or the file
    cut short."""
    return st.one_of(
        *[st.tuples(st.just("set"), st.just(path), values)
          for path, values in table],
        st.sampled_from([("set", path, MISSING) for path in deletions]),
        st.tuples(st.just("cut"), st.integers(0, 10**6)))


FILE_EDITS = {
    "form": st.one_of(
        _edits(FORM_EDITS, FORM_DELETIONS),
        st.sampled_from(NOT_PRIME_KEY).map(lambda k: ("set", ("ap", k), "1")),
        st.sampled_from(NOT_PRIME_KEY + ["3"]).map(
            lambda k: ("set", ("bad_primes", k), {"type": "depleted"}))),
    "psi": _edits(PSI_EDITS, [("modulus",), ("images",)]),
    "lam": _edits(LAMBDA_EDITS + [(("coeffs", 0), NOT_DECIMAL)],
                  [("p",), ("precision",), ("coeffs",)]),
}


@st.composite
def file_cases(draw):
    """An input file edited, read by one command that reads it."""
    name = draw(st.sampled_from(sorted(READERS)))
    edit = draw(FILE_EDITS[name])
    command = draw(st.sampled_from(READERS[name]))
    return Case(COMMANDS[command], ((name, edit),))


@st.composite
def argv_cases(draw):
    """A command line with one value or one argument gone wrong."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(COMMANDS[command])
    how = draw(st.sampled_from(("flag",) * bool(COMMAND_FLAGS[command])
                               + ("foreign", "drop", "unknown", "file")))
    if how == "flag":
        flag = draw(st.sampled_from(COMMAND_FLAGS[command]))
        value = draw(st.sampled_from(FLAG_VALUES[flag]))
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    elif how == "foreign":                  # a flag another command reads
        flag = draw(st.sampled_from(
            [f for f in ALL_FLAGS if f not in _reads(command)]))
        argv += [flag, VALID[flag]]
    elif how == "drop":
        required = [i for i, a in enumerate(argv)
                    if a in ("-q", "--s0", "-n") or a.startswith("@")]
        i = draw(st.sampled_from(required))
        del argv[i:i + 1 + (not argv[i].startswith("@"))]
    elif how == "unknown":                  # --output is retired too
        i = draw(st.integers(0, len(argv)))
        argv[i:i] = draw(st.sampled_from((["--bogus"], ["--output", "x"])))
    else:
        i = draw(st.sampled_from([i for i, a in enumerate(argv)
                                  if a.startswith("@")]))
        argv[i] = draw(st.sampled_from(("@nowhere", "@dir")))
        return Case(tuple(argv), (("dir", ("dir",)),))
    return Case(tuple(argv))


ENTRY_EDITS = st.one_of(_edits(LAMBDA_EDITS + [
    (("p",), st.just(7)), (("precision",), st.sampled_from([3, 5])),
    (("coeffs", 0), NOT_DECIMAL)], [("p",), ("coeffs", -1)]),
    st.just(("dir",)))


@st.composite
def cache_cases(draw):
    """Every cache entry damaged alike: the answer must be the uncached one."""
    argv = CACHED[draw(st.sampled_from(sorted(CACHED)))]
    return Case(argv, (("entry", draw(ENTRY_EDITS)),), "same")


@st.composite
def ignored_cases(draw):
    """The form record's flags key is ignored, whatever it holds."""
    value = draw(st.one_of(NOT_OBJECT, st.just(MISSING)))
    command = draw(st.sampled_from(READERS["form"]))
    return Case(COMMANDS[command], (("form", ("set", ("flags",), value)),), 0)


def _form(command, path, value, expect=2, s0=None):
    argv = COMMANDS[command]
    if s0 is not None:
        argv = argv[:3] + (s0,) + argv[4:]
    return Case(argv, (("form", ("set", path, value)),), expect)


def _lam(command, path, value):
    return Case(COMMANDS[command], (("lam", ("set", path, value)),))


def _q(command, q):
    return Case(tuple(q if a == "2" else a for a in COMMANDS[command]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.one_of(file_cases(), argv_cases(), cache_cases(),
                      ignored_cases()))
# each of these left cli.main with an exception, or read a bad value as
# another one and exited 0, before files, form records, Lambda-elements
# and the command line each had one decoder
@example(case=_form("sigma", ("ap",), [1, 2]))
@example(case=_form("sigma", ("ap", "2"), "1/0"))
@example(case=_form("sigma", ("bad_primes",), [1]))
@example(case=_form("sigma", ("bad_primes", "0"), {"type": "depleted"}))
@example(case=_form("sigma", ("bad_primes", "11"), "ordinary"))
@example(case=_form("sigma", ("flags",), [1], expect=0))
@example(case=_form("sigma", ("bad_primes", "11"), {"poly": 5}, s0="11"))
@example(case=_form("sigma", ("bad_primes", "11"),
                    {"poly": ["1", {"order": 3}]}, s0="11"))
@example(case=_form("sigma", ("precision",), True))
@example(case=_form("sigma", ("bad_primes", "11", "aq"), "x"))
@example(case=_form("sigma", ("bad_primes", "11", "aq"), None))
@example(case=_q("euler", "0"))
@example(case=_q("lift", "0"))
@example(case=_q("euler", "1"))
@example(case=_q("euler", "-11"))
@example(case=_q("lift", "-11"))
@example(case=_lam("report", ("coeffs", 0), 1.7))
@example(case=Case(("specialize", "@lam", "-n", "1"), (
    ("lam", ("set", (), {"p": 5, "precision": 2, "coeffs": "12"})),)))
@example(case=_lam("congruence", ("coeffs",), []))
@example(case=_lam("prep", ("precision",), True))
@example(case=Case(CACHED["sigma"][:-1] + ("@lam2",), expect="same"))
# euler has --trunc but no --t, and read --t 8 as --trunc 8
@example(case=Case(COMMANDS["euler"] + ("--t", "8")))
@example(case=Case(COMMANDS["sigma"], (("form", ("text", "[" * 10**5)),)))
def test_nothing_but_argparse_leaves_main(tmp_path_factory, case):
    root = tmp_path_factory.getbasetemp()
    code, out = _run(root, case)
    if case.expect == "same":
        assert (code, out) == _run(root, Case(case.argv[:-2])), case
    else:
        assert code == case.expect, case


def test_each_command_takes_exactly_the_flags_it_reads():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(COMMANDS)
    for command, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings
                   if a.dest != "help"}
        assert options == _reads(command), command


# every command took these flags and ignored those it does not read
UNREAD = [(command, flag) for command in COMMANDS
          for flag in ("--p", "--precision", "--trunc", "--primitive-root",
                       "--cache-dir", "--format")
          if flag not in _reads(command)]


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[f"{c}{f}" for c, f in UNREAD])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, command, flag):
    assert len(UNREAD) == 22
    assert _run(tmp_path, Case(COMMANDS[command]))[0] == 0
    assert _run(tmp_path, Case(COMMANDS[command] + (flag, VALID[flag]))) \
        == (2, "")


# every command wrote to the file --output named; stdout is the one
# output now, and --output is refused like any flag a command lacks
OUTPUT = [([command, *(a.lstrip("@") for a in argv[1:]), "--output", "x"],
           "--output x") for command, argv in COMMANDS.items()]


# argparse handed a subcommand's leftover arguments back to the
# top-level parser, whose usage line names no flag of the subcommand
@pytest.mark.parametrize("argv, leftover", OUTPUT + [
    (["prep", "L.json", "--precision", "0"], "--precision 0"),
    (["specialize", "L.json", "-n", "1", "--p", "4"], "--p 4"),
    (["euler", "F.json", "-q", "2", "--primitive-root", "4"],
     "--primitive-root 4"),
    (["congruence", "F.json", "G.json", "--format", "json"], "--format json"),
    (["prep", "L.json", "M.json"], "M.json")],
    ids=[f"{command}-output" for command in COMMANDS] + [
        "prep-precision", "specialize-p", "euler-primitive-root",
        "congruence-format", "prep-extra"])
def test_a_refused_argument_shows_the_usage_of_its_command(capsys, argv,
                                                           leftover):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: symsq {argv[0]} [-h]"), err
    assert err.endswith(f"symsq {argv[0]}: error: unrecognized arguments: "
                        f"{leftover}\n"), err


def _sigma(*edits, options=()):
    return Case(COMMANDS["sigma"] + options, edits)


# each of these took 3 to 21 s before its exit 2: Fraction expanded the
# power of ten, and trial division factored the modulus or the level.
# The primes differ so that no case finds another's factoring cached.
# Before precision and truncation had bounds, sigma ran 5.6 s to exit 0
# at precision 20000, and was still running after 8 s at trunc 10^6;
# prep ran on at precision 10^5, and for 13 s to exit 0 at p = 1000003
# with precision 100 and lambda = 500.  Before the weight had a bound,
# sigma took 6.6 s to exit 0 at weight 3*10^6.  A cyclotomic value of
# prime order 10^18 + 3 was factored by trial division before its
# coefficient count was checked.
STALLS = {
    "ap-exponent": _sigma(("form", ("set", ("ap", "2"), "1e8000000"))),
    "record-character": _sigma(("form", ("set", ("character", "modulus"),
                                         10**15 + 37))),
    "level": _sigma(("form", ("set", ("level",), 10**15 + 91))),
    "weight": _sigma(("form", ("set", ("weight",), 10**7))),
    "psi": _sigma(("psi", ("set", ("modulus",), 10**15 + 159))),
    "cyc-order": _sigma(("form", ("set", ("bad_primes", "11"), {
        "poly": ["1", {"order": 10**18 + 3, "coeffs": []}]}))),
    "precision": _sigma(("form", ("set", ("precision",), 20000))),
    "trunc": _sigma(("form", ("set", ("trunc",), 10**6))),
    "precision-option": _sigma(options=("--precision", "20000")),
    "trunc-option": _sigma(options=("--trunc", str(10**6))),
    "lambda-precision": Case(COMMANDS["prep"], (
        ("lam", ("set", ("precision",), 10**5)),)),
    "lambda-modulus": Case(COMMANDS["prep"], (("lam", ("set", (), {
        "p": 1000003, "precision": 100,
        "coeffs": ["1000003"] * 500 + ["1"] * 501})),)),
}


@pytest.mark.parametrize("case", STALLS.values(), ids=list(STALLS))
def test_huge_values_are_refused_at_once(tmp_path, case):
    start = time.perf_counter()
    code, _ = _run(tmp_path, case)
    assert code == 2
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p, precision", [
    (4, 3), (7.5, 3), (True, 3), (10**30, 3), (5, 3.9), (5, 0), (5, 101),
    (5, True), (17, 100), (1000003, 19)])
def test_one_padic_rule_for_every_decoder(tmp_path, p, precision):
    # each decoder spelled out its own p and precision checks
    rule = "; ".join(padic_problems(p, precision))
    assert rule
    edit = {"p": p, "precision": precision}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(FORM | edit))
    for decode in (lambda: load_form(path),
                   lambda: IwasawaElement.from_json(LAMBDA | edit)):
        with pytest.raises(SchemaError, match=re.escape(rule)):
            decode()


# strong pseudoprimes to the bases 2..37 and 2..41: is_prime took both
# for primes, so each decoder that asks it accepted them and answered
# (--s0 and -q go through parse_prime, as the ap keys do)
PSEUDOPRIMES = {
    f"{name}-{n}": case
    for n in (318665857834031151167461, 3317044064679887385961981)
    for name, case in (
        ("lambda-p", Case(COMMANDS["specialize"],
                          (("lam", ("set", ("p",), n)),))),
        ("record-p", _sigma(("form", ("set", (), FORM | {
            "p": n, "ap": AP | {str(n): "1"}})))),
        ("ap-key", _sigma(("form", ("set", ("ap",), AP | {str(n): "1"})))))
}


@pytest.mark.parametrize("case", PSEUDOPRIMES.values(), ids=list(PSEUDOPRIMES))
def test_strong_pseudoprimes_exit_2(tmp_path, case):
    assert _run(tmp_path, case) == (2, "")
