import argparse
import ast
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import symsq

MODULES = ("padic", "cyclotomic", "characters", "qexp", "iwasawa", "euler",
           "harness", "cli", "errors")
ROOT = Path(__file__).parents[1]


def test_all_names_every_public_import():
    # each name in __all__ resolves to its module's object, none twice,
    # and __all__ is exactly the names of the module table
    assert len(set(symsq.__all__)) == len(symsq.__all__)
    assert symsq.__all__ == sorted(symsq._MODULE_OF)
    for name in symsq.__all__:
        module = getattr(symsq, symsq._MODULE_OF[name])
        assert getattr(symsq, name) is getattr(module, name), name
    assert set(dir(symsq)) >= set(symsq.__all__)


def test_every_module_resolves_as_an_attribute():
    assert set(symsq._EXPORTS) == set(MODULES)
    for name in MODULES:
        assert getattr(symsq, name) is sys.modules[f"symsq.{name}"], name
    assert set(dir(symsq)) >= set(MODULES)
    with pytest.raises(AttributeError, match="no_such_name"):
        symsq.no_such_name


def test_every_public_name_has_a_use():
    # a public name is used outside its own definition and __init__: by
    # the library, the benchmark or the acceptance suite; a name that only
    # the other tests reach is not part of the library.  A use is a Name,
    # an Attribute or an import of it
    src = ROOT / "src" / "symsq"
    files = [*sorted(src.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        if path == src / "__init__.py":
            continue
        home = path.stem if path.parent == src else None
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)       # a def or class name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    names = [a.name.rpartition(".")[2] for a in sub.names]
                else:
                    continue
                used.update(name for name in names if not (
                    name == own and symsq._MODULE_OF.get(name) == home))
    assert sorted(set(symsq.__all__) - used) == []


def _modules_loaded(argv):
    """The symsq submodules one command loads in a fresh interpreter,
    where nothing else was imported, after it exits 0."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        import symsq.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert symsq.cli.main(sys.argv[1:]) == 0
        print(*(m[6:] for m in sys.modules if m.startswith("symsq.")))
    """)
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def _readme_module_table():
    """command -> the modules the README says it loads besides cli and
    errors, which `import symsq.cli` loads."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| commands | modules loaded |\n| --- | --- |\n")[1]
    rows = {}
    for line in table[:table.index("\n\n")].splitlines():
        commands, modules = line.strip("|").split("|")
        for command in re.findall(r"`([a-z]+)`", commands):
            rows[command] = set(re.findall(r"`([a-z]+)`", modules))
    sub = next(a for a in symsq.cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(rows) == sorted(sub.choices)
    return rows


def test_lambda_commands_load_no_form_stack(tmp_path):
    # prep, specialize and congruence run on Lambda arithmetic alone
    for name, c0 in (("f", "5"), ("g", "10")):        # T + 5, T + 10
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"p": 5, "precision": 3, "coeffs": [c0, "1"] + ["0"] * 7}))
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    table = _readme_module_table()
    for argv in (["prep", f], ["specialize", f, "-n", 1],
                 ["congruence", f, g]):
        loaded = _modules_loaded(argv)
        assert loaded == {"cli", "errors"} | table[argv[0]], argv
        for name in ("characters", "cyclotomic", "euler", "qexp", "harness"):
            assert name not in loaded, argv


def test_form_commands_load_the_readme_modules(tmp_path):
    # euler, lift, sigma and report --lfun load the form stack and no
    # qexp: q-expansions are no command's input or output
    (tmp_path / "form.json").write_text(json.dumps({
        "label": "footprint", "weight": 2, "level": 1,
        "character": symsq.trivial_character(1).to_json(),
        "ap": {"2": "1", "5": "1"}, "p": 5, "precision": 3, "trunc": 16}))
    (tmp_path / "lfun.json").write_text(json.dumps(
        {"p": 5, "precision": 3, "coeffs": ["1"] + ["0"] * 16}))
    form, lfun = tmp_path / "form.json", tmp_path / "lfun.json"
    table = _readme_module_table()
    for argv in (["euler", form, "-q", 2], ["lift", form, "-q", 2],
                 ["sigma", form, "--s0", 2],
                 ["report", form, "--s0", 2, "--lfun", lfun]):
        loaded = _modules_loaded(argv)
        assert loaded == {"cli", "errors"} | table[argv[0]], argv
        assert "qexp" not in loaded, argv


def test_readme_flag_table_lists_every_flag():
    # the sigma and report rows said "the flags of lift but -q"; every
    # row now names each flag, and a flag change must update the table
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n| --- | --- |\n")[1]
    rows = {}
    for line in table[:table.index("\n\n")].splitlines():
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([a-z]+)`", commands):
            assert command not in rows, command
            rows[command] = set(re.findall(r"`(-[^`]+)`", flags))
    sub = next(a for a in symsq.cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(rows) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings
                   if a.dest != "help"}
        assert rows[command] == options, command
