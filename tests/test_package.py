import argparse
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


def test_lambda_commands_load_no_form_stack(tmp_path):
    # prep, specialize and congruence run on Lambda arithmetic alone; the
    # check runs in a fresh interpreter, where nothing else was imported
    for name, c0 in (("f", "5"), ("g", "10")):        # T + 5, T + 10
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"p": 5, "precision": 3, "coeffs": [c0, "1"] + ["0"] * 7}))
    code = textwrap.dedent("""
        import contextlib, io, sys
        import symsq.cli
        f, g = sys.argv[1:]
        runs = [["prep", f], ["specialize", f, "-n", "1"],
                ["congruence", f, g]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [symsq.cli.main(argv) for argv in runs]
        print(codes)
        print(sorted(m for m in sys.modules if m.startswith("symsq.")))
    """)
    paths = [str(tmp_path / "f.json"), str(tmp_path / "g.json")]
    done = subprocess.run([sys.executable, "-c", code, *paths],
                          capture_output=True, text=True, check=True)
    codes, loaded = done.stdout.splitlines()
    assert codes == "[0, 0, 0]"
    for name in ("characters", "cyclotomic", "euler", "qexp", "harness"):
        assert f"'symsq.{name}'" not in loaded, loaded
    assert "'symsq.iwasawa'" in loaded


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
