"""Print the executable lines of src/symsq that the tier-1 tests never run.

Usage: python tests/line_coverage.py [pytest arguments]

Runs pytest on tests/ in this process under a stdlib sys.settrace line
tracer that records only frames of code compiled from src/symsq.  The
executable lines of a module are those of the co_lines tables of every
code object compiled from it; a def or class line counts once, in the
code that runs the statement.  Tests that run symsq in a subprocess
(``python -m symsq.cli``) are not traced, so a line that only they reach
is listed as not run.  This is information, not a gate: the exit code
is pytest's.  Tracing makes the suite about three times slower.
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symsq"


def executable_lines(path: Path) -> set[int]:
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        first = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(line for _, _, line in code.co_lines()
                     if line and line != first)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def ranges(lines) -> str:
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv) -> int:
    import pytest

    modules = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hits = {name: set() for name in modules}
    known = {}              # co_filename -> its key in hits, or None

    def local(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in modules else None
        return local if known[name] else None

    # the tests' subprocesses import symsq from src too, untraced
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                            *argv])
    finally:
        sys.settrace(None)

    total = unrun = 0
    for name, path in modules.items():
        lines = executable_lines(path)
        missed = lines - hits[name]
        total, unrun = total + len(lines), unrun + len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} "
              f"executable lines not run" + (f": {ranges(missed)}"
                                             if missed else ""))
    print(f"total: {total - unrun:,} of {total:,} executable lines run, "
          f"{unrun:,} not run (subprocess CLI tests are not traced)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
