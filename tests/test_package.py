import ast
import inspect

import symsq


def test_all_names_every_public_import():
    # each name in __all__ resolves, none twice, and every public name
    # that __init__ imports from a submodule is listed
    assert len(set(symsq.__all__)) == len(symsq.__all__)
    for name in symsq.__all__:
        assert hasattr(symsq, name), name
    tree = ast.parse(inspect.getsource(symsq))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} == \
        set(symsq.__all__)
