"""Structure checks over the package source."""

import ast
from pathlib import Path

import melbert
from melbert.model import Variant

SRC = Path(melbert.__file__).parent
ORACLE = "declared_head_param_count"  # the head counts, written apart from the declaration on purpose


def test_no_code_compares_against_a_variant_name():
    """The heads each variant runs are declared once, in ``Variant``; code
    that branches on a variant's name would be a second declaration."""
    names = {v.value for v in Variant}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == ORACLE
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in exempt:
                if any(isinstance(c, ast.Constant) and c.value in names for c in ast.walk(node)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
