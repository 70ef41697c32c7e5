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


def _random_uses(tree) -> list[int]:
    """Lines that import the ``random`` module or reach numpy's ``random``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            names = [f"{node.value.id}.random"] if isinstance(node.value, ast.Name) else []
        else:
            continue
        if any(n == r or n.startswith(r + ".") for n in names for r in ("random", "np.random", "numpy.random")):
            lines.append(node.lineno)
    return lines


def test_only_rng_draws_random_numbers():
    """One seed drives every random decision only while ``rng.Rng`` holds
    the package's only generators; an index stream also relies on nothing
    else drawing from the generator it takes over."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"
             for line in _random_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    assert _random_uses(ast.parse((SRC / "rng.py").read_text(encoding="utf-8")))  # the check sees a use
