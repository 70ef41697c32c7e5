"""Structure checks over the package source."""

import ast
from pathlib import Path

import melbert
from melbert.model import Variant

SRC = Path(melbert.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_code_compares_against_a_variant_name():
    """The heads each variant runs are declared once, in ``Variant``; code
    that branches on a variant's name would be a second declaration."""
    names = {v.value for v in Variant}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Compare):
                if any(isinstance(c, ast.Constant) and c.value in names for c in ast.walk(node)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _dead(modules: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """The functions, classes and methods of ``modules`` (keyed by file stem)
    that no live code reaches, as ``module.name`` or ``module.Class.method``,
    by the rules ``test_nothing_in_src_is_reachable_only_from_tests`` states."""
    defs, methods, named, scopes = {}, {}, {}, {}

    def stem(dotted: str) -> str:  # "melbert.autodiff" -> "autodiff"
        return dotted.removeprefix("melbert").lstrip(".") or "__init__"

    def bind(tree: ast.Module, module: str) -> None:
        scope = scopes[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "melbert"):
                scope.update({a.asname or a.name: (stem(node.module or ""), a.name) for a in node.names})
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "melbert":  # a bare ``import melbert.x`` binds ``melbert``
                        scope[a.asname or "melbert"] = stem(a.name) if a.asname else "__init__"

    def lookup(module: str, name: str):  # a definition's key, a module's stem, or None
        got = scopes[module].get(name)
        if isinstance(got, tuple):
            return lookup(*got)
        return name if got is None and module == "__init__" and name in modules else got

    def module_of(node: ast.expr, module: str):
        if isinstance(node, ast.Attribute):
            owner = module_of(node.value, module)
            got = owner and lookup(owner, node.attr)
        else:
            got = isinstance(node, ast.Name) and lookup(module, node.id)
        return got if got in modules else None

    def uses(nodes, module: str, strings: bool = False) -> set[str]:
        found = set()
        for n in (n for node in nodes for n in ast.walk(node)):
            if isinstance(n, ast.Name):
                found.add(lookup(module, n.id))
            elif isinstance(n, ast.Attribute):
                owner = module_of(n.value, module)
                found |= {lookup(owner, n.attr)} if owner else methods.get(n.attr, set())
            elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
                found |= named.get(n.value, set())
        return found & defs.keys()

    for module, tree in modules.items():
        bind(tree, module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = scopes[module][node.name] = f"{module}.{node.name}"
            defs[key] = (node, module)
            named.setdefault(node.name, set()).add(key)
            for m in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(m, ast.FunctionDef):
                    defs[f"{key}.{m.name}"] = (m, module)
                    for table in (named, methods):
                        table.setdefault(m.name, set()).add(f"{key}.{m.name}")
    todo = {"cli.main"}
    for module, tree in modules.items():
        todo |= uses([s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))], module)
    for i, tree in enumerate(users):
        bind(tree, f"user {i}")
        todo |= uses([tree], f"user {i}", strings=True)
    live = set()
    while todo:
        key = todo.pop()
        live.add(key)
        node, module = defs[key]
        if isinstance(node, ast.ClassDef):
            members = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            todo |= {f"{key}.{m.name}" for m in members if m.name.startswith("__") and m.name.endswith("__")}
            body = node.decorator_list + node.bases + node.keywords + [s for s in node.body if s not in members]
        else:
            body = [node]
        todo |= uses(body, module) - live
    return sorted(defs.keys() - live)


def test_nothing_in_src_is_reachable_only_from_tests():
    """What only tests reach belongs in ``tests/``, or nowhere.

    Live are ``cli.main`` (the ``melbert`` script); whatever the package's
    top-level statements other than definitions refer to (an import only
    binds a name); every ``demos/*.py`` and non-test ``bench/*.py`` file,
    taken whole with its strings, since the bench's tracer looks functions
    up by name; the dunder methods of live classes; and whatever a live
    definition refers to. A bare name means the definition it names in its
    own file or, through a ``from`` import, in a package module. ``a.f``
    means ``f`` of a package module when ``a`` names one (``ad.exp``, not
    ``np.exp``); ``.f`` on anything else reaches every method named ``f``,
    so a live method is never reported dead. A string reaches every
    definition of that name.
    """
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    users = [_parse(p) for p in sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
             if not p.name.startswith("test_")]
    dead = _dead(modules, users)
    assert not dead, "reachable only from tests: " + ", ".join(dead)
    probe = ast.parse("import numpy as np\n\ndef hypot():\n    pass\n\nnp.hypot(3.0, 4.0)\n")
    assert _dead({**modules, "probe": probe}, users) == ["probe.hypot"]  # the check sees a dead definition


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
             for line in _random_uses(_parse(path))]
    assert found == []
    assert _random_uses(_parse(SRC / "rng.py"))  # the check sees a use
