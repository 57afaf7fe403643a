import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nkoszul"


def test_no_assert_in_library():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Public names that no src code uses, each kept for the reason given.
UNUSED_ALLOWED = {
    "linalg.BasisSolver": (
        "the oracle the tests check g_table against; perfbench/tracer.py wraps it"
        " until the benchmark change of ROADMAP item 4"
    ),
}


def _public_definitions(tree):
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(tree, skip=None):
    """Names, attribute names and imports used in ``tree`` outside ``skip``.

    Imports are (module, name) pairs, from ``from .module import name`` and
    from ``module.name``.
    """
    names, attrs, imported = set(), set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                imported.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            imported.update((node.module, alias.name) for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs, imported


def test_every_public_name_is_used_by_the_program():
    # A public function, class or method must be used by src code outside
    # its own definition; one that only a test calls belongs in the tests.
    # A re-export in __init__.py is not a use.  A top-level name counts as
    # used from another module through "from .module import name" or
    # "module.name"; a method counts as used wherever its attribute name
    # appears.
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused, allowed = [], set()
    for module, tree in trees.items():
        others = [refs[m] for m in trees if m != module]
        for qualname, node in _public_definitions(tree):
            names, attrs, _ = _references(tree, skip=node)
            *owner, name = qualname.split(".")
            if owner:
                used = name in attrs or any(name in other[1] for other in others)
            else:
                used = name in names or any((module, name) in other[2] for other in others)
            if used:
                continue
            key = f"{module}.{qualname}"
            if key in UNUSED_ALLOWED:
                allowed.add(key)
            else:
                unused.append(key)
    assert unused == []
    assert allowed == set(UNUSED_ALLOWED)  # no stale exception


# The quotient layer's per-degree loops, which work on word columns only.
COLUMN_ONLY = {
    "homog": (
        "AlgebraPresentation._next_degree",
        "AlgebraPresentation.class_of_word",
        "AlgebraClass.__mul__",
    ),
    "koszul": ("differential", "_j_slices"),
    "mmt": ("g_table",),
    "manin": ("build_end", "chi_A", "chi_J"),
}


def _function(tree, qualname):
    body = tree.body
    for part in qualname.split("."):
        [node] = [n for n in body if getattr(n, "name", None) == part]
        body = node.body
    return node


def test_hot_loops_do_not_convert_words():
    # a word is its base-n column from the echelon to the characters;
    # index_word/word_index belong at the edges, never per entry here
    found = []
    for module, qualnames in COLUMN_ONLY.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for qualname in qualnames:
            for node in ast.walk(_function(tree, qualname)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("index_word", "word_index"):
                        found.append(f"{module}.{qualname}:{node.lineno}")
    assert found == []


def test_no_division_outside_scalar():
    # int / int is a float, so a scalar is divided only by scalar.div, which
    # keeps the quotient exact; any "/" or "/=" elsewhere could let a float in
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
