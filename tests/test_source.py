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
        " until the benchmark-only change of ROADMAP item 1"
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


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _references(tree, skip=None):
    """What ``tree`` uses outside ``skip``: plain names, attribute names that
    are called (``obj.m(...)``), attribute names that are read, and imports.

    Imports are (module, name) pairs, from ``from .module import name`` and
    from ``module.name``.
    """
    refs = {"names": set(), "called": set(), "read": set(), "imported": set()}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            refs["called"].add(node.func.attr)
        if isinstance(node, ast.Name):
            refs["names"].add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                refs["read"].add(node.attr)
            if isinstance(node.value, ast.Name):
                refs["imported"].add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            refs["imported"].update((node.module, alias.name) for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _unused_public_names(sources):
    """The public names defined in ``sources``, a ``{module: source text}``
    dict, that no code in ``sources`` uses outside their own definition.

    A top-level name counts as used from another module through
    "from .module import name" or "module.name".  A method counts as used
    where an attribute of its name is called, a property where one is
    read, so a read of ``args.format`` does not vouch for a dead ``format``
    method.  The owner's type is not resolved: two classes with a method
    of the same name (``coordinates``, ``invert``, ``parse``) still vouch
    for each other.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        others = [refs[m] for m in trees if m != module]
        for qualname, node in _public_definitions(tree):
            own = _references(tree, skip=node)
            *owner, name = qualname.split(".")
            if owner:
                kind = "read" if _is_property(node) else "called"
                used = any(name in r[kind] for r in [own, *others])
            else:
                used = name in own["names"] or any((module, name) in r["imported"] for r in others)
            if not used:
                unused.append(f"{module}.{qualname}")
    return unused


def test_every_public_name_is_used_by_the_program():
    # A public function, class or method must be used by src code outside
    # its own definition; one that only a test calls belongs in the tests.
    # A re-export in __init__.py is not a use.
    sources = {
        path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    }
    unused = _unused_public_names(sources)
    assert [key for key in unused if key not in UNUSED_ALLOWED] == []
    assert set(UNUSED_ALLOWED) <= set(unused)  # no stale exception


def test_an_attribute_read_does_not_vouch_for_a_method():
    sources = {
        "fields": """
class Field:
    def format(self, x):
        return str(x)

    def parse(self, text):
        return int(text)

    @property
    def one(self):
        return 1
""",
        "cli": """
from .fields import Field


def main(args):
    field = Field()
    return field.parse(args.text) if args.format else field.one


if __name__ == "__main__":
    main(None)
""",
    }
    assert _unused_public_names(sources) == ["fields.Field.format"]


# The quotient layer's per-degree loops, which work on word columns only.
COLUMN_ONLY = {
    "homog": (
        "AlgebraPresentation._next_degree",
        "AlgebraPresentation.multiply",
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


# The callers of class_of_word: the one product of the quotient, and the
# characters, which reduce single z-words rather than products.
WORD_REDUCERS = {"homog.AlgebraPresentation.multiply", "manin.chi_A", "manin.chi_J"}


def _callers(tree, attr, scope=()):
    """Qualified names of the functions whose bodies call ``<obj>.attr(...)``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = (*scope, node.name)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr:
            yield ".".join(scope)
        yield from _callers(node, attr, inner)


def test_only_multiply_reduces_products():
    # a second loop over concatenated words would be a copy of multiply
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{q}" for q in _callers(tree, "class_of_word"))
    assert found - WORD_REDUCERS == set()


def test_no_sparse_accumulate_outside_axpy():
    # scalar.axpy is the one loop that drops an entry that cancels; any
    # other "del vec[key]" is a hand-written copy of it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernel = {
            node
            for top in tree.body
            if path.name == "scalar.py" and getattr(top, "name", None) == "axpy"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Delete) and node not in kernel:
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []
    # and it is only that loop: an echelon pivot cancels in it like any other
    # entry, so it takes exactly (acc, c, vec), with no column to leave out
    (axpy,) = [
        top
        for top in ast.parse((SRC / "scalar.py").read_text()).body
        if getattr(top, "name", None) == "axpy"
    ]
    expected = ast.parse("def axpy(acc, c, vec): pass").body[0].args
    assert ast.dump(axpy.args) == ast.dump(expected)


def _sums_by_key(tree):
    """Line numbers of the assignments ``d[k] = ... d.get(...) ...``: a sum
    by key into ``d`` that keeps the entries that cancel."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                for sub in ast.walk(node.value):
                    func = getattr(sub, "func", None)
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(func, ast.Attribute)
                        and func.attr == "get"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == target.value.id
                    ):
                        yield node.lineno


def test_series_sum_through_axpy():
    # the master identity sums its series by key through scalar.axpy and
    # multiplies them through scalar.mul_terms; "d[k] = d.get(k, 0) + v" is
    # a hand-written copy of the kernel
    found = [
        f"{module}.py:{line}"
        for module in ("series", "mmt")
        for line in _sums_by_key(ast.parse((SRC / f"{module}.py").read_text()))
    ]
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


# The modules that make scalars: the fields and their parsers, the algebra
# files, and the generic q_ij of quantum_space.  Past them, scalars bring
# their own + - * ==, and zero and one are the literals 0 and 1.
FIELD_OWNERS = ("scalar.py", "jsonio.py", "algebras.py")


# the field of each node kind that holds a name, an attribute or a parameter
_NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg", ast.keyword: "arg"}


def test_no_field_past_the_parser():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in FIELD_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            key = _NAME_FIELD.get(type(node))
            if key and getattr(node, key) == "field":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_homog_imports_no_scalar():
    tree = ast.parse((SRC / "homog.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and "scalar" in {node.module, *(alias.name for alias in node.names)}
    ]
    assert found == []
