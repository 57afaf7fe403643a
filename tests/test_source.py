import ast
from pathlib import Path

from nkoszul.linalg import Subspace

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
    ),
    "koszul": (
        "differential",
        "_j_slices",
        "_check_d_squared",
        "_letter_content",
        "_content",
        "_word_contents",
        "_j_contents",
        "_blocks",
    ),
    "mmt": ("g_table",),
    "manin": ("build_end", "_trace", "chi_A", "chi_J", "ferm_series", "kmt_check"),
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


# The letter-content functions of koszul: a content is the multiset of a
# word's letters, held as its sorted letters, so none holds an n-tuple.
CONTENT_FUNCTIONS = ("_letter_content", "_content", "_word_contents", "_j_contents", "_blocks")


def _alphabet_sized(node):
    """Whether ``node`` is ``[...] * n`` (either way round) or ``range(n)``,
    with ``n`` the name ``n`` or any attribute ``.n``."""
    def is_n(expr):
        return (isinstance(expr, ast.Name) and expr.id == "n") or (
            isinstance(expr, ast.Attribute) and expr.attr == "n"
        )

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        sides = (node.left, node.right)
        return any(isinstance(x, (ast.List, ast.Tuple)) for x in sides) and any(map(is_n, sides))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
        return any(is_n(x) for arg in node.args for x in ast.walk(arg))
    return False


def test_content_functions_build_nothing_sized_by_the_alphabet():
    # a content of total m costs m letters whatever n is: no dense count
    # tuple [0] * n, and no loop over the n letters
    tree = ast.parse((SRC / "koszul.py").read_text())
    found = [
        f"koszul.{qualname}:{node.lineno}"
        for qualname in CONTENT_FUNCTIONS
        for node in ast.walk(_function(tree, qualname))
        if _alphabet_sized(node)
    ]
    assert found == []
    # and the check sees both forms
    sized = ast.parse("[0] * n\nrange(A.n)\n(0,) * A.n\nrange(n - 1)\n[0] * m\nrange(k)")
    assert [_alphabet_sized(stmt.value) for stmt in sized.body] == [True] * 4 + [False] * 2


# The one caller of class_of_word: the product of the quotient.  Every other
# element, each character of end(A) included, is formed in the free algebra
# and reduced once.
WORD_REDUCERS = {"homog.AlgebraPresentation.multiply"}


def _callers(tree, attr, scope=()):
    """Qualified names of the functions whose bodies call ``attr(...)`` or
    ``<obj>.attr(...)``, once per call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = (*scope, node.name)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == attr:
                yield ".".join(scope)
        yield from _callers(node, attr, inner)


def test_only_multiply_reduces_products():
    # a second loop over concatenated words would be a copy of multiply
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{q}" for q in _callers(tree, "class_of_word"))
    assert found == WORD_REDUCERS


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


def _row_of_writes(tree):
    """Line numbers of the writes into an echelon's rows: an item stored or
    deleted in ``x.row_of``, ``x.row_of`` itself rebound, or a mutating
    method called on it."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "row_of" and isinstance(node.ctx, ast.Store):
            yield node.lineno
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "row_of":
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if node.func.attr in mutators and isinstance(owner, ast.Attribute) and owner.attr == "row_of":
                yield node.lineno


def test_only_linalg_writes_echelon_rows():
    # a row enters an echelon through Echelon.add, which reduces it against
    # the rows already there (whose keys are the pivots) and is what the
    # benchmark's tracer counts; the
    # rows u ⊗ (row of a rule) ⊗ v of a rewrite echelon are looked up
    # through its lazy row map, never copied in by hand
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        for line in _row_of_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _is_normal_basis(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "normal_basis"


def test_words_are_numbered_by_column():
    # a word is its column everywhere, the Koszul complex's codomains
    # included: no code numbers the normal words by their position, by
    # enumerating a normal_basis(...) result or a name bound to one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_normal_basis(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "enumerate"
                    and node.args
                    and (_is_normal_basis(node.args[0]) or getattr(node.args[0], "id", None) in bound)
                ):
                    found.append(f"{path.stem}.{func.name}:{node.lineno}")
    assert found == []


def _functions(scope, prefix):
    """(qualified name, node) of each function of ``scope``, a method as
    ``prefix`` + class + "." + name; nested functions are left in their
    enclosing one."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def test_subspace_rows_are_named_by_pivot():
    # a subspace is one map from each pivot to its row, and a row of J is
    # named by its pivot word: no code numbers such rows by position, by
    # enumerating an attribute rows, pivots or row_of, or pairs parallel
    # tuples of pivots and rows
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func in _functions(tree, f"{path.stem}."):
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                attrs = [getattr(arg, "attr", None) for arg in node.args]
                if (
                    node.func.id == "enumerate" and attrs[:1] in (["rows"], ["pivots"], ["row_of"])
                    or node.func.id == "zip" and attrs[:2] == ["pivots", "rows"]
                ):
                    found.append(f"{name}:{node.lineno}")
    assert found == []
    assert Subspace.__slots__ == ("ambient_dim", "row_of")


def test_one_lazy_row_class():
    # every row an echelon builds on first use, u ⊗ (row of a rule) ⊗ v at
    # its rightmost window, comes from one dict subclass
    tree = ast.parse((SRC / "linalg.py").read_text())
    lazy = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body)
    ]
    assert len(lazy) == 1, lazy


def _names(node):
    """The names and attribute names read anywhere under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_one_echelon_path():
    # every degree of the ideal is a rewrite echelon over its rules, so an
    # Echelon is never built over another one, and homog never asks which
    # kind of echelon a degree has
    tree = ast.parse((SRC / "linalg.py").read_text())
    [init] = [
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Echelon"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    args = init.args
    assert [a.arg for a in args.args] == ["self", "ncols", "reduced"]
    assert [ast.literal_eval(v) for v in args.defaults] == [False]
    assert not (args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs)
    found = []
    for node in ast.walk(ast.parse((SRC / "homog.py").read_text())):
        if isinstance(node, ast.Call):
            parts = [node]
        elif isinstance(node, ast.Compare):
            parts = [node.left, *node.comparators]
        else:
            continue
        asks = any(getattr(getattr(p, "func", None), "id", None) in ("isinstance", "type") for p in parts)
        if asks and any("echelon" in name.lower() for name in _names(node)):
            found.append(node.lineno)
    assert found == []


def test_package_binds_only_its_version():
    # the package namespace holds __version__ alone: code imports each name
    # from its module, so importing nkoszul imports no module of it
    bound = set()
    for node in ast.walk(ast.parse((SRC / "__init__.py").read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}



# What builds or parses a presentation in the CLI: make_algebra alone.
ALGEBRA_MAKERS = (
    "polynomial", "antisymmetrizer", "quantum_space", "free_algebra", "algebra_from_obj",
)


def _unguarded(body, guarded=False):
    """Lines of the returns and builder calls of ``body`` that no
    ``_preflight`` call precedes on their path.  A file algebra is parsed
    before its pre-flight, so parsing is no build here."""
    for stmt in body:
        blocks = [getattr(stmt, key, []) for key in ("body", "orelse", "finalbody")]
        blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
        if any(blocks):
            for block in blocks:
                yield from _unguarded(block, guarded)
            continue
        calls = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
        }
        if not guarded and (isinstance(stmt, ast.Return) or calls & set(ALGEBRA_MAKERS[:-1])):
            yield stmt.lineno
        guarded = guarded or "_preflight" in calls


def test_every_algebra_command_is_guarded():
    # main hands each command the presentation of make_algebra, the one
    # place that builds or guards one, and make_algebra refuses through the
    # pre-flight every presentation it returns before it is built
    tree = ast.parse((SRC / "cli.py").read_text())
    for maker in ALGEBRA_MAKERS:
        assert set(_callers(tree, maker)) == {"make_algebra"}, maker
    assert set(_callers(tree, "_refuse_above_bound")) == {"make_algebra", "_preflight"}
    assert list(_callers(tree, "make_algebra")) == ["main"]
    assert list(_unguarded(_function(tree, "make_algebra").body)) == []


def test_one_reader_opens_files():
    # every file: input, algebra or matrix, goes through one reader
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.stem}.{q}" for q in _callers(tree, "open"))
    assert found == ["cli._read_json"]


def test_only_cli_renders_reports():
    # the CLI renders every report as JSON; a library result is a record
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "to_obj"
    ]
    assert found == []
