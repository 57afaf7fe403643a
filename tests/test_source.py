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
