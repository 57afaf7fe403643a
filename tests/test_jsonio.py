import json
import re
from fractions import Fraction

import pytest

from conftest import columns
from nkoszul import jsonio
from nkoszul.algebras import antisymmetrizer, quantum_space
from nkoszul.freealg import index_word
from nkoszul.scalar import parse_rational


def _tensor_to_obj(k, n, vec):
    terms = [
        {"coeff": str(c), "word": list(index_word(w, k, n))}
        for w, c in sorted(vec.items())
    ]
    return {"grade": k, "terms": terms}


def _algebra_to_obj(A):
    """The inverse of the algebra parser, for writing file: inputs."""
    obj = {
        "label": A.label,
        "n": A.n,
        "N": A.N,
        "relations": [_tensor_to_obj(A.N, A.n, r) for r in A.relations],
    }
    if A.parameters:
        obj["parameters"] = list(A.parameters)
    return obj


def test_scalar_strings():
    Z = [[Fraction(3, 4), Fraction(-5)], [Fraction(0), Fraction(1)]]
    assert jsonio.matrix_to_obj(Z)["entries"] == [["3/4", "-5"], ["0", "1"]]
    assert jsonio.scalar_from_str(parse_rational, "7/2") == Fraction(7, 2)
    assert jsonio.scalar_from_str(parse_rational, "7") == Fraction(7)
    for value in (7, 1.5, None, ["1"]):
        with pytest.raises(ValueError):
            jsonio.scalar_from_str(parse_rational, value)


def test_tensor_roundtrip():
    t = columns(2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(-2)})
    obj = _tensor_to_obj(2, 2, t)
    assert obj == {
        "grade": 2,
        "terms": [
            {"coeff": "1/3", "word": [0, 1]},
            {"coeff": "-2", "word": [1, 0]},
        ],
    }
    assert jsonio.tensor_from_obj(obj, 2, 2, parse_rational) == t


def test_tensor_duplicate_word_rejected():
    obj = {"grade": 1, "terms": [{"coeff": "1", "word": [0]}, {"coeff": "2", "word": [0]}]}
    with pytest.raises(ValueError):
        jsonio.tensor_from_obj(obj, 2, 1, parse_rational)


@pytest.mark.parametrize(
    "grade, word, message",
    [
        (3, [0, 1], "word (0, 1) does not have grade 3"),
        (3, [0, 2, 0], "word (0, 2, 0) out of alphabet range 2"),
        (2, [0, 1], "relation grade 2 is not N = 3"),
    ],
)
def test_relation_checks(grade, word, message):
    obj = {"grade": grade, "terms": [{"coeff": "1", "word": word}]}
    with pytest.raises(ValueError, match=re.escape(message)):
        jsonio.tensor_from_obj(obj, 2, 3, parse_rational)


def test_algebra_roundtrip_rational():
    A = antisymmetrizer(3, 3)
    obj = _algebra_to_obj(A)
    assert json.dumps(obj)  # serializable
    assert "parameters" not in obj
    back = jsonio.algebra_from_obj(obj)
    assert back.n == 3 and back.N == 3
    assert back.ideal_component(3) == A.ideal_component(3)


def test_algebra_roundtrip_parametric():
    Q = quantum_space(2)
    obj = _algebra_to_obj(Q)
    assert obj["parameters"] == ["q12"]
    back = jsonio.algebra_from_obj(obj)
    assert back.parameters == Q.parameters
    assert back.ideal_component(2).dim == 1
    assert back.dim_component(3) == 4


def test_matrix_roundtrip():
    Z = [[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(7, 9)]]
    obj = jsonio.matrix_to_obj(Z)
    assert obj == {"n": 2, "entries": [["1/2", "0"], ["-3", "7/9"]]}
    assert jsonio.matrix_from_obj(obj) == Z
    with pytest.raises(ValueError):
        jsonio.matrix_from_obj({"n": 2, "entries": [["1"]]})
