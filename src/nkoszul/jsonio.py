"""JSON schemas for the exchangeable objects.

Scalars serialize as their ``str``: rationals as "p/q" (or "p" when the
denominator is 1), parameter fractions as their canonical string form.
An algebra is read from its label, n, N and relations (plus the parameter
names when the coefficient field has any); each relation carries its grade
and a term list of words and coefficients, and is checked here and turned
into a column dict.  Matrices carry n and a dense entry grid, both ways.
"""

from __future__ import annotations

from .freealg import word_index
from .homog import AlgebraPresentation
from .scalar import ParameterField, parse_rational


def scalar_from_str(parse, text: str):
    if not isinstance(text, str):
        raise ValueError(f"scalar {text!r} is not a JSON string")
    return parse(text)


def _int(value, what):
    # bool is a subclass of int, and JSON reads 2.0 as a float
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def tensor_from_obj(obj: dict, n: int, N: int, parse) -> dict:
    """The relation ``obj``, a grade-N term list, as a column dict."""
    terms = {}
    for item in obj["terms"]:
        word = tuple(_int(a, "word letter") for a in item["word"])
        coeff = scalar_from_str(parse, item["coeff"])
        if word in terms:
            raise ValueError(f"duplicate word {word} in tensor JSON")
        terms[word] = coeff
    grade = _int(obj["grade"], "grade")
    for word in terms:
        if len(word) != grade:
            raise ValueError(f"word {word} does not have grade {grade}")
        if any(a < 0 or a >= n for a in word):
            raise ValueError(f"word {word} out of alphabet range {n}")
    if grade != N:
        raise ValueError(f"relation grade {grade} is not N = {N}")
    return {word_index(w, n): c for w, c in terms.items()}


def algebra_from_obj(obj: dict) -> AlgebraPresentation:
    if not isinstance(obj, dict):
        raise ValueError("the algebra is not a JSON object")
    params = obj.get("parameters", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ValueError(f"parameters {params!r} is not a list of strings")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    field = ParameterField(params) if params else None
    parse = (lambda text: field.parse(text)) if field else parse_rational
    n = _int(obj["n"], "n")
    N = _int(obj["N"], "N")
    rels = [tensor_from_obj(r, n, N, parse) for r in obj["relations"]]
    return AlgebraPresentation(n, N, rels, label=label, parameters=params)


def matrix_to_obj(Z) -> dict:
    return {"n": len(Z), "entries": [[str(v) for v in row] for row in Z]}


def matrix_from_obj(obj: dict):
    if not isinstance(obj, dict):
        raise ValueError("the matrix is not a JSON object")
    n = _int(obj["n"], "n")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("matrix entries are not a list of lists")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix entries do not form an n×n grid")
    return [[scalar_from_str(parse_rational, v) for v in row] for row in entries]
