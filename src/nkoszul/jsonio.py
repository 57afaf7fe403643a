"""JSON schemas for the exchangeable objects.

Scalars serialize as their ``str``: rationals as "p/q" (or "p" when the
denominator is 1), parameter fractions as their canonical string form.
Tensors carry grade and a term list; algebras carry label, n, N and
relations (plus the parameter names when the coefficient field has any);
matrices carry n and a dense entry grid.
"""

from __future__ import annotations

from .freealg import Tensor
from .homog import AlgebraPresentation
from .scalar import QQ, ParameterField


def scalar_from_str(field, text: str):
    if not isinstance(text, str):
        raise ValueError(f"scalar {text!r} is not a JSON string")
    return field.parse(text)


def _int(value, what):
    # bool is a subclass of int, and JSON reads 2.0 as a float
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def tensor_to_obj(t: Tensor) -> dict:
    terms = [
        {"coeff": str(c), "word": list(w)}
        for w, c in sorted(t.terms.items())
    ]
    return {"grade": t.grade, "terms": terms}


def tensor_from_obj(obj: dict, n: int, field) -> Tensor:
    terms = {}
    for item in obj["terms"]:
        word = tuple(_int(a, "word letter") for a in item["word"])
        coeff = scalar_from_str(field, item["coeff"])
        if word in terms:
            raise ValueError(f"duplicate word {word} in tensor JSON")
        terms[word] = coeff
    return Tensor(n, _int(obj["grade"], "grade"), terms)


def algebra_to_obj(A: AlgebraPresentation) -> dict:
    obj = {
        "label": A.label,
        "n": A.n,
        "N": A.N,
        "relations": [tensor_to_obj(r) for r in A.relations],
    }
    if A.field.parameters:
        obj["parameters"] = list(A.field.parameters)
    return obj


def algebra_from_obj(obj: dict) -> AlgebraPresentation:
    if not isinstance(obj, dict):
        raise ValueError("the algebra is not a JSON object")
    params = obj.get("parameters", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ValueError(f"parameters {params!r} is not a list of strings")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    field = ParameterField(params) if params else QQ
    n = _int(obj["n"], "n")
    rels = [tensor_from_obj(r, n, field) for r in obj["relations"]]
    return AlgebraPresentation(n, _int(obj["N"], "N"), rels, label=label, field=field)


def matrix_to_obj(Z) -> dict:
    return {"n": len(Z), "entries": [[str(v) for v in row] for row in Z]}


def matrix_from_obj(obj: dict, field=QQ):
    if not isinstance(obj, dict):
        raise ValueError("the matrix is not a JSON object")
    n = _int(obj["n"], "n")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("matrix entries are not a list of lists")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix entries do not form an n×n grid")
    return [[scalar_from_str(field, v) for v in row] for row in entries]
