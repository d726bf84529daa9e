"""JSON/CSV interchange formats and deterministic report emission.

Wire formats:
  matrix      {"n": int, "rows": [[...], ...]}           row-major reals
  spectrum    {"values": [[re, im], ...]}                 bare reals also accepted
  generator   {"kind": str, "n": int, "seed": int, "margin": real}
  form        {"n": int, "m": int, "kind": str, "entries": [[...], ...]}
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .errors import InputError
from .forms import FormMatrix, overlap_matrix
from .linalg import as_matrix
from .mclass import GeneratorSpec


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from None


def _require(d, name: str):
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object with field {name!r}")
    if name not in d:
        raise InputError(f"missing field {name!r}")
    return d[name]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"field {name!r} must be an integer")
    return int(value)


def _as_real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"field {name!r} must be a real number")
    return float(value)


def matrix_from_dict(d) -> np.ndarray:
    n = _as_int(_require(d, "n"), "n")
    rows = _require(d, "rows")
    if n < 1:
        raise InputError("field 'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"field 'rows' must be a list of {n} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"field 'rows'[{i}] must be a list of length {n}")
    try:
        return as_matrix(rows)
    except InputError as exc:
        raise InputError(f"field 'rows': {exc}") from None


def matrix_to_dict(a) -> dict:
    m = as_matrix(a)
    return {"n": int(m.shape[0]), "rows": [[float(x) for x in row] for row in m]}


def spectrum_from_dict(d) -> np.ndarray:
    values = _require(d, "values")
    if not isinstance(values, list) or not values:
        raise InputError("field 'values' must be a nonempty list")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, list):
            if len(v) != 2:
                raise InputError(f"field 'values'[{i}] must be [re, im]")
            out.append(complex(_as_real(v[0], f"values[{i}][0]"),
                               _as_real(v[1], f"values[{i}][1]")))
        else:
            out.append(complex(_as_real(v, f"values[{i}]"), 0.0))
    return np.array(out, dtype=complex)


def spectrum_to_dict(values) -> dict:
    vals = np.asarray(values, dtype=complex).ravel()
    return {"values": [[float(v.real), float(v.imag)] for v in vals]}


def generator_spec_from_dict(d) -> GeneratorSpec:
    kind = _require(d, "kind")
    if not isinstance(kind, str):
        raise InputError("field 'kind' must be a string")
    n = _as_int(_require(d, "n"), "n")
    seed = _as_int(_require(d, "seed"), "seed")
    margin = _as_real(d.get("margin", 0.1), "margin")
    return GeneratorSpec(kind=kind, n=n, seed=seed, margin=margin)


def _by_overlap(form: FormMatrix, cells: list) -> list:
    """Rows of the dense form with entry (a, b) = cells[|alpha_a & alpha_b|]."""
    return np.array(cells, dtype=object)[overlap_matrix(form.n, form.m)].tolist()


def form_to_dict(form: FormMatrix) -> dict:
    return {"n": form.n, "m": form.m, "kind": form.kind,
            "entries": _by_overlap(form, [float(w) for w in form.weights])}


def form_to_csv(form: FormMatrix, path) -> None:
    rows = _by_overlap(form, [repr(float(w)) for w in form.weights])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _encode(obj):
    """``json.dumps`` hook for the report values that are not plain JSON."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def jsonable(obj):
    """The report as plain JSON values, in field order (what ``--format text`` renders)."""
    return json.loads(json.dumps(obj, default=_encode))


def dumps_report(report: dict) -> str:
    """Deterministic JSON: sorted keys, fixed layout, repr-exact floats."""
    return json.dumps(report, default=_encode, indent=2, sort_keys=True)
