"""JSON/CSV interchange formats and deterministic report emission.

Wire formats:
  matrix      {"n": int, "rows": [[...], ...]}           row-major reals
  spectrum    {"values": [[re, im], ...]}                 bare reals also accepted
  generator   {"kind": str, "n": int, "seed": int, "margin": real}
  form        {"n": int, "m": int, "kind": str, "entries": [[...], ...]}

The form exports read the colex bitmasks as Python ints, one bit count per
entry, so they import no numpy.  The CSV export is the ``csv.writer``
default dialect without the writer: cells are repr floats, which never
need quoting, joined by commas, and every row ends in ``\r\n``.  Matrix
and spectrum records import numpy when they are read or written.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from numbers import Integral, Real

from .errors import InputError
from .forms import FormMatrix, _dense_masks


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


def matrix_from_dict(d):
    from .linalg import as_matrix
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
    from .linalg import as_matrix
    m = as_matrix(a)
    return {"n": int(m.shape[0]), "rows": [[float(x) for x in row] for row in m]}


def spectrum_from_dict(d):
    import numpy as np
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
    import numpy as np
    vals = np.asarray(values, dtype=complex).ravel()
    return {"values": [[float(v.real), float(v.imag)] for v in vals]}


def generator_spec_from_dict(d):
    from .mclass import GeneratorSpec
    kind = _require(d, "kind")
    if not isinstance(kind, str):
        raise InputError("field 'kind' must be a string")
    n = _as_int(_require(d, "n"), "n")
    seed = _as_int(_require(d, "seed"), "seed")
    margin = _as_real(d.get("margin", 0.1), "margin")
    return GeneratorSpec(kind=kind, n=n, seed=seed, margin=margin)


def _by_overlap(form: FormMatrix, cells: list) -> list:
    """Rows of the dense form with entry (a, b) = cells[|alpha_a & alpha_b|]."""
    masks = _dense_masks(form.n, form.m)
    return [[cells[(a & b).bit_count()] for b in masks] for a in masks]


def form_to_dict(form: FormMatrix) -> dict:
    return {"n": form.n, "m": form.m, "kind": form.kind,
            "entries": _by_overlap(form, form.weights)}


def form_to_csv(form: FormMatrix, path) -> None:
    rows = _by_overlap(form, [repr(w) for w in form.weights])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _encode(obj):
    """``json.dumps`` hook for the report values that are not plain JSON."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    np = sys.modules.get("numpy")     # without numpy loaded no array can exist
    if np is not None and isinstance(obj, np.ndarray):
        return obj.tolist()
    if np is not None and isinstance(obj, np.generic):
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
