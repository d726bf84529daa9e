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
records import numpy when they are read or written, spectrum records
(input only) when they are read.

Reports are plain JSON values (str-keyed dicts, lists, tuples, str, int,
float, bool, None), as the ``cli`` handlers build them; ``write_report``
raises ``TypeError`` naming any other type, numpy scalars included.  It
writes json's ``indent=2, sort_keys=True`` layout itself, since CPython's
json drops its C encoder whenever ``indent`` is set, and streams: each
container element of a list is joined from its own parts and written at
once, so it holds about one element (one spectrum's report, one form row),
not the document.  The tests keep ``json.dumps`` as the oracle.
"""

from __future__ import annotations

import json
from numbers import Integral, Real

from .defaults import DEFAULT_MARGIN
from .errors import InputError
from .forms import FormMatrix, _dense_masks

_INF = float("inf")
_CONSTANTS = {None: "null", True: "true", False: "false"}
_quote = json.encoder.encode_basestring_ascii


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:     # undecodable bytes, bad or deep JSON
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


def _as_real(value, name: str, *index) -> float:
    """``value`` as a float; the field ``name.format(*index)`` is named only on error."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"field {name.format(*index)!r} must be a real number")
    try:
        return float(value)
    except OverflowError:       # an integer literal beyond the doubles
        raise InputError(f"field {name.format(*index)!r} is too large for a float") from None


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
        for j, x in enumerate(row):
            _as_real(x, "rows[{}][{}]", i, j)
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
            out.append(complex(_as_real(v[0], "values[{}][0]", i),
                               _as_real(v[1], "values[{}][1]", i)))
        else:
            out.append(complex(_as_real(v, "values[{}]", i), 0.0))
    return np.array(out, dtype=complex)


def generator_spec_from_dict(d):
    from .mclass import GeneratorSpec
    kind = _require(d, "kind")
    if not isinstance(kind, str):
        raise InputError("field 'kind' must be a string")
    n = _as_int(_require(d, "n"), "n")
    seed = _as_int(_require(d, "seed"), "seed")
    margin = _as_real(d.get("margin", DEFAULT_MARGIN), "margin")
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


def _float(x: float) -> str:
    """A float as json spells it."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(o, write, pad: str) -> None:
    """Pass the text of plain value ``o``, at indent ``pad``, to ``write``, testing
    types in json's order; each container element of a list is written as one string."""
    if isinstance(o, str):
        write(_quote(o))
    elif o is None or o is True or o is False:
        write(_CONSTANTS[o])
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, float) and not hasattr(o, "dtype"):   # numpy's float64 is a float
        write(_float(o))
    elif not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    elif not o:
        write("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            write(sep + _quote(k) + ": ")
            _write(v, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    else:
        inner = pad + "  "
        sep = "[\n" + inner
        for v in o:
            if type(v) is float:
                write(sep + _float(v))
            elif isinstance(v, (list, tuple, dict)):
                parts = [sep]
                _write(v, parts.append, inner)
                write("".join(parts))
            else:
                write(sep)
                _write(v, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "]")


def write_report(report: dict, stream, end: str = "\n") -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True) + end`` to ``stream``."""
    _write(report, stream.write, "")
    stream.write(end)
