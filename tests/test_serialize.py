import csv
import json

import numpy as np
import pytest

from mnewton.errors import InputError
from mnewton.forms import FORM_KINDS, build_form
from mnewton.serialize import (
    dumps_report,
    form_to_csv,
    form_to_dict,
    generator_spec_from_dict,
    jsonable,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    spectrum_from_dict,
    spectrum_to_dict,
)


def test_matrix_roundtrip():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    d = matrix_to_dict(a)
    assert d == {"n": 2, "rows": [[2.0, -1.0], [-1.0, 2.0]]}
    assert np.array_equal(matrix_from_dict(d), a)


def test_matrix_from_dict_diagnostics_name_fields():
    with pytest.raises(InputError, match="'n'"):
        matrix_from_dict({"rows": [[1.0]]})
    with pytest.raises(InputError, match="'n'"):
        matrix_from_dict({"n": "two", "rows": [[1.0]]})
    with pytest.raises(InputError, match="'rows'"):
        matrix_from_dict({"n": 2, "rows": [[1.0, 2.0]]})
    with pytest.raises(InputError, match=r"'rows'\[1\]"):
        matrix_from_dict({"n": 2, "rows": [[1.0, 2.0], [3.0]]})


def test_spectrum_roundtrip_and_bare_reals():
    d = {"values": [[1.0, 2.0], [1.0, -2.0], 3.0]}
    vals = spectrum_from_dict(d)
    assert np.allclose(vals, [1 + 2j, 1 - 2j, 3.0])
    back = spectrum_to_dict(vals)
    assert back == {"values": [[1.0, 2.0], [1.0, -2.0], [3.0, 0.0]]}


def test_spectrum_from_dict_diagnostics():
    with pytest.raises(InputError, match="'values'"):
        spectrum_from_dict({})
    with pytest.raises(InputError, match=r"'values'\[0\]"):
        spectrum_from_dict({"values": [[1.0, 2.0, 3.0]]})
    with pytest.raises(InputError, match=r"values\[1\]"):
        spectrum_from_dict({"values": [1.0, "x"]})


def test_generator_spec_from_dict():
    spec = generator_spec_from_dict({"kind": "M", "n": 4, "seed": 7})
    assert spec.margin == 0.1
    with pytest.raises(InputError, match="'seed'"):
        generator_spec_from_dict({"kind": "M", "n": 4})
    with pytest.raises(InputError):
        generator_spec_from_dict({"kind": "Q", "n": 4, "seed": 0})


def test_form_exports(tmp_path):
    f = build_form(3, 1, "psi")
    d = form_to_dict(f)
    assert d["n"] == 3 and d["m"] == 1 and d["kind"] == "psi"
    assert len(d["entries"]) == 3
    path = tmp_path / "form.csv"
    form_to_csv(f, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 3
    assert [float(x) for x in rows[0].split(",")] == d["entries"][0]


def test_form_exports_match_per_entry_writers(tmp_path):
    # reference: one repr / float per dense entry, as csv.writer and json see them
    for n in range(2, 9):
        for m in range(1, n):
            for kind in FORM_KINDS:
                form = build_form(n, m, kind)
                ref_csv, got_csv = tmp_path / "ref.csv", tmp_path / "got.csv"
                with open(ref_csv, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    for row in form.entries:
                        writer.writerow([repr(float(x)) for x in row])
                form_to_csv(form, got_csv)
                assert got_csv.read_bytes() == ref_csv.read_bytes(), (n, m, kind)
                ref = {"n": n, "m": m, "kind": kind,
                       "entries": [[float(x) for x in row] for row in form.entries]}
                assert dumps_report(form_to_dict(form)) == dumps_report(ref), (n, m, kind)
    assert b"\r\n" in got_csv.read_bytes()


def test_load_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="malformed JSON"):
        load_json(path)
    with pytest.raises(InputError, match="cannot read"):
        load_json(tmp_path / "missing.json")


def test_jsonable_handles_numpy_and_fractions():
    from fractions import Fraction
    obj = {"a": np.float64(1.5), "b": np.int32(2), "c": np.bool_(True),
           "d": np.arange(3), "e": Fraction(1, 3), "f": (1, 2), "g": 1 + 2j}
    out = jsonable(obj)
    assert out == {"a": 1.5, "b": 2, "c": True, "d": [0, 1, 2],
                   "e": "1/3", "f": [1, 2], "g": [1.0, 2.0]}
    json.dumps(out)


def test_dumps_report_deterministic():
    rep = {"z": [1.0, 2.0], "a": {"y": np.float64(0.1), "x": True}}
    assert dumps_report(rep) == dumps_report(rep)
    assert dumps_report(rep).startswith("{")
