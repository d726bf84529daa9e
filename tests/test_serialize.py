import csv
import enum
import io
import json
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnewton.errors import InputError
from mnewton.forms import FORM_KINDS, build_form
from mnewton.serialize import (
    _encode,
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
    write_report,
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
    cases = [
        ([[1.0, 2.0, 3.0]], "field 'values'[0] must be [re, im]"),
        ([1.0, [2.0]], "field 'values'[1] must be [re, im]"),
        ([1.0, "x"], "field 'values[1]' must be a real number"),
        ([1.0, True], "field 'values[1]' must be a real number"),
        ([1.0, None], "field 'values[1]' must be a real number"),
        ([[True, 0.0]], "field 'values[0][0]' must be a real number"),
        ([2.0, [0.5, "x"]], "field 'values[1][1]' must be a real number"),
        ([[1.0, 0.0], [0.0, [1.0]]], "field 'values[1][1]' must be a real number"),
    ]
    for values, message in cases:
        with pytest.raises(InputError) as exc:
            spectrum_from_dict({"values": values})
        assert str(exc.value) == message, values


def test_spectrum_from_dict_accepts_ints_as_floats():
    vals = spectrum_from_dict({"values": [3, [1, -2], [1.5, 2], -0.0]})
    assert vals.dtype == complex
    assert vals.tolist() == [3 + 0j, 1 - 2j, 1.5 + 2j, complex(-0.0, 0.0)]
    assert math.copysign(1.0, vals[3].real) == -1.0


def test_generator_spec_from_dict():
    spec = generator_spec_from_dict({"kind": "M", "n": 4, "seed": 7})
    assert spec.margin == 0.1
    with pytest.raises(InputError, match="'seed'"):
        generator_spec_from_dict({"kind": "M", "n": 4})
    with pytest.raises(InputError):
        generator_spec_from_dict({"kind": "Q", "n": 4, "seed": 0})
    assert generator_spec_from_dict({"kind": "M", "n": 4, "seed": 7, "margin": 1}).margin == 1.0
    for margin in ("big", False, None, [0.1]):
        with pytest.raises(InputError) as exc:
            generator_spec_from_dict({"kind": "M", "n": 4, "seed": 7, "margin": margin})
        assert str(exc.value) == "field 'margin' must be a real number", margin


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


def dumps_oracle(obj) -> str:
    return json.dumps(obj, default=_encode, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Point:
    x: float
    tags: tuple


class Level(enum.IntEnum):
    HIGH = 2


class Tag(str, enum.Enum):
    RED = "red"


class Shouting(float):
    def __repr__(self):
        return "LOUD"


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308, -1.7976931348623157e308]))
INTS = st.one_of(st.integers(), st.integers(-2**512, 2**512))
STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600", ""]))
OPAQUE = st.one_of(
    FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.floats(width=32).map(np.float32),
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(np.array),
    st.fractions(), st.complex_numbers(), st.builds(Point, FLOATS, st.tuples(INTS, STRINGS)),
)
LEAVES = st.one_of(STRINGS, FLOATS, INTS, st.booleans(), st.none(), OPAQUE)


def _dicts(children):
    # json sorts the items, so the keys of one dict must be comparable
    return st.one_of(*(st.dictionaries(keys, children, max_size=4) for keys in (
        STRINGS, INTS, FLOATS, st.booleans(), st.none(), st.one_of(INTS, FLOATS, st.booleans()))))


REPORTS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple), _dicts(children)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_dumps_report_matches_json_dumps(report):
    assert dumps_report(report) == dumps_oracle(report)


def streamed(report) -> str:
    stream = io.StringIO()
    write_report(report, stream)
    return stream.getvalue()


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_write_report_streams_dumps_report(report):
    assert streamed(report) == dumps_report(report) + "\n" == dumps_oracle(report) + "\n"


def test_dumps_report_matches_json_dumps_on_edge_values():
    reports = [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}],
        {1: "int", 2.5: "float", False: "bool"}, {None: 0}, {math.nan: 1, math.inf: 2},
        {"\u00e9": "\u2603", '"q"': "\x01\n\t"}, 10 ** 300, -(2 ** 1000), True, None,
        {"arr": np.arange(6.0).reshape(2, 3), "scalar": np.float64(0.1), "i": np.int32(-3),
         "b": np.bool_(False), "frac": Fraction(-7, 3), "z": complex(1.5, -math.inf),
         "pt": Point(-0.0, (1, "x")), "pts": [Point(math.nan, ())]},
        {Level.HIGH: [Level.HIGH, Tag.RED, Shouting(0.5)], Shouting(2.5): 0, 3: 1},
        {Tag.RED: Tag.RED, "blue": 0},
    ]
    for report in reports:
        assert dumps_report(report) == dumps_oracle(report), report
        assert streamed(report) == dumps_oracle(report) + "\n", report


def test_dumps_report_raises_where_json_dumps_does():
    for bad in ({"a": 1, 2: 3}, {None: 1, "b": 2}, {(1, 2): 0}, {"a": [object()]},
                {"a": {1j: 0}}):
        with pytest.raises(TypeError) as want:
            dumps_oracle(bad)
        with pytest.raises(TypeError) as got:
            dumps_report(bad)
        assert str(got.value) == str(want.value), bad
        with pytest.raises(TypeError) as got:
            write_report(bad, io.StringIO())
        assert str(got.value) == str(want.value), bad


def _niep_shaped(i: int) -> dict:
    """One directory ``niep-screen`` report entry, with made-up values."""
    return {"all_pass": i % 3 > 0, "conditions": {
        name: {"margin": i / 7 - 100.0, "note": "verified for k <= 20", "status": "pass",
               "witness": [i % 5, 2]}
        for name in ("jll", "laffey_meehan", "moments", "newton_shift")},
        "file": f"s{i:05d}.json", "n": 3 + i % 10,
        "params": {"jll_bound": 30, "moment_k": 20, "tol": 1e-09}}


def test_write_report_peak_memory_follows_one_element():
    reports = [_niep_shaped(i) for i in range(3000)]
    doc = {"all_pass": False, "command": "niep-screen", "reports": reports}
    largest = max(len(dumps_report(r)) for r in reports)

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        write_report(doc, Sink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 8x one entry streamed; joining the whole document peaks near 6x all 3000
    assert peak < 20 * largest, (peak, largest)
