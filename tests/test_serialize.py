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

from helpers import niep_shaped
from mnewton.errors import InputError
from mnewton.forms import FORM_KINDS, build_form
from mnewton.serialize import (
    form_to_csv,
    form_to_dict,
    generator_spec_from_dict,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    spectrum_from_dict,
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


def test_matrix_from_dict_rejects_entries_that_are_not_numbers():
    # numpy would parse "2" and True as 2.0 and 1.0; the spectrum format refuses them
    cases = [
        ([["2", "-1"], [True, "3e0"]], "field 'rows[0][0]' must be a real number"),
        ([[2.0, -1.0], [True, 3.0]], "field 'rows[1][0]' must be a real number"),
        ([[2.0, None], [-1.0, 3.0]], "field 'rows[0][1]' must be a real number"),
        ([[2.0, -1.0], [-1.0, [3.0]]], "field 'rows[1][1]' must be a real number"),
    ]
    for rows, message in cases:
        with pytest.raises(InputError) as exc:
            matrix_from_dict({"n": 2, "rows": rows})
        assert str(exc.value) == message, rows
    assert matrix_from_dict({"n": 2, "rows": [[2, -1], [-1, 2.5]]}).tolist() == [
        [2.0, -1.0], [-1.0, 2.5]]


def test_matrix_from_dict_rejects_non_objects_empty_and_infinite():
    for d in ([[1.0]], "m", None):
        with pytest.raises(InputError, match="expected a JSON object with field 'n'"):
            matrix_from_dict(d)
    with pytest.raises(InputError, match="field 'n' must be a positive integer"):
        matrix_from_dict({"n": 0, "rows": []})
    # json reads Infinity as a float, which is a real number but not a finite one
    with pytest.raises(InputError) as exc:
        matrix_from_dict(json.loads('{"n": 2, "rows": [[1, Infinity], [0, 1]]}'))
    assert str(exc.value) == "field 'rows': matrix entries must be finite"


BEYOND_DOUBLES = 10 ** 400


@pytest.mark.parametrize("read, record, field", [
    (spectrum_from_dict, {"values": [1.0, [2.0, BEYOND_DOUBLES]]}, "values[1][1]"),
    (matrix_from_dict, {"n": 2, "rows": [[1, 0], [-BEYOND_DOUBLES, 1]]}, "rows[1][0]"),
    (generator_spec_from_dict, {"kind": "M", "n": 3, "seed": 1, "margin": BEYOND_DOUBLES},
     "margin"),
])
def test_integers_beyond_the_doubles_name_their_field(read, record, field):
    with pytest.raises(InputError) as exc:
        read(record)
    assert str(exc.value) == f"field {field!r} is too large for a float"


def test_spectrum_roundtrip_and_bare_reals():
    d = {"values": [[1.0, 2.0], [1.0, -2.0], 3.0]}
    vals = spectrum_from_dict(d)
    assert np.allclose(vals, [1 + 2j, 1 - 2j, 3.0])
    back = [[v.real, v.imag] for v in vals.tolist()]
    assert back == [[1.0, 2.0], [1.0, -2.0], [3.0, 0.0]]


def test_spectrum_from_dict_diagnostics():
    with pytest.raises(InputError, match="'values'"):
        spectrum_from_dict({})
    with pytest.raises(InputError, match="field 'values' must be a nonempty list"):
        spectrum_from_dict({"values": []})
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
    with pytest.raises(InputError, match="field 'kind' must be a string"):
        generator_spec_from_dict({"kind": 1, "n": 4, "seed": 0})
    with pytest.raises(InputError, match="seed must be >= 0"):
        generator_spec_from_dict({"kind": "M", "n": 4, "seed": -1})
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
                assert streamed(form_to_dict(form)) == dumps_oracle(ref) + "\n", (n, m, kind)
    assert b"\r\n" in got_csv.read_bytes()


def test_load_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="malformed JSON"):
        load_json(path)
    with pytest.raises(InputError, match="cannot read"):
        load_json(tmp_path / "missing.json")


@pytest.mark.parametrize("data, cause", [
    (b"\xff\xfe{\x00}\x00", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits)"),
], ids=["not-utf-8", "nested-100000-deep", "5000-digit-integer"])
def test_load_json_reports_undecodable_and_unparsable_files(tmp_path, data, cause):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(InputError) as exc:
        load_json(path)
    assert str(exc.value).startswith(f"{path}: malformed JSON ({cause}")


def dumps_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def streamed(report, end="\n") -> str:
    stream = io.StringIO()
    write_report(report, stream, end)
    return stream.getvalue()


class Chunks(list):
    """A stream that keeps each string written to it."""
    write = list.append


def test_dumps_report_deterministic():
    rep = {"z": [1.0, 2.0], "a": {"y": 0.1, "x": True}}
    assert streamed(rep) == streamed(rep)
    assert streamed(rep).startswith("{")


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
LEAVES = st.one_of(STRINGS, FLOATS, INTS, st.booleans(), st.none())
REPORTS = st.recursive(LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(STRINGS, children, max_size=4)), max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_dumps_report_matches_json_dumps(report):
    assert streamed(report, end="") == dumps_oracle(report)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_write_report_streams_dumps_report(report):
    chunks = Chunks()
    write_report(report, chunks)
    assert chunks[-1] == "\n" and all(type(c) is str for c in chunks)
    assert "".join(chunks) == dumps_oracle(report) + "\n"


def test_dumps_report_matches_json_dumps_on_edge_values():
    reports = [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}],
        {"\u00e9": "\u2603", '"q"': "\x01\n\t"}, 10 ** 300, -(2 ** 1000), True, None,
        {"nums": [math.nan, math.inf, -math.inf, -0.0, 5e-324], "pair": ((1, "x"), 0.5)},
        {"level": [Level.HIGH, Tag.RED, Shouting(0.5)], "loud": Shouting(2.5), "3": 1},
        {Tag.RED: Tag.RED, "blue": 0},
    ]
    for report in reports:
        assert streamed(report) == dumps_oracle(report) + "\n", report


def test_dumps_report_raises_where_json_dumps_does():
    for bad in ({"a": 1, 2: 3}, {None: 1, "b": 2}, {"a": [object()]}, {"a": {"b": {1, 2}}}):
        with pytest.raises(TypeError) as want:
            dumps_oracle(bad)
        with pytest.raises(TypeError) as got:
            write_report(bad, io.StringIO())
        assert str(got.value) == str(want.value), bad


def test_write_report_accepts_only_plain_values():
    # the CLI handlers convert arrays and report dataclasses; anything else is refused
    for bad in (np.float64(1.5), np.bool_(True), np.int64(3), np.arange(3), Fraction(1, 3),
                1 + 2j, Point(0.5, ())):
        with pytest.raises(TypeError) as exc:
            write_report({"a": [1.0, {"b": bad}]}, io.StringIO())
        assert str(exc.value) == f"Object of type {type(bad).__name__} is not JSON serializable"
    for key in (1, 2.5, None, (1, 2)):
        with pytest.raises(TypeError) as exc:
            write_report({"a": {key: 0}}, io.StringIO())
        assert str(exc.value) == f"keys must be str, not {type(key).__name__}"


def test_write_report_peak_memory_follows_one_element():
    reports = [niep_shaped(i) for i in range(3000)]
    doc = {"all_pass": False, "command": "niep-screen", "reports": reports}
    largest = max(len(streamed(r)) for r in reports)

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
