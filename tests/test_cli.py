import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from helpers import construct_perturbed, niep_shaped
from mnewton.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, _render_text, main
from mnewton.forms import build_form
from mnewton.mclass import GeneratorSpec, generate
from mnewton.niep import screen
from mnewton.serialize import matrix_to_dict, spectrum_from_dict


def dumps(report) -> str:
    """The report bytes the CLI writes, less the final newline."""
    return json.dumps(report, indent=2, sort_keys=True)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def m_matrix_file(tmp_path):
    a = generate(GeneratorSpec("M", 5, 11))
    return write_json(tmp_path / "m.json", matrix_to_dict(a))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_newton_on_m_matrix_exits_zero(capsys, m_matrix_file):
    code, out, _ = run(capsys, ["newton", "--input", m_matrix_file])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["holds"] is True
    assert all(m >= 0 for m in rep["margins"])


def test_newton_on_failing_spectrum_exits_one(capsys, tmp_path):
    spec = write_json(tmp_path / "s.json",
                      {"values": [[0.0, 0.0],
                                  [2.0 ** 0.5, -1.0],
                                  [2.0 ** 0.5, 1.0]]})
    code, out, _ = run(capsys, ["newton", "--spectrum", spec])
    assert code == EXIT_VIOLATION
    rep = json.loads(out)
    assert rep["holds"] is False
    assert rep["worst_j"] == 1
    assert rep["margins"][0] == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_classify_reports_class(capsys, tmp_path):
    path = write_json(tmp_path / "a.json",
                      {"n": 2, "rows": [[1.0, -1.0], [-1.0, 1.0]]})
    code, out, _ = run(capsys, ["classify", "--input", path])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["m_class"] == "M-singular"
    assert rep["is_z"] is True


def test_coeffs_from_matrix(capsys, tmp_path):
    path = write_json(tmp_path / "d.json",
                      {"n": 3, "rows": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    code, out, _ = run(capsys, ["coeffs", "--input", path])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["coeffs"] == pytest.approx([1.0, 2.0, 11.0 / 3.0, 6.0])


def test_coeffs_requires_exactly_one_source(capsys, tmp_path, m_matrix_file):
    spec = write_json(tmp_path / "s.json", {"values": [1.0, 2.0]})
    code, _, err = run(capsys, ["coeffs", "--input", m_matrix_file,
                                "--spectrum", spec])
    assert code == EXIT_USAGE
    assert "exactly one" in err


def test_sfunc_all_feasible(capsys, m_matrix_file):
    code, out, _ = run(capsys, ["sfunc", "--input", m_matrix_file])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["holds"] is True
    assert rep["checks"]
    assert {"m", "k"} <= set(rep["worst"])


def test_sfunc_single_pair_and_infeasible(capsys, m_matrix_file):
    code, out, _ = run(capsys, ["sfunc", "--input", m_matrix_file,
                                "--m", "2", "--k", "1"])
    assert code == EXIT_OK
    assert len(json.loads(out)["checks"]) == 1
    code, _, err = run(capsys, ["sfunc", "--input", m_matrix_file,
                                "--m", "4", "--k", "0"])
    assert code == EXIT_USAGE
    assert "infeasible" in err
    code, out, err = run(capsys, ["sfunc", "--input", m_matrix_file, "--m", "0"])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: no feasible (m, k) parameters for n = 5\n"


def test_forms_psd_and_exports(capsys, tmp_path):
    csv_path = tmp_path / "psi.csv"
    json_path = tmp_path / "psi.json"
    code, out, _ = run(capsys, ["forms", "--n", "5", "--m", "2",
                                "--export-csv", str(csv_path),
                                "--export-json", str(json_path)])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["is_psd"] is True
    assert rep["structure"]["ok"] is True
    assert csv_path.exists() and json_path.exists()
    exported = json.loads(json_path.read_text())
    assert exported["kind"] == "psi" and len(exported["entries"]) == 10


def test_forms_export_json_is_the_joined_form(capsys, tmp_path):
    target = tmp_path / "psi.json"
    code, _, _ = run(capsys, ["forms", "--n", "10", "--m", "5", "--export-json", str(target)])
    assert code == EXIT_OK
    entries = build_form(10, 5, "psi").entries.tolist()
    ref = {"n": 10, "m": 5, "kind": "psi", "entries": entries}
    assert target.read_bytes() == dumps(ref).encode()


def test_forms_over_dense_cap_reports_but_exports_nothing(capsys, tmp_path):
    code, out, _ = run(capsys, ["forms", "--n", "60", "--m", "30"])
    assert code == EXIT_OK
    assert json.loads(out)["is_psd"] is True
    for flag in ("--export-csv", "--export-json"):
        target = tmp_path / "x"
        code, out, err = run(capsys, ["forms", "--n", "16", "--m", "8", flag, str(target)])
        assert code == EXIT_USAGE and not out
        assert "exceeds cap 5000" in err
        assert not target.exists()


@pytest.mark.parametrize("flag", ["--export-csv", "--export-json"])
def test_forms_unwritable_export_exits_two_without_report(capsys, tmp_path, flag):
    for target in (tmp_path / "missing" / "x.out", tmp_path):
        code, out, err = run(capsys, ["forms", "--n", "6", "--m", "3", flag, str(target)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno ")
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_forms_overflowing_eigenvalue_exits_two(capsys):
    code, out, err = run(capsys, ["forms", "--n", "1040", "--m", "520", "--kind", "tilde_phi"])
    assert code == EXIT_USAGE and out == ""
    assert "(n, m) = (1040, 520)" in err and "tilde_phi" in err and "overflows" in err


def test_override_caps_flag_is_gone(capsys, m_matrix_file):
    # the minor count is capped in linalg, with no switch to lift it
    for command in ("sfunc", "classify"):
        code, out, err = run(capsys, [command, "--input", m_matrix_file, "--override-caps"])
        assert code == EXIT_USAGE and out == ""
        assert "--override-caps" in err


def test_identity_command(capsys):
    code, out, _ = run(capsys, ["identity", "--n", "12", "--m", "5"])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["sum"] == "0"
    assert rep["is_zero"] is True


def test_niep_screen_counterexample(capsys, tmp_path):
    spec = write_json(tmp_path / "five.json",
                      {"values": [3.0, 3.0, -2.0, -2.0, -2.0]})
    code, out, _ = run(capsys, ["niep-screen", "--spectrum", spec])
    assert code == EXIT_VIOLATION
    rep = json.loads(out)
    lm = rep["conditions"]["laffey_meehan"]
    assert lm["status"] == "fail"
    assert lm["margin"] == -60.0


def test_niep_screen_jll_bound_overflow_exits_two(capsys, tmp_path):
    spec = write_json(tmp_path / "ones.json", {"values": [1.0] * 100})
    code, out, err = run(capsys, ["niep-screen", "--spectrum", spec, "--jll-bound", "200"])
    assert code == EXIT_USAGE and out == ""
    assert "jll bound 200" in err and "n = 100" in err


def test_niep_screen_report_is_the_screening_report(capsys, tmp_path):
    # the CLI adds only the command name to the library's report, field for field
    payload = {"values": [[2.0, 0.0], [-0.5, 0.5], [-0.5, -0.5], 0.25]}
    spec = write_json(tmp_path / "s.json", payload)
    code, out, _ = run(capsys, ["niep-screen", "--spectrum", spec])
    rep = screen(spectrum_from_dict(payload))
    assert out == dumps({**asdict(rep), "command": "niep-screen"}) + "\n"
    assert code == (EXIT_OK if rep.all_pass else EXIT_VIOLATION)


def test_niep_screen_directory_is_the_joined_report(capsys, tmp_path):
    payloads = {"a.json": {"values": [3.0, 3.0, -2.0, -2.0, -2.0]},
                "b.json": {"values": [1.0, 0.5]},
                "c.json": {"values": [[2.0, 0.0], [-0.5, 0.5], [-0.5, -0.5]]},
                "d.json": {"values": [2.5]},
                "e.json": {"values": [4.0, -1.0, -1.0, -1.0, -1.0]}}
    for name, payload in payloads.items():
        write_json(tmp_path / name, payload)
    code, out, _ = run(capsys, ["niep-screen", "--spectrum", str(tmp_path)])
    reports = [{**asdict(screen(spectrum_from_dict(p))), "file": name}
               for name, p in payloads.items()]
    ok = all(r["all_pass"] for r in reports)
    assert out == dumps({"command": "niep-screen", "reports": reports,
                         "all_pass": ok}) + "\n"
    assert code == (EXIT_OK if ok else EXIT_VIOLATION)


MALFORMED = "{not json"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_niep_screen_directory_batch(capsys, tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_json(batch / "b_pass.json", {"values": [1.0, 0.5]})
    write_json(batch / "a_fail.json", {"values": [3.0, 3.0, -2.0, -2.0, -2.0]})
    write_json(batch / "c_complex.json", {"values": [[2.0, 0.0], [-0.5, 0.5], [-0.5, -0.5]]})
    # sizes interleave, so one batch per size must still report in file order
    write_json(batch / "d_one.json", {"values": [2.5]})
    write_json(batch / "e_ten.json", {"values": list(construct_perturbed(1e-3))})
    write_json(batch / "f_pass.json", {"values": [4.0, -1.0, -1.0, -1.0, -1.0]})
    write_json(batch / "g_big.json", {"values": [1e200, 1.0, 1.0]})
    write_json(batch / "notes.txt", {"values": [[0.0, 1.0]]})
    # only names whose Path.suffix is ".json": ".json" has none, "..json" has it
    (batch / ".json").write_text(MALFORMED)
    write_json(batch / "..json", {"values": [2.0, -1.0]})
    write_json(batch / "Z_upper.json", {"values": [1.0]})
    code, out, _ = run(capsys, ["niep-screen", "--spectrum", str(batch)])
    assert code == EXIT_VIOLATION
    rep = json.loads(out)
    names = [r["file"] for r in rep["reports"]]
    assert names == ["..json", "Z_upper.json", "a_fail.json", "b_pass.json",
                     "c_complex.json", "d_one.json", "e_ten.json", "f_pass.json", "g_big.json"]
    assert names == sorted(p.name for p in batch.iterdir() if p.suffix == ".json")
    assert rep["all_pass"] is False
    for entry, name in zip(rep["reports"], names):
        _, single_out, _ = run(capsys, ["niep-screen", "--spectrum", str(batch / name)])
        single = json.loads(single_out)
        assert single.pop("command") == "niep-screen"
        assert entry == {**single, "file": name}
    (batch / "x.json").mkdir()
    code, out, err = run(capsys, ["niep-screen", "--spectrum", str(batch)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot read {batch / 'x.json'}: ")


@pytest.mark.parametrize("first, second, args, message", [
    ({"values": [[0.0, 1.0]]}, MALFORMED, [], "not closed under conjugation"),
    ({"values": [1.0] * 100}, MALFORMED, ["--jll-bound", "200"], "jll bound 200"),
    ({"values": [2.0] * 1100}, {"values": [[0.0, 1.0]]}, [], "n = 1100"),
    ({"values": [1.0, 2.0]}, MALFORMED, ["--moment-k", "0"], "moment order K"),
    (MALFORMED, {"values": [[0.0, 1.0]]}, [], "malformed JSON"),
])
def test_niep_screen_directory_reports_the_first_bad_file(capsys, tmp_path, first, second,
                                                          args, message):
    # load, closure, moment_k, jll_bound and order are checked file by file
    batch = tmp_path / "batch"
    batch.mkdir()
    write_json(batch / "a_good.json", {"values": [1.0, 0.5]})
    for name, payload in (("b_first.json", first), ("c_second.json", second)):
        if payload == MALFORMED:
            (batch / name).write_text(payload)
        else:
            write_json(batch / name, payload)
    code, out, err = run(capsys, ["niep-screen", "--spectrum", str(batch), *args])
    assert code == EXIT_USAGE and out == ""
    assert message in err
    assert ("b_first.json" in err) == (first == MALFORMED)


def test_niep_screen_residue_error_comes_after_every_file_loads(capsys, tmp_path):
    # the coefficients' imaginary residue is found in the batch, after loading
    batch = tmp_path / "batch"
    batch.mkdir()
    write_json(batch / "a_residue.json", {"values": [[0.5, 0.9e-9]] * 4})
    (batch / "b_bad.json").write_text(MALFORMED)
    code, _, err = run(capsys, ["niep-screen", "--spectrum", str(batch)])
    assert code == EXIT_USAGE and "b_bad.json" in err and "malformed JSON" in err
    (batch / "b_bad.json").unlink()
    code, _, err = run(capsys, ["niep-screen", "--spectrum", str(batch)])
    assert code == EXIT_USAGE and "imaginary residue 3.6e-09" in err


@pytest.mark.parametrize("command", [["coeffs"], ["newton"], ["niep-screen"]])
def test_order_beyond_double_binomials_exits_two(capsys, tmp_path, command):
    spec = write_json(tmp_path / "big.json", {"values": [2.0] * 1100})
    code, out, err = run(capsys, [*command, "--spectrum", spec])
    assert code == EXIT_USAGE and out == ""
    assert "n = 1100" in err


def test_niep_screen_overflow_warnings_do_not_grow_with_files(tmp_path):
    # a single [1e200, 1, 1] prints six numpy RuntimeWarnings; more such files print no more
    batch = tmp_path / "batch"
    batch.mkdir()
    for i, values in enumerate(([1e200, 1.0, 1.0], [1.0, 1e200, 1.0], [1e250, 2.0, 1.0],
                                [3e200, 0.5, 1.0])):
        write_json(batch / f"s{i}.json", {"values": values})
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "mnewton.cli", "niep-screen",
                           "--spectrum", str(batch)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == EXIT_VIOLATION
    assert 0 < proc.stderr.count("RuntimeWarning") <= 6


def test_classify_of_a_rejected_pivot_prints_no_warning(tmp_path):
    # the zero first pivot's row times its column (1e400) is never formed
    a = np.eye(21)
    a[0, 0] = 0.0
    a[2, 0] = a[0, 3] = -1e200
    path = write_json(tmp_path / "a.json", matrix_to_dict(a))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "mnewton.cli", "classify", "--input", path],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert json.loads(proc.stdout)["m_class"] == "M-singular"


BEYOND_DOUBLES = "1" + "0" * 400       # an integer literal no double can hold

MALFORMED_INPUTS = {
    "big_value.json": '{"values": [%s, 1]}' % BEYOND_DOUBLES,
    "big_entry.json": '{"n": 2, "rows": [[1, 0], [%s, 1]]}' % BEYOND_DOUBLES,
    "big_margin.json": '{"kind": "M", "n": 3, "seed": 1, "margin": %s}' % BEYOND_DOUBLES,
    "negative_seed.json": '{"kind": "M", "n": 3, "seed": -1}',
    "witness_overflow.json": '{"n": 2, "rows": [[1e300, 1e300], [1e300, -1e300]]}',
    # 1e30 (I - J) at n = 21, beyond the P test: det of its leading k x k block
    # is (1 - k) 1e30^k, so the leading-minor witnesses overflow from k = 11
    "leading_overflow.json": json.dumps({"n": 21, "rows": (1e30 * (np.eye(21) - 1.0)).tolist()}),
    "binary.json": b"\xff\xfe{\x00}\x00",
    "deep.json": "[" * 100_000 + "]" * 100_000,
}

MALFORMED_CALLS = [
    (["niep-screen", "--spectrum", "big_value.json"], "field 'values[0]' is too large"),
    (["newton", "--spectrum", "big_value.json"], "field 'values[0]' is too large"),
    (["classify", "--input", "big_entry.json"], "field 'rows[1][0]' is too large"),
    (["classify", "--input", "witness_overflow.json"],
     "principal minor of A on (1, 2) overflows"),
    (["classify", "--input", "leading_overflow.json"],
     f"principal minor of A on {tuple(range(1, 12))} overflows"),
    (["gen", "--input", "big_margin.json"], "field 'margin' is too large"),
    (["gen", "--input", "negative_seed.json"], "generator seed must be >= 0"),
    (["gen", "--kind", "M", "--n", "3", "--seed", "-5"], "generator seed must be >= 0"),
    (["classify", "--input", "binary.json"], "binary.json: malformed JSON ('utf-8' codec"),
    (["niep-screen", "--spectrum", "binary.json"], "binary.json: malformed JSON ('utf-8'"),
    (["classify", "--input", "deep.json"], "deep.json: malformed JSON (maximum recursion"),
    (["niep-screen", "--spectrum", "deep.json"], "deep.json: malformed JSON (maximum"),
    (["niep-screen", "--spectrum", "batch"], "batch/b.json: malformed JSON ('utf-8'"),
    (["forms", "--n", "6", "--m", "3", "--export-csv", "missing/x.csv"],
     "cannot write missing/x.csv: "),
    (["forms", "--n", "6", "--m", "3", "--export-json", "missing/x.json"],
     "cannot write missing/x.json: "),
]


def test_malformed_inputs_exit_two_with_one_error_line(tmp_path):
    for name, data in MALFORMED_INPUTS.items():
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    # a directory names its first bad file in sorted order
    (tmp_path / "batch").mkdir()
    for name, data in (("a.json", b'{"values": [1]}'), ("b.json", MALFORMED_INPUTS["binary.json"]),
                       ("c.json", b"[" * 100_000)):
        (tmp_path / "batch" / name).write_bytes(data)
    src = Path(__file__).resolve().parents[1] / "src"
    for argv, message in MALFORMED_CALLS:
        proc = subprocess.run([sys.executable, "-m", "mnewton.cli", *argv], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == EXIT_USAGE, (argv, proc.stderr)
        assert proc.stdout == "", argv
        assert proc.stderr.startswith("error: " + message), (argv, proc.stderr)
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, argv


def test_gen_pipes_into_classify(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "--kind", "M", "--n", "4", "--seed", "3"])
    assert code == EXIT_OK
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out, _ = run(capsys, ["classify", "--input", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["m_class"] == "M-nonsingular"


def test_gen_from_spec_file_deterministic(capsys, tmp_path):
    spec = write_json(tmp_path / "g.json",
                      {"kind": "inverse-M", "n": 3, "seed": 9, "margin": 0.2})
    code1, out1, _ = run(capsys, ["gen", "--input", spec])
    code2, out2, _ = run(capsys, ["gen", "--input", spec])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_gen_requires_spec_or_flags(capsys):
    code, _, err = run(capsys, ["gen", "--kind", "M", "--n", "4"])
    assert code == EXIT_USAGE
    assert "seed" in err


def test_gen_order_numpy_refuses_exits_two(capsys):
    code, out, err = run(capsys, ["gen", "--kind", "M", "--n", "100000000000000000000",
                                  "--seed", "1"])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: generator order n = 100000000000000000000 is too large " \
                  "for an n x n array\n"


def test_newton_overflowed_spectrum_exits_two(capsys, tmp_path):
    spec = write_json(tmp_path / "big.json", {"values": [1e200, 1e200, 1e200]})
    code, out, err = run(capsys, ["newton", "--spectrum", spec])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: coefficient c_2 = inf is not finite\n"


def test_coeffs_overflowed_spectrum_exits_two(capsys, tmp_path):
    # inf has no JSON spelling, so coeffs stops where newton does
    spec = write_json(tmp_path / "big.json", {"values": [1e200, 1e200, 1e200]})
    code, out, err = run(capsys, ["coeffs", "--spectrum", spec])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: coefficient c_2 = inf is not finite\n"


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run(capsys, ["classify", "--input", str(path)])
    assert code == EXIT_USAGE
    assert "malformed JSON" in err


def test_schema_error_names_field(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 2, "rows": [[1.0, 2.0]]})
    code, _, err = run(capsys, ["classify", "--input", str(path)])
    assert code == EXIT_USAGE
    assert "'rows'" in err


def test_invalid_tol_exits_two(capsys, m_matrix_file):
    code, _, err = run(capsys, ["newton", "--input", m_matrix_file,
                                "--tol", "-1"])
    assert code == EXIT_USAGE
    assert "tol" in err


@pytest.mark.parametrize("argv", [["gen", "--kind", "M", "--n", "3", "--seed", "1"],
                                  ["identity", "--n", "10", "--m", "5"]])
def test_gen_and_identity_take_no_tol(capsys, argv):
    code, out, err = run(capsys, [*argv, "--tol", "0.5"])
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --tol 0.5" in err
    code, out, _ = run(capsys, [argv[0], "--help"])
    assert code == EXIT_OK and "--format" in out and "--tol" not in out
    assert run(capsys, argv)[0] == EXIT_OK
    _, out, _ = run(capsys, ["classify", "--help"])
    assert "--tol" in out


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_reports_byte_identical(capsys, m_matrix_file):
    _, out1, _ = run(capsys, ["newton", "--input", m_matrix_file])
    _, out2, _ = run(capsys, ["newton", "--input", m_matrix_file])
    assert out1 == out2
    _, out3, _ = run(capsys, ["sfunc", "--input", m_matrix_file])
    _, out4, _ = run(capsys, ["sfunc", "--input", m_matrix_file])
    assert out3 == out4


def test_text_format_renders(capsys, m_matrix_file):
    code, out, _ = run(capsys, ["newton", "--input", m_matrix_file,
                                "--format", "text"])
    assert code == EXIT_OK
    assert "holds: True" in out


def rendered(report) -> str:
    lines = []
    _render_text(report, lines.append)
    return "".join(lines)


def test_text_format_renders_plain_values_line_by_line():
    # no golden holds a non-finite value, an empty container or a nested tuple
    report = {"command": "newton", "n": 3, "margins": [math.nan, math.inf, -math.inf, -0.0],
              "witness": ((1, 2), 0.5), "skipped": [], "params": {}, "note": "",
              "conditions": {"jll": {"status": "pass", "margin": -0.0, "witness": None},
                             "moments": {"status": "fail", "margin": -math.inf,
                                         "witness": [[], {}]}},
              "holds": False}
    assert rendered(report).splitlines() == [
        "command: newton", "n: 3",
        "margins:", "  - nan", "  - inf", "  - -inf", "  - -0.0",
        "witness:", "  -", "    - 1", "    - 2", "  - 0.5",
        "skipped:", "params:", "note: ",
        "conditions:",
        "  jll:", "    status: pass", "    margin: -0.0", "    witness: None",
        "  moments:", "    status: fail", "    margin: -inf", "    witness:", "      -", "      -",
        "holds: False",
    ]
    assert rendered(report).endswith("holds: False\n")


def test_text_format_peak_memory_follows_one_element():
    reports = [niep_shaped(i) for i in range(3000)]
    doc = {"command": "niep-screen", "reports": reports, "all_pass": False}
    largest = max(len(rendered(r)) for r in reports)
    tracemalloc.start()
    try:
        _render_text(doc, lambda text: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few times one entry streamed; the whole document's lines are 3000 entries
    assert peak < 20 * largest, (peak, largest)
