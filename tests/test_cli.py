import json
from dataclasses import asdict

import numpy as np
import pytest

from mnewton.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from mnewton.mclass import GeneratorSpec, generate
from mnewton.niep import screen
from mnewton.serialize import dumps_report, matrix_to_dict, spectrum_from_dict


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


def test_override_caps_only_on_sfunc(capsys, m_matrix_file):
    code, out, _ = run(capsys, ["sfunc", "--input", m_matrix_file, "--override-caps"])
    assert code == EXIT_OK and json.loads(out)["holds"] is True
    code, _, err = run(capsys, ["classify", "--input", m_matrix_file, "--override-caps"])
    assert code == EXIT_USAGE
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
    assert out == dumps_report({**asdict(rep), "command": "niep-screen"}) + "\n"
    assert code == (EXIT_OK if rep.all_pass else EXIT_VIOLATION)


def test_niep_screen_directory_batch(capsys, tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_json(batch / "b_pass.json", {"values": [1.0, 0.5]})
    write_json(batch / "a_fail.json", {"values": [3.0, 3.0, -2.0, -2.0, -2.0]})
    write_json(batch / "c_complex.json", {"values": [[2.0, 0.0], [-0.5, 0.5], [-0.5, -0.5]]})
    code, out, _ = run(capsys, ["niep-screen", "--spectrum", str(batch)])
    assert code == EXIT_VIOLATION
    rep = json.loads(out)
    names = [r["file"] for r in rep["reports"]]
    assert names == ["a_fail.json", "b_pass.json", "c_complex.json"]
    assert rep["all_pass"] is False
    for entry, name in zip(rep["reports"], names):
        _, single_out, _ = run(capsys, ["niep-screen", "--spectrum", str(batch / name)])
        single = json.loads(single_out)
        assert single.pop("command") == "niep-screen"
        assert entry == {**single, "file": name}


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
