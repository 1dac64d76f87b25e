import csv
import io
import json

import pytest

from coxdrops.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_stats_single_element(capsys):
    code, out = run_cli(capsys, "stats", "--elem", "4,1,5,2,3")
    assert code == 0
    assert "inv" in out and " 5" in out and "drops" in out and " 6" in out


def test_stats_single_element_json(capsys):
    code, out = run_cli(capsys, "stats", "--elem", "4,1,5,2,3",
                        "--format", "json")
    doc = json.loads(out)
    assert (doc["inv"], doc["drops"], doc["depth"], doc["exc"], doc["des"]) \
        == (5, 6, 5, 2, 2)


def test_stats_signed_element(capsys):
    code, out = run_cli(capsys, "stats", "--elem", "3,1,-5,2,-4",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["inv_b"] == 16 and doc["drops_b"] == 14


def test_stats_sweep_csv(capsys):
    code, out = run_cli(capsys, "stats", "--group", "S", "--n", "3")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert rows[0]["element"] == "1,2,3"
    by_elem = {r["element"]: r for r in rows}
    assert by_elem["3,2,1"]["drops"] == "2"
    assert by_elem["3,2,1"]["mad"] == "2"


def test_stats_sweep_signed_csv(capsys):
    code, out = run_cli(capsys, "stats", "--group", "D", "--n", "2")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["element"] for r in rows] == ["-2,-1", "-1,-2", "1,2", "2,1"]
    assert [r["drops_d"] for r in rows] == ["3", "4", "0", "1"]


def test_word_verb(capsys):
    code, out = run_cli(capsys, "word", "--elem", "4,1,5,2,3")
    assert code == 0
    assert "[s3 s4][s2 s3][][s1]" in out


def test_word_verb_type_b(capsys):
    code, out = run_cli(capsys, "word", "--elem", "4,1,-5,2,-3",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["word"] == "[s2 s1 s0 s1 s2 s3 s4][s2 s3][s2 s1 s0 s1 s2][s1][]"
    assert doc["length"] == 15


def test_invol_verb(capsys):
    code, out = run_cli(capsys, "invol", "--type", "B",
                        "--elem", "3,1,-5,2,-4", "--format", "json")
    doc = json.loads(out)
    assert doc["output"] == "3,1,-4,2,-5"


def test_fz_verb(capsys):
    code, out = run_cli(capsys, "fz", "--elem", "4,3,2,1", "--format", "json")
    doc = json.loads(out)
    assert doc == {"steps": "NNSS", "labels": [0, 1, 1, 0]}


def test_path_verb(capsys):
    code, out = run_cli(capsys, "path", "--path", "NES", "--format", "json")
    doc = json.loads(out)
    assert doc["weight"] == 3 and doc["area"] == 2 and doc["max_height"] == 1


def test_path_sweep(capsys):
    code, out = run_cli(capsys, "path", "--n", "4")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert sum(int(r["weight"]) for r in rows) == 24


def test_poly_verbs(capsys):
    code, out = run_cli(capsys, "poly", "--which", "trivariate", "--n", "2")
    assert out.strip() == "1 - t*p*q"
    code, out = run_cli(capsys, "poly", "--which", "signed-drops",
                        "--group", "D", "--n", "2")
    assert out.strip() == "1 - q - q^3 + q^4"
    code, out = run_cli(capsys, "poly", "--which", "per-path",
                        "--path", "NES")
    assert out.strip() == "2*q^2*x^2 + q^3*x^2"


def test_cfrac_verb(capsys):
    code, out = run_cli(capsys, "cfrac", "--order", "3")
    assert "t^0: 1" in out
    assert "t^3: 1 + 2*q*x + 2*q^2*x^2 + q^3*x^2" in out


def test_verify_single_claim(capsys):
    code, out = run_cli(capsys, "verify", "thm1.3", "--n", "5",
                        "--threads", "1", "--format", "json")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert docs[0]["status"] == "pass" and docs[0]["count"] == 120


def test_verify_unknown_claim(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_verify_table_format(capsys):
    code, out = run_cli(capsys, "verify", "cfrac", "--n", "4", "--threads", "1")
    assert code == 0
    assert "cfrac" in out and "pass" in out


def test_verify_thread_count_does_not_change_reports(capsys):
    _, out1 = run_cli(capsys, "verify", "thm1.1", "--max-n", "5",
                      "--threads", "1", "--format", "json")
    _, out2 = run_cli(capsys, "verify", "thm1.1", "--max-n", "5",
                      "--threads", "3", "--format", "json")
    strip = lambda docs: [
        {k: v for k, v in json.loads(d).items() if k != "elapsed_ms"}
        for d in docs.strip().splitlines()]
    assert strip(out1) == strip(out2)


def test_match_verb(capsys, tmp_path):
    dot = tmp_path / "m.dot"
    code, out = run_cli(capsys, "match", "--group", "S", "--n", "3",
                        "--dot", str(dot))
    assert code == 0
    assert "# matching" in out and "valid" in out
    assert dot.read_text().startswith("graph bruhat_matching_S3")


def test_match_json(capsys):
    code, out = run_cli(capsys, "match", "--group", "B", "--n", "2",
                        "--format", "json")
    doc = json.loads(out)
    assert doc["valid"] and doc["edges"] == 4


def test_out_file(capsys, tmp_path):
    target = tmp_path / "stats.csv"
    code, _ = run_cli(capsys, "stats", "--group", "S", "--n", "3",
                      "--out", str(target))
    assert code == 0
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 6


def test_malformed_element_is_reported(capsys):
    code = main(["stats", "--elem", "1,2,x"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position 3" in err


def test_signed_element_rejected_for_type_a(capsys):
    code = main(["word", "--elem", "1,-2", "--type", "A"])
    assert code == 2
    assert "position 2" in capsys.readouterr().err


def test_out_of_range_n(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "thm-typeD", "--n", "1"])
    code = main(["stats", "--group", "D", "--n", "1"])
    assert code == 2


def test_negative_threads_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "thm-typeB", "--n", "2", "--threads", "-1"])
    assert "--threads must be >= 0" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "coxdrops", "stats", "--elem", "2,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "drops" in proc.stdout
