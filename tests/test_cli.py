import argparse
import csv
import doctest
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coxdrops import bruhat, cli, verify
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


def test_stats_sweep_b1_leaves_drops_d_empty(capsys):
    code, out = run_cli(capsys, "stats", "--group", "B", "--n", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["element"] for r in rows] == ["-1", "1"]
    assert [r["drops_d"] for r in rows] == ["", ""]
    assert [r["drops_b"] for r in rows] == ["1", "0"]


@pytest.mark.parametrize("group, elem", [("S", "2,3,1"), ("B", "-2,3,1")])
def test_stats_elem_keys_match_the_csv_header(capsys, group, elem):
    _, out = run_cli(capsys, "stats", f"--elem={elem}", "--format", "json")
    keys = list(json.loads(out))
    _, out = run_cli(capsys, "stats", "--group", group, "--n", "3")
    assert keys == next(csv.reader(io.StringIO(out)))


def test_stats_elem_b1_leaves_drops_d_empty(capsys):
    _, out = run_cli(capsys, "stats", "--elem=-1", "--format", "json")
    assert json.loads(out)["drops_d"] is None
    _, out = run_cli(capsys, "stats", "--elem=-1")
    assert "drops_d" in out and "None" not in out


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


def test_path_verb_reads_the_empty_path(capsys):
    code, out = run_cli(capsys, "path", "--path", "", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"path": "", "heights": "", "area": 0,
                               "max_height": 0, "weight": 1}


def test_per_path_enumerator_of_the_empty_path(capsys):
    code, out = run_cli(capsys, "poly", "--which", "per-path", "--path", "")
    assert code == 0 and out == "1\n"


def test_stats_parses_an_empty_element(capsys):
    # an empty --elem is given, so it is parsed, not reported missing
    assert main(["stats", "--elem", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: position 1: expected an integer, got ''\n"


def test_path_sweep_refuses_negative_n(capsys):
    assert main(["path", "--n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must be >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (["stats", "--group", "B", "--n", "1"],
     "stats --n writes CSV; --format json applies to --elem only"),
    (["path", "--n", "3"], "path --n writes CSV; --format json applies to --path only"),
])
def test_csv_sweeps_refuse_json(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_poly_refuses_a_path_it_would_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--which", "trivariate", "--n", "3", "--path", "NES"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: poly --path is read by --which per-path only, not by --which trivariate\n")


@pytest.mark.parametrize("argv, read", [
    (["poly", "--which", "per-path", "--path", "NES"], {"--which", "--path", "--group"}),
    (["stats", "--elem", "2,1"], {"--elem"}),
    (["path", "--path", "NES"], {"--path"}),
])
def test_an_option_its_mode_would_not_read_is_refused(capsys, argv, read):
    # every option of the verb is either read in this mode or refused, so an
    # option added later fails here until it is classified
    verbs = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    unread = [a for a in verbs.choices[argv[0]]._actions
              if a.option_strings and a.dest != "help"
              and a.option_strings[0] not in read | {"--format", "--out"}]
    assert unread
    for action in unread:
        option = action.option_strings[0]
        value = [] if action.nargs == 0 else [action.choices[-1] if action.choices else "5"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, *value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f" {option} " in err


def test_stats_and_poly_keep_their_defaults(capsys):
    # stats --n without --group sweeps S_n; poly without --n is at n = 0
    assert run_cli(capsys, "stats", "--n", "3") == \
        run_cli(capsys, "stats", "--group", "S", "--n", "3")
    assert run_cli(capsys, "poly", "--which", "trivariate") == (0, "1\n")


def test_readme_cli_commands_parse():
    # parsed, not run: `match ... --dot m.dot` would write a file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["coxdrops"]]
    assert len(commands) == 15
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func, argv


def test_readme_library_example_runs():
    # `python -m doctest README.md` would read the closing fence as output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, 7)


def test_poly_drops_mad_at_n_zero(capsys):
    code, out = run_cli(capsys, "poly", "--which", "drops-mad", "--n", "0")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("which, group", [
    ("trivariate", "B"), ("dep-inv", "A"), ("drops-mad", "D"), ("drops-mad", "A")])
def test_poly_refuses_a_group_it_is_not_defined_on(which, group, capsys):
    # these enumerators are over S_n; another group is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--which", which, "--group", group, "--n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: poly --which {which} is defined on S_n only, "
                            f"not on {group}_n\n")


@pytest.mark.parametrize("which, group, groups", [
    ("drops", "B", "S_n and A_n"), ("drops", "D", "S_n and A_n"),
    ("signed-drops", "A", "S_n, B_n and D_n")])
def test_poly_refuses_a_drops_enumerator_off_its_groups(which, group, groups, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli.gp, "_transfer", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--which", which, "--group", group, "--n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: poly --which {which} is defined on {groups} only, "
                            f"not on {group}_n\n")


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


def test_cfrac_verb_order_zero(capsys):
    code, out = run_cli(capsys, "cfrac", "--order", "0")
    assert code == 0
    assert out == "t^0: 1\n"


def test_verify_single_claim(capsys):
    code, out = run_cli(capsys, "verify", "thm1.3", "--n", "5",
                        "--threads", "1", "--format", "json")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert docs[0]["status"] == "pass" and docs[0]["count"] == 120


def test_verify_unknown_claim(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_verify_runs_a_repeated_claim_once(capsys):
    code, out = run_cli(capsys, "verify", "thm1.3", "thm1.1", "thm1.3", "--n", "3",
                        "--threads", "1", "--format", "json")
    assert code == 0
    assert [(d["claim"], d["group"]) for d in _reports(out)] == \
        [("thm1.3", "S"), ("thm1.1", "S")]


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


# `verify thm1.3 lemma7.2 --max-n 5` as it was printed when every report
# was collected first, with the timings masked and the route added
VERIFY_TABLE = """\
claim      group  n status route       count        ms  witness
thm1.3     S      1 pass   sweep           1 MS  
thm1.3     S      2 pass   sweep           2 MS  
thm1.3     S      3 pass   sweep           6 MS  
thm1.3     S      4 pass   sweep          24 MS  
thm1.3     S      5 pass   sweep         120 MS  
lemma7.2   B      2 pass   sweep           8 MS  
lemma7.2   B      3 pass   sweep          48 MS  
lemma7.2   B      4 pass   sweep         384 MS  
lemma7.2   B      5 pass   sweep        3840 MS  
"""
VERIFY_JSON = "".join(
    f'{{"claim": "{c}", "group": "{g}", "n": {n}, "status": "pass", '
    f'"witness": null, "elapsed_ms": MS, "count": {count}, "route": "sweep"}}\n'
    for c, g, n, count in [("thm1.3", "S", 1, 1), ("thm1.3", "S", 2, 2),
                           ("thm1.3", "S", 3, 6), ("thm1.3", "S", 4, 24),
                           ("thm1.3", "S", 5, 120), ("lemma7.2", "B", 2, 8),
                           ("lemma7.2", "B", 3, 48), ("lemma7.2", "B", 4, 384),
                           ("lemma7.2", "B", 5, 3840)])


def _mask_ms(text):
    text = re.sub(r" +\d+\.\d(?=  )", " MS", text)
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": MS', text)


@pytest.mark.parametrize("fmt, want", [("table", VERIFY_TABLE), ("json", VERIFY_JSON)])
def test_verify_output_keeps_its_format(capsys, tmp_path, fmt, want):
    argv = ["verify", "thm1.3", "lemma7.2", "--max-n", "5", "--threads", "1",
            "--format", fmt]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and _mask_ms(out) == want
    target = tmp_path / "reports.txt"
    assert main([*argv, "--out", str(target)]) == 0
    assert _mask_ms(target.read_text()) == want


@pytest.mark.parametrize("out", [False, True])
def test_verify_writes_each_report_when_its_part_finishes(capsys, monkeypatch,
                                                          tmp_path, out):
    target = tmp_path / "reports.txt"
    written = []

    def run_claim(name, *args):
        for report in verify.run_claim(name, *args):
            if out:
                written.append(target.read_text().count("\n"))
            else:
                written.append(capsys.readouterr().out.count("\n"))
            yield report

    monkeypatch.setattr(cli, "run_claim", run_claim)
    argv = ["verify", "thm1.3", "--max-n", "3", "--threads", "1"]
    assert main(argv + (["--out", str(target)] if out else [])) == 0
    # the header, then one more line by the end of each part
    assert written == ([1, 2, 3] if out else [1, 1, 1])


def test_verify_exit_code_counts_a_failing_report(capsys, monkeypatch):
    failing = verify.ClaimDef("thm1.3", "S", (1, 2), verify.trivariate_key,
                              lambda n, counter: "bad" if n == 1 else None, "fails at n = 1")
    monkeypatch.setitem(verify.CLAIMS, "thm1.3", (failing,))
    code, out = run_cli(capsys, "verify", "thm1.3", "--threads", "1")
    assert code == 1
    assert [line.split()[3] for line in out.splitlines()[1:]] == ["fail", "pass"]


def test_a_window_with_a_leading_minus_is_attached_with_equals(capsys):
    code, out = run_cli(capsys, "invol", "--elem=-6,1,5,3,4,-2")
    assert code == 0
    assert ["output", "-5,1,6,3,4,-2"] in [line.split() for line in out.splitlines()]
    with pytest.raises(SystemExit):
        main(["word", "--help"])
    assert "--elem=-3,1,5" in capsys.readouterr().out


@pytest.mark.parametrize("argv, header", [
    (["stats", "--group", "S", "--n", "8"], b"element,inv,"),
    (["path", "--n", "12"], b"path,weight,"),
])
def test_a_closed_pipe_ends_a_csv_sweep_quietly(argv, header):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "coxdrops", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()                    # as `| head -1` does
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(header)
    assert err == b""


def test_match_verb(capsys, tmp_path):
    dot = tmp_path / "m.dot"
    code, out = run_cli(capsys, "match", "--group", "S", "--n", "3",
                        "--dot", str(dot))
    assert code == 0
    assert "# matching" in out and "valid" in out
    assert dot.read_text().startswith("graph bruhat_matching_S3")


def test_match_hasse_writes_its_dot_file(capsys, tmp_path):
    dot = tmp_path / "m.dot"
    code, _ = run_cli(capsys, "match", "--n", "4", "--hasse", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph bruhat_matching_S4") and "[color=gray]" in text


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


@pytest.mark.parametrize("argv, message", [
    (["--which", "trivariate", "--n", "-1"], "n must be >= 0"),
    (["--which", "signed-drops", "--group", "D", "--n", "0"], "D_n needs n >= 2"),
])
def test_poly_refuses_sizes_out_of_range(capsys, argv, message):
    assert main(["poly", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("claim, max_n", [("thm1.3", "-3"), ("thm-typeD", "1")])
def test_verify_refuses_a_claim_left_without_sizes(capsys, claim, max_n):
    with pytest.raises(SystemExit) as exc:
        main(["verify", claim, "--max-n", max_n])
    assert exc.value.code == 2
    assert repr(claim) in capsys.readouterr().err


def _reports(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_verify_at_n_1_skips_the_claims_that_start_at_2(capsys):
    code, out = run_cli(capsys, "verify", "--n", "1", "--threads", "1",
                        "--format", "json")
    docs = _reports(out)
    assert code == 0 and len(docs) == 12
    assert all(d["status"] == "pass" and d["n"] == 1 for d in docs)
    assert {d["claim"] for d in docs}.isdisjoint({"lemma7.2", "thm-typeD"})


def test_verify_at_n_0_runs_cfrac_alone(capsys):
    code, out = run_cli(capsys, "verify", "--n", "0", "--format", "json")
    (doc,) = _reports(out)
    assert code == 0
    assert (doc["claim"], doc["group"], doc["n"], doc["count"]) == ("cfrac", "S", 0, 1)


@pytest.mark.parametrize("argv, claim", [
    (["lemma7.2", "--n", "1"], "lemma7.2"),
    (["thm1.1", "thm-typeD", "--n", "1"], "thm-typeD"),
    (["--n", "-1"], "thm1.1"),
])
def test_verify_refuses_a_claim_below_its_first_size(capsys, monkeypatch, argv, claim):
    monkeypatch.setattr(cli, "run_claim", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert repr(claim) in capsys.readouterr().err


def test_verify_max_n_leaves_an_explicit_n_alone(capsys):
    code, out = run_cli(capsys, "verify", "thm1.3", "--n", "5", "--max-n", "3",
                        "--threads", "1", "--format", "json")
    assert code == 0 and [d["n"] for d in _reports(out)] == [5]


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


def test_cfrac_verb_at_order_12(capsys):
    code, out = run_cli(capsys, "cfrac", "--order", "12", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and [d["n"] for d in doc] == list(range(13))
    assert sum(int(t["coeff"]) for t in doc[-1]["poly"]) == math.factorial(12)


def test_cfrac_verb_refuses_negative_order(capsys):
    assert main(["cfrac", "--order", "-1"]) == 2
    assert capsys.readouterr().err == "error: order must be >= 0\n"


def _no_sweep(*args, **kwargs):
    raise AssertionError("a sweep started")


def test_cfrac_verb_refuses_an_order_over_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli.gp, "jfraction_convergent", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["cfrac", "--order", "60"])
    assert exc.value.code == 2
    assert ("cfrac would fill the path transfer to order 60 (204,181,352 cells)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["stats", "--elem", "1,2", "--out"],
    ["verify", "cfrac", "--n", "2", "--out"],
    ["match", "--n", "3", "--dot"],
])
def test_an_unwritable_output_path_is_reported(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x"
    assert main([*argv, str(path)]) == 2
    assert (capsys.readouterr().err
            == f"error: cannot write {path}: No such file or directory\n")


@pytest.mark.parametrize("argv, part", [
    (["cfrac", "--n", "12"], "cfrac would sweep S_12 (479,001,600 elements)"),
    (["invol", "--n", "9"], "invol would sweep B_9 (185,794,560 elements)"),
    (["--n", "11"], "thm1.1 would sweep S_11 (39,916,800 elements)"),
])
def test_verify_refuses_a_sweep_over_budget(capsys, monkeypatch, argv, part):
    monkeypatch.setattr(cli, "run_claim", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert part in err and "--force" in err


def test_verify_runs_within_budget_or_forced(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_claim",
                        lambda name, ns, *rest: calls.append((name, ns)) or [])
    assert main(["verify", "invol", "--n", "8"]) == 0
    assert main(["verify", "cfrac", "--n", "0"]) == 0
    assert main(["verify", "cfrac", "--n", "12", "--force"]) == 0
    assert calls == [("invol", (8,)), ("cfrac", (0,)), ("cfrac", (12,))]


@pytest.mark.parametrize("argv, message", [
    (["stats", "--group", "S", "--n", "11"], "stats would sweep S_11 (39,916,800 elements)"),
    (["match", "--group", "B", "--n", "9"], "match would sweep B_9 (185,794,560 elements)"),
    (["match", "--group", "B", "--n", "7", "--hasse"],
     "match --hasse would compare B_7 elements pairwise (16,881,945,214 pairs)"),
])
def test_sweeping_verbs_refuse_a_group_over_budget(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli.pc, "iter_group", _no_sweep)
    monkeypatch.setattr(bruhat, "iter_group", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "--force" not in err


@pytest.mark.parametrize("argv, message", [
    (["poly", "--which", "drops-mad", "--n", "17"],
     "poly --which drops-mad would run a transfer over S_17 (37,879,808 transitions)"),
    (["poly", "--which", "trivariate", "--n", "17"],
     "poly --which trivariate would run a transfer over S_17 (37,879,808 transitions)"),
    (["poly", "--which", "signed-drops", "--group", "B", "--n", "15"],
     "poly --which signed-drops would run a transfer over B_15 (29,491,200 transitions)"),
    (["poly", "--which", "drops", "--group", "A", "--n", "17"],
     "poly --which drops would run a transfer over A_17"),
    (["path", "--n", "20"],
     "path would list the Motzkin paths of length 20 (50,852,019 paths)"),
])
def test_poly_and_path_refuse_work_over_budget(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli.pc, "iter_group", _no_sweep)
    monkeypatch.setattr(cli.gp, "_transfer", _no_sweep)
    monkeypatch.setattr(cli, "motzkin_paths", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_poly_and_path_run_at_the_budget_edge(capsys, monkeypatch):
    monkeypatch.setattr(cli.gp, "_transfer", lambda *args, **kwargs: cli.gp.MultiPoly.one())
    monkeypatch.setattr(cli, "motzkin_paths", lambda n: iter(()))
    assert main(["poly", "--which", "trivariate", "--n", "16"]) == 0
    assert main(["poly", "--which", "signed-drops", "--group", "D", "--n", "14"]) == 0
    assert main(["path", "--n", "19"]) == 0


@pytest.mark.parametrize("argv", [
    ["stats", "--n", "1000000"],
    ["verify", "thm1.3", "--n", "1000000"],
    ["match", "--n", "1000000"],
    ["path", "--n", "100000"],
    ["cfrac", "--order", "30000000"],
    ["poly", "--which", "drops", "--n", "100000000000"],
])
def test_an_absurd_size_is_refused_at_once(capsys, monkeypatch, argv):
    # past twice the first size over the budget, that size stands in for
    # the exact one, which would take seconds or all memory to compute
    for owner, name in [(cli.pc, "iter_group"), (bruhat, "iter_group"),
                        (cli.gp, "_transfer"), (cli, "motzkin_paths"),
                        (cli.gp, "jfraction_convergent"), (cli, "run_claim")]:
        monkeypatch.setattr(owner, name, _no_sweep)
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(at least " in err
    assert f"over the {cli.SWEEP_BUDGET:,}-" in err and "budget" in err


def test_poly_drops_mad_visits_no_element(capsys, monkeypatch):
    # (drops, mad) and (depth, inv) are equidistributed, and both are
    # transfers over subset states
    monkeypatch.setattr(cli.pc, "iter_group", _no_sweep)
    monkeypatch.setattr(cli.pc, "sweep", _no_sweep)
    code, out = run_cli(capsys, "poly", "--which", "drops-mad", "--n", "11")
    assert code == 0
    assert out == run_cli(capsys, "poly", "--which", "dep-inv", "--n", "11")[1]


# SHA-256 of the expected CSV bytes, written to stdout and to --out alike
@pytest.mark.parametrize("argv, digest", [
    (["path", "--n", "8"],
     "e1b13031b22fc30b17d9e9c96b656e7c49a79785ef7bd756719a1ad86531e736"),
    (["stats", "--group", "B", "--n", "3"],
     "075e461a224ac2acad84f009dc039b5be2084a4bccb978d8d2c820ac7f81d819"),
])
def test_csv_sweeps_stream_the_same_bytes(capsys, tmp_path, argv, digest):
    _, out = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "out.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
