import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgering import (
    DecompositionMismatchError,
    MethodMismatchError,
    acceptance,
    cli,
    format_graph_text,
    load_graph,
    s2_verdict,
    semigroup,
)
from edgering.cli import main
from edgering.fixtures import load

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "edgering" / "data"


@pytest.fixture
def t1min_file(tmp_path):
    p = tmp_path / "t1min.graph"
    p.write_text(format_graph_text(load("t1min")))
    return p


# ------------------------------------------------------------ gen


def test_gen_t1min(tmp_path, capsys):
    out = tmp_path / "g.graph"
    code = main(["gen", "--n", "2", "--s", "1,0,1,0", "-o", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "d=9 diameter=4 type=Type1"
    assert load_graph(out) == load("t1min")


def test_gen_friendship(tmp_path, capsys):
    out = tmp_path / "f.graph"
    code = main(["gen", "--n", "3", "--s", "0,0,0,0,0,0", "-o", str(out)])
    assert code == 0
    assert "diameter=2" in capsys.readouterr().out


def test_gen_empty_spec(capsys):
    code = main(["gen", "--n", "0"])
    assert code == 2
    assert "EmptySpec" in capsys.readouterr().err


def test_gen_bad_pendants(capsys):
    code = main(["gen", "--n", "1", "--s", "1,x"])
    assert code == 2


def test_gen_negative_pendants_both_forms_refused_alike(tmp_path, capsys):
    # --s and --spec describe the same cactus, so they fail with one message
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 1, "s": [-1, 0]}))
    errors = []
    for argv in (["--n", "1", "--s=-1,0"], ["--spec", str(spec)]):
        out = tmp_path / "g.graph"
        assert main(["gen", *argv, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        "edgering: EdgeRingError: pendant counts must be nonnegative\n")


def test_gen_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "s": [1, 0, 1, 0, 0, 0]}))
    out = tmp_path / "t2.graph"
    code = main(["gen", "--spec", str(spec), "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "d=11 diameter=4 type=Type2"
    assert load_graph(out) == load("t2min")


def test_gen_mistyped_spec_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2.7, "s": [1, 0, 1, 0]}))
    out = tmp_path / "g.graph"
    assert main(["gen", "--spec", str(spec), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_gen_json_format_round_trips(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["gen", "--n", "2", "--s", "1,0,1,0", "-o", str(out),
                 "--format", "json"])
    assert code == 0
    assert load_graph(out) == load("t1min")


def test_gen_requires_some_spec(capsys):
    assert main(["gen"]) == 2


# ------------------------------------------------------------ analyze


def test_analyze_t1min(t1min_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["analyze", str(t1min_file), "--json", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: normal=false s2=true" in out
    report = json.loads(report_path.read_text())
    assert report["graph"]["dimension"] == 9
    assert report["s2"]["normal"] is False and report["s2"]["s2"] is True
    assert report["decomposition"]["passed"] is True
    assert [f["dimension"] for f in report["decomposition"]["families"]] == [8]


def test_analyze_below_every_shift_is_inconclusive(t1min_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(t1min_file), "--degree", "4",
                 "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "holes to degree 4: none" in out
    assert out.splitlines()[-1] == "verdict: normal=false s2=inconclusive"
    verdict = json.loads(report_path.read_text())["s2"]
    assert verdict["s2"] is None and "no hole was compared" in verdict["evidence"]["reason"]


def test_analyze_below_every_shift_says_no_hole_was_compared(t1min_file, tmp_path, capsys):
    # the decomposition line gives the verdict's reason, not "verified"
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(t1min_file), "--degree", "4",
                 "--json", str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    reason = json.loads(report_path.read_text())["s2"]["evidence"]["reason"]
    assert reason == "no hole family has a shift of degree at most 4, so no hole was compared"
    assert f"decomposition: 1 hole families, dimensions [8], {reason}" in out
    assert not [line for line in out if "verified" in line]


def test_analyze_never_calls_the_member_oracle(t1min_file, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("analyze ran the member oracle")

    monkeypatch.setattr(semigroup, "_decompose", fail)
    assert main(["analyze", str(t1min_file), "--degree", "8"]) == 0
    assert "s2=true" in capsys.readouterr().out


def test_analyze_verdict_equals_library(t1min_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    main(["analyze", str(t1min_file), "--degree", "8", "--json", str(report_path)])
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    lib = s2_verdict(load("t1min"), 8)
    assert report["s2"]["normal"] == lib["normal"]
    assert report["s2"]["s2"] == lib["s2"]
    assert report["s2"]["evidence"] == json.loads(
        json.dumps(lib["evidence"])
    )


def test_analyze_deterministic(t1min_file, tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["analyze", str(t1min_file), "--json", str(p1)])
    main(["analyze", str(t1min_file), "--json", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_odd_cycle_set_graph(tmp_path, capsys):
    # d=13, three pendant triangles on distinct hub triangles: exit 3 before
    # the odd cycle set's family covered P_1 + P_3 + P_5 + e_w
    path, report = tmp_path / "d13.graph", tmp_path / "d13.json"
    assert main(["gen", "--n", "3", "--s", "1,0,1,0,1,0", "-o", str(path)]) == 0
    assert main(["analyze", str(path), "--degree", "10", "--max-d", "13",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "decomposition: 13 hole families" in out
    assert "verdict: normal=false s2=true" in out
    # the whole report, byte for byte, as CI's plain install checks it too
    golden = ROOT / "tests" / "golden" / "analyze_d13_deg10.json"
    assert report.read_bytes() == golden.read_bytes()


def test_analyze_normal_graph(tmp_path, capsys):
    code = main(["analyze", str(DATA / "bowtie.graph")])
    assert code == 0
    out = capsys.readouterr().out
    assert "normal: True" in out
    assert "holes to degree 8: none" in out
    assert "decomposition" not in out  # no family section for normal input


def test_analyze_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("this is not a graph\n")
    code = main(["analyze", str(bad)])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"vertices": ["a", "b"], "edges": 5},
    {"vertices": 5, "edges": []},
    {"vertices": [["a"]], "edges": []},
], ids=["edges-not-array", "vertices-not-array", "list-label"])
def test_analyze_malformed_json_graph(tmp_path, capsys, payload):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(payload))
    assert main(["analyze", str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("edgering: ParseError: ")
    assert captured.err.count("\n") == 1


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/g.graph"]) == 2


def test_analyze_max_d_guard(capsys):
    code = main(["analyze", str(DATA / "t2min.graph"), "--max-d", "10"])
    assert code == 2
    assert "max-d" in capsys.readouterr().err


def test_analyze_degree_cap_env(t1min_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EDGERING_MAX_DEGREE", "6")
    report_path = tmp_path / "r.json"
    code = main(["analyze", str(t1min_file), "--degree", "10",
                 "--json", str(report_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "capped to 6" in captured.err
    assert json.loads(report_path.read_text())["holes"]["degree"] == 6


def test_analyze_negative_degree(t1min_file, capsys):
    assert main(["analyze", str(t1min_file), "--degree", "-1"]) == 2
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["-4", "twelve"])
def test_analyze_bad_degree_cap_env(t1min_file, capsys, monkeypatch, raw):
    monkeypatch.setenv("EDGERING_MAX_DEGREE", raw)
    assert main(["analyze", str(t1min_file)]) == 2
    assert "EDGERING_MAX_DEGREE" in capsys.readouterr().err


def test_analyze_refuses_a_cap_above_the_packed_degree(t1min_file, capsys, monkeypatch):
    # a cap above 255 is refused before any of the report is printed
    monkeypatch.setenv("EDGERING_MAX_DEGREE", "400")
    assert main(["analyze", str(t1min_file), "--degree", "300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("edgering: EdgeRingError: EDGERING_MAX_DEGREE")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["3 2\na\nb\nc\na b\nb c\n", "1 0\nv\n"],
                         ids=["path", "vertex"])
def test_analyze_refuses_bipartite_graph_before_writing(tmp_path, capsys, text):
    # no odd cycle, so the facet layer refuses the graph
    graph = tmp_path / "g.graph"
    graph.write_text(text)
    report_path = tmp_path / "r.json"
    assert main(["analyze", str(graph), "--json", str(report_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BipartiteGraphError" in captured.err
    assert not report_path.exists()


DECOMPOSITION_MISMATCH = DecompositionMismatchError(
    {"holes_not_covered": [[0] * 9], "family_points_not_holes": []}
)
METHOD_MISMATCH = MethodMismatchError({(0,) * 9}, (), None)


@pytest.mark.parametrize("stage, error, code", [
    ("holes", METHOD_MISMATCH, 4),
    ("verify_decomposition", DECOMPOSITION_MISMATCH, 3),
    ("s2_verdict", DECOMPOSITION_MISMATCH, 3),
    ("s2_verdict", METHOD_MISMATCH, 4),
])
def test_analyze_mismatch_exit_codes(t1min_file, tmp_path, capsys, monkeypatch,
                                     stage, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, stage, fail)
    report_path = tmp_path / "r.json"
    assert main(["analyze", str(t1min_file), "--json", str(report_path)]) == code
    assert capsys.readouterr().err == f"analyze: {error}\n"
    assert not report_path.exists()


# ------------------------------------------------------------ verify-paper


def test_verify_paper_subset(capsys):
    code = main(["verify-paper", "--only", "figure1,taxonomy"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] 1. figure1" in out
    assert "[PASS] 8. taxonomy" in out
    assert "2/2 criteria passed" in out


def test_verify_paper_only_lemmas(capsys):
    code = main(["verify-paper", "--only", "lemmas"])
    assert code == 0
    assert "[PASS] 4. lemmas" in capsys.readouterr().out


def test_verify_paper_unknown_criterion(capsys):
    code = main(["verify-paper", "--only", "nonsense"])
    assert code == 2
    assert "unknown criteria" in capsys.readouterr().err


@pytest.mark.parametrize("only", [",,", ""])
def test_verify_paper_only_naming_no_criterion(capsys, only):
    # an empty selection is an input error, not "run everything"
    code = main(["verify-paper", "--only", only])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "no criteria named" in err


def test_verify_paper_tampered_fixture(tmp_path, capsys):
    tampered = tmp_path / "fixtures"
    tampered.mkdir()
    for f in DATA.glob("*.graph"):
        tampered.joinpath(f.name).write_text(f.read_text())
    lines = (tampered / "t1min.graph").read_text().splitlines()
    d, m = lines[0].split()
    kept = [ln for ln in lines[1:] if ln.strip() != "w x1"]
    (tampered / "t1min.graph").write_text(
        "\n".join([f"{d} {int(m) - 1}"] + kept) + "\n"
    )
    path = tmp_path / "vp.json"
    code = main(
        ["verify-paper", "--fixtures", str(tampered), "--only", "main-theorem",
         "--json", str(path)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] 3. main-theorem" in out
    assert "NotDiameterFourCactus" in out  # diagnostic names the cause
    # the failing fixture hides no other: the rest are still checked and reported
    (report,) = json.loads(path.read_text())
    details = report["details"]
    assert set(details) == {"t1min", "t2min", "cact4a", "cact4b"}
    assert "NotDiameterFourCactus" in details["t1min"]["error"]
    for name in ("t2min", "cact4a", "cact4b"):
        assert details[name]["verdict"] == {"normal": False, "s2": True}, name


def test_verify_paper_failing_criterion_keeps_its_title(tmp_path, capsys):
    # bowtie is file-backed, so loading it from an empty directory raises
    code = main(["verify-paper", "--fixtures", str(tmp_path), "--only", "figure1"])
    assert code == 1
    out = capsys.readouterr().out
    assert (
        "[FAIL] 1. figure1: bowtie regular vertices and single-vertex "
        "fundamental set\n"
    ) in out
    assert "FileNotFoundError" in out


def test_verify_paper_json_report(tmp_path, capsys):
    path = tmp_path / "vp.json"
    code = main(["verify-paper", "--only", "doubling", "--json", str(path)])
    assert code == 0
    capsys.readouterr()
    (report,) = json.loads(path.read_text())
    assert report["name"] == "doubling" and report["passed"] is True


# ------------------------------------------------------------ README


def _console_block(command):
    """The lines the README shows under `$ <command>` in a console block."""
    text = (ROOT / "README.md").read_text()
    head = f"```console\n$ {command}\n"
    start = text.index(head) + len(head)
    return text[start:text.index("```", start)].splitlines()


def test_readme_gen_and_analyze_blocks_match_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in ("gen --n 2 --s 1,0,1,0 -o t1.graph", "analyze t1.graph --degree 8"):
        assert main(command.split()) == 0
        captured = capsys.readouterr()
        # each command writes all of its stdout before its stderr
        lines = (captured.out + captured.err).splitlines()
        assert _console_block(f"edgering {command}") == lines, command


def test_readme_verify_paper_block_matches_criteria(monkeypatch, capsys):
    # every criterion passing, without running the suite
    reports = [
        {"id": i, "name": name, "title": title, "passed": True, "details": {}}
        for i, (name, _, title) in enumerate(acceptance.CRITERIA, 1)
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda only, fixtures_dir: reports)
    assert main(["verify-paper"]) == 0
    assert _console_block("edgering verify-paper") == capsys.readouterr().out.splitlines()


# ------------------------------------------------------------ import policy


def test_analyze_imports_no_third_party_module(t1min_file):
    # the library is pure Python; numpy and scipy serve only the test oracles
    script = (
        "import sys, edgering\n"
        "from edgering.cli import main\n"
        f"code = main(['analyze', {str(t1min_file)!r}])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('networkx', 'numpy', 'scipy')))\n"
        "sys.exit(code)\n"
    )
    src = str(DATA.parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
