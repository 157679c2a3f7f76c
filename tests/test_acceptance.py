"""End-to-end acceptance checks.

Runs every acceptance criterion once per session and emits one pass/fail
line for each, so a plain ``pytest tests/test_acceptance.py -v`` reads as
a checklist.  Each criterion is a separate test: one regression cannot
hide another.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from edgering import EdgeRingError, acceptance, semigroup

CRITERIA = acceptance.criterion_names()
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def acceptance_reports():
    reports = acceptance.run_all()
    return {r["name"]: r for r in reports}


def test_every_criterion_is_covered(acceptance_reports):
    assert sorted(acceptance_reports) == sorted(CRITERIA)
    assert len(CRITERIA) == 8


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name, acceptance_reports, capsys):
    report = acceptance_reports[name]
    status = "PASS" if report["passed"] else "FAIL"
    with capsys.disabled():
        print(f"  [{status}] {report['id']}. {name}: {report['title']}")
    assert report["passed"], json.dumps(report, indent=2, sort_keys=True)


def test_reports_are_json_serializable(acceptance_reports):
    blob = json.dumps(list(acceptance_reports.values()), sort_keys=True)
    assert all(name in blob for name in CRITERIA)


def test_reports_match_the_golden_report(acceptance_reports):
    # the whole report, details included, as `edgering verify-paper --json`
    # writes it: a changed count or a dropped entry shows here
    got = json.dumps([acceptance_reports[name] for name in CRITERIA],
                     indent=2, sort_keys=True)
    assert got == (GOLDEN / "verify_paper.json").read_text()


def test_each_degree_is_enumerated_once_per_graph(monkeypatch):
    # `normality` and `cross-check` share their degree-12 records: one
    # method-A walk and one build of S_D's slabs per (graph, degree). The
    # run keeps its graphs alive, so id(G) names one graph throughout
    seen = {}
    for name in ("_enumerate_by_inequalities", "_semigroup_slabs"):
        def counted(G, D, *rest, _fn=getattr(semigroup, name),
                    _calls=seen.setdefault(name, [])):
            _calls.append((id(G), D))
            return _fn(G, D, *rest)

        monkeypatch.setattr(semigroup, name, counted)
    reports = acceptance.run_all(only=["normality", "cross-check"])
    assert [r["passed"] for r in reports] == [True, True]
    walks, slabs = (Counter(calls) for calls in seen.values())
    assert walks == slabs
    assert len(walks) == len(set(acceptance.SMALL_FIXTURES)
                             | set(acceptance.NORMAL_FIXTURES)
                             | set(acceptance.NON_NORMAL_FIXTURES))
    assert set(walks.values()) == {1}



def _raising(error):
    def criterion(load):
        raise error

    return (("broken", criterion, "raises"),)


def test_run_all_reports_an_input_error(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", _raising(EdgeRingError("refused")))
    (report,) = acceptance.run_all()
    assert report["passed"] is False
    assert report["details"] == {"error": "EdgeRingError: refused"}


def test_run_all_re_raises_a_bug(monkeypatch):
    # only EdgeRingError, OSError and ValueError become failing reports; any
    # other exception is a bug in the library, not a verdict, and propagates
    monkeypatch.setattr(acceptance, "CRITERIA", _raising(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        acceptance.run_all()
