"""The acceptance gate: every criterion runs at its pinned tolerances and
seeds and prints one pass/fail line; the suite is green only if all twelve
hold."""

import pytest

from wingtail import acceptance, cli


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number:2d} ({result.name}) "
          f"in {result.runtime:.1f}s: {result.detail}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"


def test_run_all_prints_each_criterion_in_order(monkeypatch, capsys):
    # one [PASS]/[FAIL] line per criterion, in the order of its number, and
    # `validate` exits 2 when one of them fails
    stub = {2: ("second", lambda: (False, "missed")), 1: ("first", lambda: (True, "held"))}
    monkeypatch.setattr(acceptance, "CRITERIA", stub)
    results = acceptance.run_all()
    assert [(r.number, r.name, r.passed, r.detail) for r in results] == [
        (1, "first", True, "held"), (2, "second", False, "missed")]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[PASS] criterion  1 (first) in ") and lines[0].endswith("s: held")
    assert lines[1].startswith("[FAIL] criterion  2 (second) in ") and lines[1].endswith("s: missed")
    assert cli.main(["validate"]) == 2
    assert [line[:6] for line in capsys.readouterr().out.splitlines()] == ["[PASS]", "[FAIL]"]
    monkeypatch.setitem(stub, 2, ("second", lambda: (True, "held")))
    assert cli.main(["validate"]) == 0
    assert [line[:6] for line in capsys.readouterr().out.splitlines()] == ["[PASS]", "[PASS]"]
