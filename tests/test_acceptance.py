"""The acceptance gate: every criterion runs at its pinned tolerances and
seeds and prints one pass/fail line; the suite is green only if all twelve
hold."""

import pytest

from wingtail import acceptance


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number):
    result = acceptance.run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number:2d} ({result.name}) "
          f"in {result.runtime:.1f}s: {result.detail}")
    assert result.passed, f"criterion {number} ({result.name}): {result.detail}"
