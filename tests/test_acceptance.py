"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete, or via `besov-rough accept`.
"""
import time

import pytest

from besov_rough.acceptance import CRITERIA


@pytest.mark.parametrize("cid,name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(cid, name, fn):
    start = time.time()
    result = fn()
    elapsed = time.time() - start
    tag = "PASS" if result["passed"] else "FAIL"
    detail = {k: v for k, v in result.items() if k != "passed"}
    print(f"[{tag}] {cid} {name} ({elapsed:.2f}s) {detail}")
    assert result["passed"], f"criterion {cid} ({name}) failed: {detail}"
