"""Acceptance suite: one test per entry of cpdtlab.acceptance.CHECKS.

`cpdtlab verify` runs the same table through the same `run_check`, which
times each check and fails it past its budget; each test prints the line
`verify` prints.  The full sweeps behind checks 08-11 are built once per
process, so they run once no matter how the suite is sliced.
"""

import pytest

from cpdtlab.acceptance import CHECKS, run_check


@pytest.mark.parametrize("name", list(CHECKS))
def test_acceptance(name):
    result = run_check(name)
    print(result)
    assert result.passed, str(result)
