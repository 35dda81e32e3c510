"""The golden files of DEEP in test_golden.py, about 30 s in one process.

CI runs them; tier-1 does not collect this module (not test_*.py):

    PYTHONPATH=src python -m pytest -q tests/deep_golden.py
"""

import pytest

from test_golden import DEEP, check


@pytest.mark.parametrize("key", DEEP)
def test_deep_golden_output(key):
    check(key, DEEP[key])
