"""The test run that pyproject.toml declares, which CI, README and the
roadmap's tier-1 command all run: a RuntimeWarning fails a test.

numpy's RuntimeWarning is the only sign that a solver's arithmetic left
the float range, so this holds for every test, not only for those that
set the filter themselves.
"""

import numpy as np
import pytest


def test_a_runtime_warning_fails_a_test():
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.divide(np.float64(1.0), np.float64(0.0))
