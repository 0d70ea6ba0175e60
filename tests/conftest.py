import os
import sys

import pytest

from dirlap.isoperimetric import _exact_results

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def fresh_exact_results():
    """Start every test with an empty exact-Cheeger cache, so that the order
    in which tests run cannot change what a counting test sees."""
    _exact_results.cache_clear()
