import os
import sys

import pytest

from dirlap.isoperimetric import _exact_results
from dirlap.verify import _assembled

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with empty exact-Cheeger and operator caches, so
    that the order in which tests run cannot change what a counting test
    sees."""
    _exact_results.cache_clear()
    _assembled.cache_clear()
