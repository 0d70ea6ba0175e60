import os
import sys

import pytest

from dirlap.verify import _assembled

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def fresh_caches():
    """Start every test with an empty operator cache, so that the order in
    which tests run cannot change what a counting test sees."""
    _assembled.cache_clear()
