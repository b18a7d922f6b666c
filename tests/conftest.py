import pytest
from hypothesis import settings

from torusconf import decomp

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_decomposition_cache():
    """Start every test with no cached decomposition, so a test that patches
    a layer below the cache runs that layer whatever ran before it."""
    decomp._table_decomposition.cache_clear()
