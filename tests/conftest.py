import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "shapelift",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("shapelift")


@pytest.fixture
def traced_peak():
    """Run ``fn()`` under tracemalloc; return its result and peak bytes."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
