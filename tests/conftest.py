import random

import pytest
from hypothesis import HealthCheck, settings

from coxtoric.corpus import corpus_fans

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def corpus():
    return corpus_fans()


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, *names)` counts the calls to the named functions
    of a module (or methods of a class), through its own bindings, for the
    rest of the test; it returns the live counts by name."""
    def count(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(module, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        return calls
    return count
