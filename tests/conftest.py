import pytest
from hypothesis import settings

from nonarch.field import FieldParams

# every property test is deterministic by default: a fixed example sequence,
# no example database carried between runs, no per-example deadline
settings.register_profile("nonarch", derandomize=True, database=None, deadline=None)
settings.load_profile("nonarch")


@pytest.fixture(scope="session")
def q3():
    return FieldParams("padic", 3, 12)


@pytest.fixture(scope="session")
def q5():
    return FieldParams("padic", 5, 12)


@pytest.fixture(scope="session")
def q7():
    return FieldParams("padic", 7, 10)


@pytest.fixture(scope="session")
def l3():
    return FieldParams("laurent", 3, 12)
