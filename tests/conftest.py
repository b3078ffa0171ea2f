import faulthandler
import os
import warnings

import pytest

from geodex import catalog_a, catalog_b

# hypothesis writes a patch for a failing example through this module, which
# imports libcst, whose mypy_extensions dependency warns on import; under
# -W error that warning would end the session instead of reporting the
# failure, so the module is imported once here with that warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def cat_a():
    return catalog_a().digraph


@pytest.fixture(scope="session")
def cat_b():
    return catalog_b().digraph


# a copy of stderr made in pytest_configure, while pytest does not capture
# it: a test's output is captured, and a run that faulthandler ends loses it
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_bound(request):
    """End the run with every thread's traceback once a test has taken 120 s.

    That is over 40 times the slowest test, so only a stall reaches it,
    such as a pruning fault that makes a search run on for minutes.
    """
    faulthandler.dump_traceback_later(120, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
