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
