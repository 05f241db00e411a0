import contextlib
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

# The hypothesis plugin imports this module only once a property has failed,
# and the import raises a mypy_extensions DeprecationWarning, which
# filterwarnings = ["error"] turns into an INTERNALERROR that stops the run.
# Imported here first, the plugin's import finds it loaded.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# One profile for every property: no per-example deadline, as a loaded machine can stall
# any example past hypothesis's 200 ms default. A test's @settings names only what differs.
settings.register_profile("econrank", deadline=None)
settings.load_profile("econrank")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def toy_gdp_csv() -> Path:
    return DATA_DIR / "toy_gdp.csv"


@pytest.fixture
def toy_gci_csv() -> Path:
    return DATA_DIR / "toy_gci.csv"


@pytest.fixture
def fig7_config() -> Path:
    return DATA_DIR / "fig7.json"
