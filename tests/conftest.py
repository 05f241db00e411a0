import contextlib
import warnings
from pathlib import Path

import pytest

# The hypothesis plugin imports this module only once a property has failed,
# and the import raises a mypy_extensions DeprecationWarning, which
# filterwarnings = ["error"] turns into an INTERNALERROR that stops the run.
# Imported here first, the plugin's import finds it loaded.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
