from __future__ import annotations

import pytest

from strata import StratumStore


@pytest.fixture(scope="session")
def store() -> StratumStore:
    """Shared in-memory stratum store so levels are enumerated once."""
    return StratumStore()
