"""Import the benchmark's modules and the checkout's ``src/`` directly."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]


@pytest.fixture(autouse=True)
def _few_setups(monkeypatch):
    """The tests' tiny set-ups take milliseconds; run each three times."""
    import worker

    monkeypatch.setattr(worker, "SETUP_SECONDS", 0.0)
