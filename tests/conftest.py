"""Fixtures shared across test modules."""
from pathlib import Path

import pytest

from ssnorm.cli import _load_train_configs
from ssnorm.training import train

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_default.json"


@pytest.fixture(scope="session")
def default_run():
    """(model, opt, data, log) of one run of ``configs/toy_default.json``.

    Shared by every test that reads the default run: none may change it."""
    model, opt, data = _load_train_configs(str(DEFAULT_CONFIG), None)
    return model, opt, data, train(model, opt, data)


@pytest.fixture(scope="session")
def seed123_run():
    """(model, opt, data, log) of ``configs/toy_default.json`` with seed 123,
    whose layer 1 selects (BN, BN).  Shared like ``default_run``."""
    model, opt, data = _load_train_configs(str(DEFAULT_CONFIG), 123)
    return model, opt, data, train(model, opt, data)
