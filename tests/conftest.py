"""Fixtures shared by the test modules."""

import time

import pytest

from pseudoradar.cli import gradcheck_components


@pytest.fixture(scope="session")
def gradcheck_seed0():
    """``gradcheck_components(seed=0)``, computed once, and the seconds it took.

    Criterion 1 and the CLI's gradcheck test both read it; neither may
    change the dict.
    """
    start = time.monotonic()
    errors = gradcheck_components(seed=0)
    return errors, time.monotonic() - start
