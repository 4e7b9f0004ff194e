import numpy as np
import pytest
from hypothesis import settings

# Draw the same examples on every run, so a test's verdict depends only on
# the code: a run cannot fail on a draw that the previous run never made.
# Derandomizing also turns the example database off. Each test keeps its
# own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def raise_on_float_faults():
    """Run every test with NumPy raising FloatingPointError on overflow,
    an invalid operation or a division by zero, so a fault fails the test
    where it happens. A test that feeds such input on purpose opts out
    with its own np.errstate."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield
