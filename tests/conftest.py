import numpy as np
import pytest

from nlbranch.cli import assemble_scenario
from nlbranch.config import load_scenario


@pytest.fixture(scope="session")
def case2():
    """The linear-branching instance with truncated-stable jumps."""
    return load_scenario("case2-stable")


@pytest.fixture(scope="session")
def case2_assembled(case2):
    return assemble_scenario(case2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
