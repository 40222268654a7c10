import numpy as np
import pytest

from nlbranch.config import load_scenario
from nlbranch.testfn import assemble


@pytest.fixture(scope="session")
def case2():
    """The linear-branching instance with truncated-stable jumps."""
    return load_scenario("case2-stable")


@pytest.fixture(scope="session")
def case2_assembled(case2):
    return assemble(case2.case, case2.modulus, case2.params, kappa=case2.sim.kappa)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
