import pytest
from hypothesis import settings

import infodesign as idg


@pytest.fixture(scope="session")
def example_model():
    return idg.motivating_example()


@pytest.fixture(scope="session")
def example_problem(example_model):
    return idg.build_treatment_problem(example_model)


@pytest.fixture(scope="session")
def example_marginal_yt(example_model):
    return idg.marginal_structure(example_model, ["Y", "T"])


# Property tests draw the same examples on every run, and exact arithmetic
# has long-tailed timings, so no per-example deadline applies.
settings.register_profile("infodesign", derandomize=True, deadline=None)
settings.load_profile("infodesign")
