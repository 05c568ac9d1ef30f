import pytest
from hypothesis import settings

from selfsim import builtin, builtin_automaton

# one profile for every property test: no deadline, examples drawn from a
# fixed seed, nothing written to .hypothesis/; tests set only max_examples
settings.register_profile("selfsim", deadline=None, derandomize=True, database=None)
settings.load_profile("selfsim")


@pytest.fixture(scope="session")
def star():
    return builtin_automaton("star3")


@pytest.fixture(scope="session")
def star_graph():
    return builtin("star3")


@pytest.fixture(scope="session")
def fig5():
    return builtin_automaton("fig5_tree")


@pytest.fixture(scope="session")
def fig5_graph():
    return builtin("fig5_tree")


@pytest.fixture(scope="session")
def adding():
    return builtin_automaton("adding_machine")


@pytest.fixture(scope="session")
def basilica():
    return builtin_automaton("basilica")


@pytest.fixture(scope="session")
def demo():
    return builtin_automaton("non_reducible_demo")


@pytest.fixture(scope="session")
def triangle_cyclic():
    return builtin_automaton("triangle_cyclic")


@pytest.fixture(scope="session")
def triangle_acyclic():
    return builtin_automaton("triangle_acyclic")
