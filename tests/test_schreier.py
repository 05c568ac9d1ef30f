import pytest

from selfsim import (
    FiniteAction,
    build_reducible_automaton,
    check_reducible,
    decorated_schreier_graph,
    dump_action,
    enriched_dual,
    inverse_symbol,
    is_invertible,
    is_reduced,
    load_action,
    schreier_graph,
    spanning_tree,
    verify_loop_shortening,
)
from selfsim.errors import BadAction, BadAssignment, FormatError
from selfsim.schreier import load_assignment


@pytest.fixture(scope="module")
def triangle_action():
    return FiniteAction(["a"], 3, {"a": (1, 2, 0)}, basepoint=0)


@pytest.fixture(scope="module")
def two_point_action():
    return FiniteAction(["a", "b"], 2, {"a": (1, 0), "b": (0, 1)}, basepoint=0)


def test_schreier_graph_triangle(triangle_action):
    sch = schreier_graph(triangle_action)
    assert sch.vertices == (0, 1, 2)
    assert sch.arcs == ((0, "a", 1), (1, "a", 2), (2, "a", 0))


def test_schreier_graph_trivial_action():
    act = FiniteAction(["a", "b"], 1, {"a": (0,), "b": (0,)})
    sch = schreier_graph(act)
    assert sch.vertices == (0,)
    assert sch.arcs == ((0, "a", 0), (0, "b", 0))


def test_schreier_graph_two_points(two_point_action):
    sch = schreier_graph(two_point_action)
    assert sch.vertices == (0, 1)
    assert (0, "b", 0) in sch.arcs and (1, "b", 1) in sch.arcs


def test_schreier_graph_restricts_to_orbit():
    act = FiniteAction(["a"], 5, {"a": (1, 0, 2, 4, 3)}, basepoint=3)
    assert schreier_graph(act).vertices == (3, 4)


def test_spanning_tree_triangle(triangle_action):
    tree = spanning_tree(schreier_graph(triangle_action))
    assert tree == ((0, "a", 1), (1, "a", 2))


def test_spanning_tree_single_vertex():
    act = FiniteAction(["a"], 1, {"a": (0,)})
    assert spanning_tree(schreier_graph(act)) == ()


def test_spanning_tree_two_points(two_point_action):
    assert spanning_tree(schreier_graph(two_point_action)) == ((0, "a", 1),)


def test_build_triangle_machine(triangle_action):
    aut = build_reducible_automaton(triangle_action)
    assert aut.states == ("a", "id")
    assert aut.alphabet == ("0", "1", "2")
    assert aut.sink == "id"
    rows = {(s, x): (aut.next(s, x), aut.out(s, x)) for s in aut.states for x in aut.alphabet}
    assert rows[("a", "0")] == ("a", "1")
    assert rows[("a", "1")] == ("a", "2")
    assert rows[("a", "2")] == ("id", "0")


def test_build_two_point_machine(two_point_action):
    # a is the single-edge machine on the cosets, b fixes letters with sink residuals
    aut = build_reducible_automaton(two_point_action)
    assert (aut.next("a", "0"), aut.out("a", "0")) == ("a", "1")
    assert (aut.next("a", "1"), aut.out("a", "1")) == ("id", "0")
    for x in aut.alphabet:
        assert aut.out("b", x) == x
        assert aut.next("b", x) == "id"


def test_degenerate_single_coset_machine():
    act = FiniteAction(["a"], 1, {"a": (0,)})
    aut = build_reducible_automaton(act)
    assert (aut.next("a", "0"), aut.out("a", "0")) == ("a", "0")
    report = verify_loop_shortening(aut, 4)
    assert report.status == "Violations"
    assert (("0", (("a", 1),)) in report.violations)


def test_custom_assignment(triangle_action):
    aut = build_reducible_automaton(triangle_action, {(0, "a"): "id"})
    assert aut.next("a", "0") == "id"
    with pytest.raises(BadAssignment):
        build_reducible_automaton(triangle_action, {(2, "a"): "a"})
    with pytest.raises(BadAssignment):
        build_reducible_automaton(triangle_action, {(0, "a"): "zz"})


def test_built_machines_always_invertible(triangle_action, two_point_action):
    for act in (triangle_action, two_point_action):
        assert is_invertible(build_reducible_automaton(act))


def test_decorated_graph_inverse_arcs_consistent(triangle_action):
    dec = decorated_schreier_graph(triangle_action)
    for p in dec.states:
        for g in ("a", "id"):
            q = dec.next(p, g)
            out = dec.out(p, g)
            assert dec.next(q, inverse_symbol(g)) == p
            assert dec.out(q, inverse_symbol(g)) == inverse_symbol(out)


def test_enriched_dual_round_trip(triangle_action, two_point_action):
    for act in (triangle_action, two_point_action):
        aut = build_reducible_automaton(act)
        assert enriched_dual(aut) == decorated_schreier_graph(act)


def test_round_trip_with_assignment(triangle_action):
    assignment = {(0, "a"): "a", (1, "a"): "id"}
    aut = build_reducible_automaton(triangle_action, assignment)
    assert enriched_dual(aut) == decorated_schreier_graph(triangle_action, assignment)


def test_generated_machine_is_reducible(triangle_action):
    aut = build_reducible_automaton(triangle_action)
    assert check_reducible(aut, 4, 8).status == "Pass"
    assert is_reduced(aut)


def test_loop_shortening_triangle(triangle_action):
    aut = build_reducible_automaton(triangle_action)
    report = verify_loop_shortening(aut, 6)
    assert report.status == "Pass"
    assert report.words_checked > 0


def test_action_validation():
    with pytest.raises(BadAction):
        FiniteAction(["a"], 3, {"a": (0, 0, 1)})
    with pytest.raises(BadAction):
        FiniteAction(["id"], 2, {"id": (1, 0)})
    with pytest.raises(BadAction):
        FiniteAction(["a"], 2, {"a": (0, 1)}, basepoint=5)
    # an identity row named like the sink is accepted and dropped
    act = FiniteAction(["a", "id"], 2, {"a": (1, 0), "id": (0, 1)})
    assert act.generators == ("a",)


@pytest.mark.parametrize("change", [
    {"degree": 2.0}, {"degree": True, "perms": {"a": (0,)}},
    {"basepoint": "0"}, {"basepoint": True},
    {"perms": {}}, {"perms": {"a": 5}}, {"perms": {"a": (1, "0")}}, {"perms": {"a": (1.0, 0)}},
])
def test_malformed_actions_are_refused(change):
    # a float or bool degree or basepoint, a generator without images, and
    # images that are no sequence of ints each raised a bare TypeError or
    # KeyError, or were accepted and broke the machine built from them
    args = {"degree": 2, "perms": {"a": (1, 0)}, "basepoint": 0}
    args.update(change)
    with pytest.raises(BadAction):
        FiniteAction(["a"], args["degree"], args["perms"], basepoint=args["basepoint"])


def test_action_file_round_trip(triangle_action):
    text = dump_action(triangle_action)
    again = load_action(text)
    assert again.generators == triangle_action.generators
    assert again.perms == triangle_action.perms
    assert again.basepoint == triangle_action.basepoint


def test_action_file_errors():
    with pytest.raises(FormatError):
        load_action("basepoint 0\na: 0 1\n")
    with pytest.raises(FormatError):
        load_action("degree 2\na: 0\n")
    with pytest.raises(FormatError):
        load_action("degree x\n")


def test_assignment_file():
    assignment = load_assignment("0 a a\n1 a id  # comment\n")
    assert assignment == {(0, "a"): "a", (1, "a"): "id"}
    with pytest.raises(FormatError):
        load_assignment("x a a\n")
