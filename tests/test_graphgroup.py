import itertools

import pytest

from selfsim import (
    OrientedGraph,
    apply_word,
    build_graph_automaton,
    builtin,
    builtin_automaton,
    dump_graph,
    is_bounded,
    is_identity,
    is_invertible,
    is_tree,
    line_graph_complement,
    load_graph,
    parse_word,
)
from selfsim.errors import BadGraph, EmptyGraph, UnknownFixture

from test_mealy import make_star


def test_star3_reproduces_reference_table(star_graph):
    assert build_graph_automaton(star_graph) == make_star()


def test_single_edge_is_adding_machine(adding):
    g = OrientedGraph([("e", "0", "1")])
    aut = build_graph_automaton(g)
    assert aut == adding
    assert aut.out("e", "0") == "1" and aut.out("e", "1") == "0"
    assert aut.next("e", "0") == "e" and aut.next("e", "1") == "id"


def test_path_graph_automaton():
    aut = build_graph_automaton(builtin("path_3"))
    assert aut.states == ("e1", "e2", "id")
    assert aut.alphabet == ("1", "2", "3")
    assert aut.out("e1", "3") == "3"


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        build_graph_automaton(OrientedGraph([]))
    with pytest.raises(BadGraph):
        build_graph_automaton(OrientedGraph([("e", "1", "2")], vertices=["9"]))


def test_graph_validation():
    with pytest.raises(BadGraph):
        OrientedGraph([("e", "1", "1")])
    with pytest.raises(BadGraph):
        OrientedGraph([("e", "1", "2"), ("e", "2", "3")])
    with pytest.raises(BadGraph):
        OrientedGraph([("e", "1", "2"), ("f", "2", "1")])
    with pytest.raises(BadGraph):
        build_graph_automaton(OrientedGraph([("id", "1", "2")]))


def test_is_tree(star_graph, fig5_graph):
    assert is_tree(star_graph)
    assert is_tree(fig5_graph)
    assert not is_tree(builtin("triangle_cyclic"))
    two_edges = OrientedGraph([("e", "1", "2"), ("f", "3", "4")])
    assert not is_tree(two_edges)


def test_line_graph_complement(fig5_graph, star_graph):
    assert line_graph_complement(fig5_graph) == (
        ("e1", "e5"), ("e2", "e4"), ("e2", "e5"), ("e3", "e4"), ("e3", "e5"))
    assert line_graph_complement(star_graph) == ()
    assert line_graph_complement(builtin("path_3")) == ()


def test_builtins(star_graph):
    assert builtin("star3") == star_graph
    assert builtin_automaton("adding_machine").states == ("e", "id")
    with pytest.raises(UnknownFixture):
        builtin("no_such_fixture")
    with pytest.raises(UnknownFixture):
        builtin("path_1")
    assert len(builtin("cycle_5").edges) == 5
    assert len(builtin("path_4").edges) == 3


def test_basilica_fixture(basilica):
    assert basilica.states == ("a", "b", "id")
    assert basilica.alphabet == ("0", "1")
    assert is_invertible(basilica)
    assert is_bounded(basilica)


def test_non_reducible_demo_fixture(demo):
    assert is_invertible(demo)
    assert demo.out("s", "2") == "2"
    assert demo.next("s", "2") == "s"
    assert demo.sink == "id"


def test_graph_fixtures_build_invertible_bounded():
    for name in ("star3", "fig5_tree", "path_3", "cycle_3", "cycle_4", "triangle_acyclic"):
        aut = build_graph_automaton(builtin(name)) if name != "triangle_acyclic" \
            else builtin_automaton(name)
        assert is_invertible(aut)
        assert is_bounded(aut)


def everything_words(alphabet, depth):
    for n in range(depth + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_orientation_reversal_gives_inverse_state(star):
    # reversing the orientation of a turns its state into the inverse element
    flipped = OrientedGraph([("a", "1", "0"), ("b", "0", "2"), ("c", "0", "3")])
    aut2 = build_graph_automaton(flipped)
    w_flipped = parse_word("a", aut2)
    w_inv = parse_word("a^-1", star)
    for u in everything_words(star.alphabet, 6):
        assert apply_word(aut2, w_flipped, u) == apply_word(star, w_inv, u)


def test_commutation_iff_non_incident(fig5, fig5_graph):
    independent = set(map(frozenset, line_graph_complement(fig5_graph)))
    names = fig5_graph.edge_names()
    for e, f in itertools.combinations(names, 2):
        w = parse_word("%s %s %s^-1 %s^-1" % (e, f, e, f), fig5)
        expected = frozenset((e, f)) in independent
        assert is_identity(fig5, w).identity == expected


def test_star_edges_never_commute(star, star_graph):
    # all star edges share the center, so no pair commutes
    for e, f in itertools.combinations(star_graph.edge_names(), 2):
        w = parse_word("%s %s %s^-1 %s^-1" % (e, f, e, f), star)
        assert not is_identity(star, w).identity


def test_graph_file_round_trip(fig5_graph):
    text = dump_graph(fig5_graph)
    assert load_graph(text) == fig5_graph
    with_isolated = OrientedGraph([("e", "1", "2")], vertices=["9", "1"])
    again = load_graph(dump_graph(with_isolated))
    assert again == with_isolated
    assert again.isolated_vertices() == ("9",)
    with pytest.raises(BadGraph):
        build_graph_automaton(with_isolated)


def test_graph_file_comments_and_errors():
    g = load_graph("# a comment\ne 1 2  # trailing\n")
    assert g.edge_names() == ("e",)
    from selfsim.errors import FormatError
    with pytest.raises(FormatError):
        load_graph("e 1\n")
