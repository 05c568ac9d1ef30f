import itertools

import pytest

from selfsim import (
    OrientedGraph,
    build_graph_automaton,
    builtin,
    check_acyclic_no_positive_identity,
    check_cycle_torsion,
    dual_path,
    equivalent,
    line_graph_complement,
    normal_form,
    presentation_from_tree,
    projections_equal,
    rewrite_step,
    semigroup_eq_via_action,
    trace_word,
)
from selfsim.errors import BadGraph, NotATree, PresentationMismatch, UnknownGenerator
from selfsim.tracemonoid import TracePresentation


@pytest.fixture(scope="module")
def fig5_pres(fig5_graph):
    return presentation_from_tree(fig5_graph)


@pytest.fixture(scope="module")
def star_pres(star_graph):
    return presentation_from_tree(star_graph)


def test_star_presentation_is_free(star_pres):
    assert star_pres.independent == frozenset()
    assert star_pres.letters == ("a", "b", "c", "id")


def test_fig5_presentation_pairs(fig5_pres):
    expected = {frozenset(p) for p in
                (("e1", "e5"), ("e2", "e4"), ("e2", "e5"), ("e3", "e4"), ("e3", "e5"))}
    assert fig5_pres.independent == frozenset(expected)


def test_single_edge_presentation():
    pres = presentation_from_tree(OrientedGraph([("e", "0", "1")]))
    assert pres.letters == ("e", "id")
    assert pres.independent == frozenset()


def test_presentation_needs_tree():
    with pytest.raises(NotATree):
        presentation_from_tree(builtin("triangle_cyclic"))


def test_trace_word_validates_letters(fig5_pres):
    with pytest.raises(UnknownGenerator):
        trace_word(fig5_pres, "e1 zz")


def test_rewrite_step_swap(fig5_pres):
    u = trace_word(fig5_pres, "e2 e4")
    assert {w.letters for w in rewrite_step(u)} == {("e4", "e2")}


def test_rewrite_step_no_commutations(star_pres):
    assert rewrite_step(trace_word(star_pres, "a b")) == ()


def test_rewrite_step_erasure(fig5_pres):
    u = trace_word(fig5_pres, "id e1")
    assert {w.letters for w in rewrite_step(u)} == {("e1",)}


def test_normal_form_swaps_to_lex_least(fig5_pres):
    assert normal_form(trace_word(fig5_pres, "e4 e2")).letters == ("e2", "e4")


def test_normal_form_keeps_dependent_order(star_pres):
    assert normal_form(trace_word(star_pres, "b a")).letters == ("b", "a")


def test_normal_form_erases_identity(fig5_pres):
    assert normal_form(trace_word(fig5_pres, "id id")).letters == ()
    assert str(normal_form(trace_word(fig5_pres, "id id"))) == "1"


def test_normal_form_idempotent_and_rewrite_invariant(fig5_pres):
    words = [trace_word(fig5_pres, " ".join(ls))
             for ls in itertools.product(("e1", "e2", "e4", "id"), repeat=3)]
    for u in words:
        nf = normal_form(u)
        assert normal_form(nf).letters == nf.letters
        for v in rewrite_step(u):
            assert normal_form(v).letters == nf.letters


def test_equivalent(fig5_pres, star_pres):
    assert equivalent(trace_word(fig5_pres, "e2 e4"), trace_word(fig5_pres, "e4 e2"))
    assert not equivalent(trace_word(star_pres, "a b"), trace_word(star_pres, "b a"))
    u = trace_word(fig5_pres, "e1")
    assert equivalent(u, u)


def test_presentation_mismatch(fig5_pres, star_pres):
    with pytest.raises(PresentationMismatch):
        equivalent(trace_word(fig5_pres, "e1"), trace_word(star_pres, "a"))


@pytest.mark.parametrize("letters, independent", [
    (["a", "b", "id"], [("a",)]),            # an independence item that is no pair
    (["a", "b", "id"], 5),                   # independence that is not iterable
    (["a", "b", "id", ["c"]], []),           # a letter that is not hashable
])
def test_malformed_presentation_is_refused(letters, independent):
    with pytest.raises(PresentationMismatch):
        TracePresentation(letters, independent)


@pytest.mark.parametrize("letters", [5, [["a"]]])
def test_trace_word_that_is_not_a_sequence_of_letters_is_refused(star_pres, letters):
    with pytest.raises(UnknownGenerator):
        trace_word(star_pres, letters)


def test_action_oracle(fig5, star):
    assert semigroup_eq_via_action(fig5, "e2 e4", "e4 e2").equal
    res = semigroup_eq_via_action(star, "a b", "b a")
    assert not res.equal
    assert res.witness == ("0",)
    assert semigroup_eq_via_action(star, "a b", "a b").equal


def test_action_oracle_ignores_identity_letters(fig5):
    assert semigroup_eq_via_action(fig5, "id e1 id", "e1").equal


def test_three_oracles_agree_small(fig5, fig5_pres):
    letters = fig5_pres.letters
    words = [ws for n in range(3) for ws in itertools.product(letters, repeat=n)]
    for u_l, v_l in itertools.combinations(words, 2):
        u, v = trace_word(fig5_pres, u_l), trace_word(fig5_pres, v_l)
        by_nf = equivalent(u, v)
        assert projections_equal(u, v) == by_nf
        assert semigroup_eq_via_action(fig5, u_l, v_l).equal == by_nf


def test_acyclic_triangle_has_no_positive_identities(triangle_acyclic):
    report = check_acyclic_no_positive_identity(triangle_acyclic, 6)
    assert report.status == "Pass"
    assert report.words_checked == 3 + 9 + 27 + 81 + 243 + 729


def test_tree_has_no_positive_identities(fig5):
    assert check_acyclic_no_positive_identity(fig5, 4).status == "Pass"


def test_acyclic_checker_rejects_cyclic_orientation(triangle_cyclic):
    with pytest.raises(BadGraph):
        check_acyclic_no_positive_identity(triangle_cyclic, 3)


def test_cycle_torsion_triangle(triangle_cyclic):
    assert check_cycle_torsion(triangle_cyclic, "a1 a2 a3", 3)


def test_cycle_torsion_rejects_non_cycles(triangle_cyclic, fig5):
    with pytest.raises(BadGraph):
        check_cycle_torsion(triangle_cyclic, "a1 a2", 2)
    with pytest.raises(BadGraph):
        check_cycle_torsion(triangle_cyclic, "a1 a1 a2", 3)
    with pytest.raises(BadGraph):
        check_cycle_torsion(fig5, "e1 e2", 2)
    for k in (3.0, True):
        with pytest.raises(BadGraph, match="cycle length must be an integer"):
            check_cycle_torsion(triangle_cyclic, "a1 a2 a3", k)


def test_square_cycle_torsion():
    aut = build_graph_automaton(builtin("cycle_4"))
    assert check_cycle_torsion(aut, "a1 a2 a3 a4", 4)


def test_forest_factorization():
    # two disjoint edges: equality is trace equivalence with one commuting pair
    forest = OrientedGraph([("e", "1", "2"), ("f", "3", "4")])
    aut = build_graph_automaton(forest)
    pres = TracePresentation(("e", "f", "id"), line_graph_complement(forest))
    letters = pres.letters
    words = [ws for n in range(4) for ws in itertools.product(letters, repeat=n)]
    for u_l, v_l in itertools.combinations(words, 2):
        u, v = trace_word(pres, u_l), trace_word(pres, v_l)
        by_action = semigroup_eq_via_action(aut, u_l, v_l).equal
        assert by_action == equivalent(u, v)
        # equality holds iff both per-component projections match
        def project(ws, letter):
            return tuple(x for x in ws if x == letter)
        split = (project(u_l, "e") == project(v_l, "e")
                 and project(u_l, "f") == project(v_l, "f"))
        assert by_action == split


def test_relations_share_first_vertices(fig5, fig5_pres):
    # for any relation u ~ v, the condensed walks from any vertex either both
    # stay put or start along the same edge
    letters = fig5_pres.letters
    words = [ws for n in range(4) for ws in itertools.product(letters, repeat=n)]
    by_nf = {}
    for ws in words:
        by_nf.setdefault(normal_form(trace_word(fig5_pres, ws)).letters, []).append(ws)
    for cls in by_nf.values():
        rep = cls[0]
        for other in cls[1:]:
            for x in fig5.alphabet:
                pu = dual_path(fig5, x, rep).condensed
                pv = dual_path(fig5, x, other).condensed
                if len(pu) == 1 or len(pv) == 1:
                    assert pu == (x,) and pv == (x,)
                else:
                    assert pu[:2] == pv[:2]
