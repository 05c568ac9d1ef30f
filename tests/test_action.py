import itertools
import random
import re
import tracemalloc

import pytest

from selfsim import (
    GroupWord,
    apply_word,
    build_reducible_automaton,
    builtin,
    builtin_automaton,
    check_reducible,
    commutator,
    dual_path,
    embed_in_product,
    erase_id,
    find_noose,
    format_word,
    fragile_index,
    fragile_member,
    is_identity,
    level1_permutation,
    load_action,
    loops_at,
    parse_word,
    power,
    reduce_word,
    restrict_word,
    semigroup_eq_via_action,
    shortest_representative,
    stabilizes_level,
    transposition_word,
    wp_fragile,
    wreath,
)
from selfsim.action import (
    check_level_cap,
    free_reduce,
    iter_level_words,
    iter_reduced_words,
)
from selfsim.errors import (
    AlphabetMismatch,
    BadPower,
    Disconnected,
    LevelTooLarge,
    UnknownGenerator,
)


def rand_word(rng, gens, max_len):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.choice(gens), rng.choice((1, -1))))
    return GroupWord(letters)


def rand_level_word(rng, aut, max_len):
    return tuple(rng.choice(aut.alphabet) for _ in range(rng.randrange(max_len + 1)))


# -- reduction and parsing -------------------------------------------------

def test_reduce_cancels_adjacent_inverses(star):
    assert reduce_word(star, "a b b^-1 c") == parse_word("a c", star)


def test_reduce_deletes_sink_letters(star):
    assert reduce_word(star, "id a id^-1") == parse_word("a", star)


def test_reduce_to_empty(star):
    assert reduce_word(star, "a^-1 a").is_empty()
    assert format_word(reduce_word(star, "a^-1 a")) == "1"


def test_unknown_generator(star):
    with pytest.raises(UnknownGenerator):
        parse_word("a z", star)


def test_free_reduce_is_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        letters = tuple((rng.choice("xyz"), rng.choice((1, -1))) for _ in range(8))
        once = free_reduce(letters)
        assert free_reduce(once) == once


def test_group_word_refuses_a_letter_that_is_not_a_signed_generator():
    # a bare generator, a sign other than +-1 and a non-iterable word are refused
    # as they are on a machine, where _encode_word meets the same items
    for word in (["a"], [("a", 2)], [("a", 1, 1)], [5], 5):
        with pytest.raises(UnknownGenerator):
            GroupWord(word)
    assert GroupWord([["a", 1], ("a", -1), ("b", -1)]).letters == (("b", -1),)


def test_machine_word_that_is_not_a_sequence_of_generators_is_refused(basilica):
    # _encode_word refuses a word that is not iterable or a letter that is not hashable
    for call in (lambda: is_identity(basilica, 5), lambda: wreath(basilica, None),
                 lambda: is_identity(basilica, [["a", 1]])):
        with pytest.raises(UnknownGenerator):
            call()


# -- apply -------------------------------------------------------------------

def test_apply_star_state_a(star):
    assert apply_word(star, "a", "0 2") == ("1", "2")


def test_apply_empty_word(star):
    assert apply_word(star, "", "0 1 2") == ("0", "1", "2")


def test_apply_composes_leftmost_first(star):
    assert apply_word(star, "a b", "0") == ("1",)


def test_apply_alphabet_mismatch(star):
    with pytest.raises(AlphabetMismatch):
        apply_word(star, "a", "0 9")


def test_input_word_that_is_not_a_sequence_of_letters_is_refused(basilica):
    for u in (5, [["0"]]):
        with pytest.raises(AlphabetMismatch):
            apply_word(basilica, "a", u)


# -- restrict ------------------------------------------------------------------

def test_restrict_star_ab_at_0(star):
    assert restrict_word(star, "a b", "0") == parse_word("a", star)


def test_restrict_at_empty_input(star):
    w = parse_word("a b^-1", star)
    assert restrict_word(star, w, "") == w


def test_adding_machine_square_restricts_to_itself(adding):
    assert restrict_word(adding, "e e", "0") == parse_word("e", adding)
    assert restrict_word(adding, "e e", "1") == parse_word("e", adding)


def test_restriction_concatenates_left_to_right():
    # on the path 1-2-3, e1 e2 read from 1 visits both tails in order
    aut = __import__("selfsim").build_graph_automaton(builtin("path_3"))
    assert apply_word(aut, "e1 e2", "1") == ("3",)
    assert restrict_word(aut, "e1 e2", "1") == parse_word("e1 e2", aut)
    assert apply_word(aut, "e1 e2", "1 1") == ("3", "3")


# -- wreath ---------------------------------------------------------------------

def test_wreath_adding_machine(adding):
    rep = wreath(adding, "e")
    assert rep.perm == {"0": "1", "1": "0"}
    assert rep.sections["0"] == parse_word("e", adding)
    assert rep.sections["1"].is_empty()


def test_wreath_empty_word(star):
    rep = wreath(star, "")
    assert rep.perm == {x: x for x in star.alphabet}
    assert all(sec.is_empty() for sec in rep.sections.values())


def test_wreath_star_a_inverse(star):
    rep = wreath(star, "a^-1")
    assert rep.perm == {"0": "1", "1": "0", "2": "2", "3": "3"}
    assert rep.sections["1"] == parse_word("a^-1", star)
    for x in ("0", "2", "3"):
        assert rep.sections[x].is_empty()


def test_wreath_recomposition_law(star, fig5):
    rng = random.Random(11)
    for aut in (star, fig5):
        gens = [s for s in aut.states if s != aut.sink]
        for _ in range(60):
            w = rand_word(rng, gens, 5)
            rep = wreath(aut, w)
            u = rand_level_word(rng, aut, 4)
            for x in aut.alphabet:
                expect = (rep.perm[x],) + apply_word(aut, rep.sections[x], u)
                assert apply_word(aut, w, (x,) + u) == expect


def test_cocycle_law(star, fig5):
    # residual of a product: left factor at u, right factor at the image of u
    rng = random.Random(13)
    for aut in (star, fig5):
        gens = [s for s in aut.states if s != aut.sink]
        for _ in range(80):
            w1 = rand_word(rng, gens, 4)
            w2 = rand_word(rng, gens, 4)
            u = rand_level_word(rng, aut, 4)
            assert apply_word(aut, w1 * w2, u) == apply_word(aut, w2, apply_word(aut, w1, u))
            expected = restrict_word(aut, w1, u) * restrict_word(aut, w2, apply_word(aut, w1, u))
            assert restrict_word(aut, w1 * w2, u) == expected


def test_inverse_law(star):
    rng = random.Random(17)
    gens = ["a", "b", "c"]
    for _ in range(60):
        w = rand_word(rng, gens, 5)
        u = rand_level_word(rng, star, 4)
        assert apply_word(star, w.inverse(), apply_word(star, w, u)) == u


def test_product_with_inverse_has_trivial_residual(star, fig5):
    # residual of h h^-1 at u is (h at u)(h at u)^-1, which reduces away
    rng = random.Random(19)
    for aut in (star, fig5):
        gens = [s for s in aut.states if s != aut.sink]
        for _ in range(60):
            h = rand_word(rng, gens, 5)
            u = rand_level_word(rng, aut, 4)
            r1 = restrict_word(aut, h, u)
            r2 = restrict_word(aut, h.inverse(), apply_word(aut, h, u))
            assert r2 == r1.inverse()
            assert (r1 * r2).is_empty()


# -- level stabilizers -------------------------------------------------------------

def test_star_commutator_does_not_stabilize_level_one(star):
    # a and b share the center, so their commutator is a 3-cycle on letters
    w = parse_word("a b a^-1 b^-1", star)
    assert not stabilizes_level(star, w, 1)
    assert level1_permutation(star, w) == {"0": "2", "1": "0", "2": "1", "3": "3"}


def test_square_stabilizes_level_one(star):
    assert stabilizes_level(star, "a a", 1)


def test_non_incident_commutator_stabilizes(fig5):
    w = parse_word("e2 e4 e2^-1 e4^-1", fig5)
    assert stabilizes_level(fig5, w, 1)
    assert stabilizes_level(fig5, w, 3)


def test_level_zero_always_stabilized(star):
    assert stabilizes_level(star, "a", 0)


def test_single_state_moves_level_one(star):
    assert not stabilizes_level(star, "a", 1)


def test_level_cap(star):
    with pytest.raises(LevelTooLarge):
        stabilizes_level(star, "a", 3, cap=10)
    # the level listing refuses a level past the cap at the call
    n = len(star.alphabet)
    with pytest.raises(LevelTooLarge, match="^level 3 enumeration has %d\\^3 entries" % n):
        iter_level_words(star, 3, cap=n ** 3 - 1)
    assert len(list(iter_level_words(star, 3, cap=n ** 3))) == n ** 3


def test_level_cap_is_decided_without_the_full_power(fig5):
    # 6^(10^9) is never computed; the message is the one for two or more letters
    message = r"^level 1000000000 enumeration has 6\^1000000000 entries, cap is 1000000$"
    with pytest.raises(LevelTooLarge, match=message):
        check_level_cap(fig5, 10 ** 9)


def test_one_letter_level_cap():
    # 1^k never passes the cap, so on the one-letter coset machine k itself is capped
    one = build_reducible_automaton(load_action("degree 1\na: 0\n"))
    assert stabilizes_level(one, "a", 10 ** 6)
    deeper = "^level 1000001 is deeper than the cap 1000000$"
    with pytest.raises(LevelTooLarge, match=deeper):
        stabilizes_level(one, "a", 10 ** 6 + 1)
    with pytest.raises(LevelTooLarge, match=deeper):
        iter_level_words(one, 10 ** 6 + 1)


def test_huge_level_is_refused_with_its_digit_count(fig5):
    # str() refuses an int of more than 4300 digits, so the messages give the count
    with pytest.raises(LevelTooLarge, match=r"^level <5001-digit number> enumeration has "
                                            r"6\^<5001-digit number> entries, cap is 1000000$"):
        check_level_cap(fig5, 10 ** 5000)
    one = build_reducible_automaton(load_action("degree 1\na: 0\n"))
    with pytest.raises(LevelTooLarge,
                       match="^level <5001-digit number> is deeper than the cap 1000000$"):
        stabilizes_level(one, "a", 10 ** 5000)


def test_one_letter_level_walk_memory_is_bounded():
    # a one-letter frame keeps no set of the residuals it met: the walk holds
    # a frame and a memo entry per level, well under 300 bytes each
    one = build_reducible_automaton(load_action("degree 1\na: 0\n"))
    k = 10 ** 5
    tracemalloc.start()
    try:
        assert stabilizes_level(one, "a", k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * k


def test_negative_level_is_refused(star):
    # the level cap refuses it, for the level walk and the level listing
    # alike; the listing refuses it at the call, before it is iterated
    with pytest.raises(LevelTooLarge, match="^level must be >= 0$"):
        stabilizes_level(star, "a", -1)
    with pytest.raises(LevelTooLarge, match="^level must be >= 0$"):
        iter_level_words(star, -1)
    with pytest.raises(LevelTooLarge, match="^level must be >= 0$"):
        check_level_cap(star, -2)


@pytest.mark.parametrize("error,message,call", [
    (LevelTooLarge, "level must be an integer, got 2.0",
     lambda aut: check_level_cap(aut, 2.0)),
    (LevelTooLarge, "level must be an integer, got 2.0",
     lambda aut: stabilizes_level(aut, "a", 2.0)),
    (LevelTooLarge, "level must be an integer, got '2'",
     lambda aut: stabilizes_level(aut, "a", "2")),
    (LevelTooLarge, "membership level must be an integer, got 2.0",
     lambda aut: fragile_member(aut, "a a^-1", 2.0)),
    (LevelTooLarge, "kmax must be an integer, got 2.5",
     lambda aut: fragile_index(aut, "a a^-1", 2.5)),
    (LevelTooLarge, "kmax must be an integer, got True",
     lambda aut: wp_fragile(aut, "a", True)),
    (LevelTooLarge, "embedding level must be an integer, got 2.0",
     lambda aut: embed_in_product(aut, "a a^-1", 2.0)),
    (LevelTooLarge, "reducibility scan length must be an integer, got 2.0",
     lambda aut: check_reducible(aut, 2.0, 8)),
    (LevelTooLarge, "representative search length must be an integer, got '2'",
     lambda aut: shortest_representative(aut, "a b", "2")),
    (LevelTooLarge, "reduced word length must be an integer, got 2.0",
     lambda aut: iter_reduced_words(["a"], 2.0)),
    (BadPower, "power requires an integer n >= 1, got True",
     lambda aut: power(aut, True)),
], ids=["level-cap", "stabilizes", "stabilizes-str", "member", "index", "wp-fragile",
        "embed", "reducible", "representative", "reduced-words", "power"])
def test_non_integer_level_is_refused(error, message, call):
    # a float or bool would otherwise be walked as the int it resembles, and a
    # string would raise a bare TypeError; each is refused before any walk
    aut = builtin_automaton("star3")
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call(aut)
    assert not {"stab", "fragile"} & set(aut._cache)


# -- level-one permutations ----------------------------------------------------------

def test_level1_permutation_star_edge(star):
    assert level1_permutation(star, "a") == {"0": "1", "1": "0", "2": "2", "3": "3"}


def test_level1_permutation_empty(star):
    assert level1_permutation(star, "") == {x: x for x in star.alphabet}


def test_level1_permutation_conjugate(star):
    assert level1_permutation(star, "a^-1 b a") == {
        "0": "0", "1": "2", "2": "1", "3": "3"}


# -- transposition words ----------------------------------------------------------------

def test_transposition_word_star(star_graph, star):
    w = transposition_word(star_graph, "1", "2")
    assert w == parse_word("a^-1 b a", star)
    assert level1_permutation(star, w) == {"0": "0", "1": "2", "2": "1", "3": "3"}


def test_transposition_word_adjacent(star_graph, star):
    assert transposition_word(star_graph, "0", "1") == parse_word("a", star)


def test_transposition_word_fig5(fig5_graph, fig5):
    w = transposition_word(fig5_graph, "3", "4")
    assert w == parse_word("e2^-1 e3 e2", fig5)
    perm = level1_permutation(fig5, w)
    assert perm == {"1": "1", "2": "2", "3": "4", "4": "3", "5": "5", "6": "6"}


def test_transposition_word_all_pairs(fig5_graph, fig5):
    for i, j in itertools.combinations(fig5_graph.vertices, 2):
        perm = level1_permutation(fig5, transposition_word(fig5_graph, i, j))
        expected = {x: x for x in fig5.alphabet}
        expected[i], expected[j] = j, i
        assert perm == expected


def test_transposition_word_disconnected():
    from selfsim import OrientedGraph
    g = OrientedGraph([("e", "1", "2"), ("f", "3", "4")])
    with pytest.raises(Disconnected):
        transposition_word(g, "1", "3")


# -- dual paths -------------------------------------------------------------------------

def test_dual_path_worked_example(fig5):
    path = dual_path(fig5, "1", "e2 e1 e1 e4")
    assert path.vertices == ("1", "1", "2", "1", "5")
    assert path.outputs == ("id", "e1", "id", "e4")
    assert path.condensed == ("1", "2", "1", "5")


def test_dual_path_empty_word(fig5):
    path = dual_path(fig5, "3", "")
    assert path.vertices == ("3",)
    assert path.condensed == ("3",)


def test_dual_path_loop_at_non_endpoint(star):
    path = dual_path(star, "2", "a")
    assert path.vertices == ("2", "2")
    assert path.outputs == ("id",)
    assert path.condensed == ("2",)


def test_dual_path_unknown_letter(star):
    with pytest.raises(AlphabetMismatch):
        dual_path(star, "9", "a")


def test_dual_path_unhashable_letter(basilica):
    with pytest.raises(AlphabetMismatch):
        dual_path(basilica, ["0"], "a")


def test_positive_word_that_is_not_a_sequence_of_states_is_refused(basilica, star):
    for call in (lambda: dual_path(basilica, "0", 5),
                 lambda: semigroup_eq_via_action(star, [["a"]], ["a"])):
        with pytest.raises(UnknownGenerator):
            call()


# -- loops_at -------------------------------------------------------------------------------

def test_loops_at_star_center(star):
    assert loops_at(star, "0") == ("id",)


def test_loops_at_star_leaf(star):
    assert loops_at(star, "1") == ("b", "c", "id")


def test_loops_at_fig5(fig5):
    assert loops_at(fig5, "1") == ("e2", "e3", "e5", "id")


def test_loops_at_unhashable_letter(basilica):
    with pytest.raises(AlphabetMismatch):
        loops_at(basilica, ["0"])


# -- nooses ------------------------------------------------------------------------------------

def test_noose_whole_word(fig5):
    noose = find_noose(fig5, "1", "e1 e2 e2 e1")
    assert noose is not None
    assert (noose.start, noose.stop) == (0, 4)
    assert noose.letters == ("e1", "e2", "e2", "e1")
    assert noose.letters[0] == noose.letters[-1]


def test_noose_unhashable_letter(basilica):
    with pytest.raises(AlphabetMismatch):
        find_noose(basilica, ["0"], "a")


def test_no_noose_when_word_stays_home(fig5):
    assert find_noose(fig5, "1", "e2 e3 e5 id") is None


def test_noose_star(star):
    noose = find_noose(star, "0", "a a")
    assert noose is not None
    assert noose.letters == ("a", "a")


def test_noose_first_and_last_letters_agree_on_trees(fig5):
    rng = random.Random(23)
    letters = list(fig5.states)
    for _ in range(300):
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
        for x in fig5.alphabet:
            noose = find_noose(fig5, x, v)
            if noose is not None:
                assert noose.letters[0] == noose.letters[-1]


def test_noose_output_shape(fig5):
    # output of the excursion: the edge itself on the tail side, then only
    # edges not incident to the base vertex, or the mirror image
    fig5_graph = builtin("fig5_tree")
    incident = {x: {e.name for e in fig5_graph.edges if x in e.endpoints()}
                for x in fig5_graph.vertices}
    rng = random.Random(29)
    letters = list(fig5.states)
    checked = 0
    for _ in range(500):
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(2, 7)))
        for x in fig5.alphabet:
            noose = find_noose(fig5, x, v)
            if noose is None:
                continue
            alpha = noose.letters[0]
            erased = erase_id(noose.outputs)
            edge = fig5_graph.edge(alpha)
            if edge.tail == x:
                assert erased[0] == alpha
                middle = erased[1:]
            else:
                assert erased[-1] == alpha
                middle = erased[:-1]
            assert all(e not in incident[x] for e in middle)
            checked += 1
    assert checked > 50


def test_loop_fixing_vertex_shortens_residual(fig5):
    # nontrivial words fixing a vertex restrict there to something shorter
    gens = [s for s in fig5.states if s != fig5.sink]
    for ls in iter_reduced_words(gens, 3, include_empty=False):
        w = GroupWord(ls)
        for x in fig5.alphabet:
            if apply_word(fig5, w, (x,)) == (x,):
                assert len(restrict_word(fig5, w, (x,))) < len(w)


# -- erase_id --------------------------------------------------------------------------------------

def test_erase_id_tokens():
    assert erase_id(("id", "e1", "id", "e4")) == ("e1", "e4")
    assert erase_id(("id", "id")) == ()


def test_erase_id_signed():
    word = (("e1", 1), ("id", -1), ("e2", -1))
    assert erase_id(word) == (("e1", 1), ("e2", -1))
