import random

import pytest

from selfsim import (
    GroupWord,
    apply_word,
    builtin_automaton,
    check_reducible,
    commutator,
    dichotomy,
    elements_equal,
    embed_in_product,
    exponent_sums,
    fragile_index,
    fragile_member,
    is_identity,
    is_identity_in_Gk,
    level1_permutation,
    nucleus,
    parse_word,
    restrict_word,
    restriction_closure,
    shortest_representative,
    stabilizes_level,
    sym_quotient_order,
    virtual_endo,
    wp_fragile,
)
from selfsim.action import iter_reduced_words
from selfsim.errors import (
    NotContractingWithinCaps,
    NotInStabilizer,
    QuotientTooLarge,
    RaggedTuples,
    UnknownGenerator,
)

from test_mealy import make_identity_automaton


def words(aut, *texts):
    return [parse_word(t, aut) for t in texts]


def rand_reduced(rng, gens, max_len):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        letters.append((rng.choice(gens), rng.choice((1, -1))))
    return GroupWord(letters)


# -- restriction closures ------------------------------------------------------

def test_closure_adding_machine(adding):
    closure = set(restriction_closure(adding, "e"))
    assert closure == {parse_word("e", adding), GroupWord()}


def test_closure_empty_word(star):
    assert restriction_closure(star, "") == (GroupWord(),)


def test_closure_star_ab(star):
    expected = set(words(star, "a b", "a", "b", ""))
    assert set(restriction_closure(star, "a b")) == expected


# -- word problem ----------------------------------------------------------------

def test_incident_commutator_is_not_identity(star):
    verdict = is_identity(star, "a b a^-1 b^-1")
    assert verdict.decision == "NonIdentity"
    w = parse_word("a b a^-1 b^-1", star)
    assert apply_word(star, w, verdict.witness) != verdict.witness


def test_empty_word_is_identity(star):
    assert is_identity(star, "").identity


def test_non_incident_commutator_is_identity(fig5):
    verdict = is_identity(fig5, "e2 e4 e2^-1 e4^-1")
    assert verdict.identity
    # certificate: every residual in the closure fixes level one
    for word in verdict.certificate:
        assert level1_permutation(fig5, word) == {x: x for x in fig5.alphabet}


def test_witness_is_shortest(star):
    # a moves 0 already at depth one
    assert is_identity(star, "a").witness == ("0",)


def test_elements_equal(star):
    assert elements_equal(star, parse_word("a", star), parse_word("a b b^-1", star))
    assert not elements_equal(star, parse_word("a", star), parse_word("b", star))


# -- level membership -------------------------------------------------------------

def test_fragile_empty_word(star):
    assert fragile_member(star, "", 1)


def test_fragile_commutator_fig5(fig5):
    w = parse_word("e2 e4 e2^-1 e4^-1", fig5)
    assert fragile_member(fig5, w, 1)
    assert fragile_index(fig5, w, 8) == 1


def test_fragile_implies_identity(fig5):
    rng = random.Random(31)
    gens = [s for s in fig5.states if s != fig5.sink]
    for _ in range(200):
        w = rand_reduced(rng, gens, 6)
        if fragile_member(fig5, w, 2):
            assert is_identity(fig5, w).identity


def test_moved_generator_never_fragile(star):
    assert fragile_index(star, "a", 8) is None


def test_fragile_monotone(fig5):
    rng = random.Random(37)
    gens = [s for s in fig5.states if s != fig5.sink]
    for _ in range(100):
        w = rand_reduced(rng, gens, 6)
        for k in (1, 2):
            if fragile_member(fig5, w, k):
                assert fragile_member(fig5, w, k + 1)


def test_wp_methods_agree(star, fig5):
    rng = random.Random(41)
    for aut, kmax in ((star, 8), (fig5, 6)):
        gens = [s for s in aut.states if s != aut.sink]
        for _ in range(150):
            w = rand_reduced(rng, gens, 5)
            assert is_identity(aut, w).identity == wp_fragile(aut, w, kmax).identity


def test_wp_methods_agree_on_other_reducible_builtins(adding, basilica):
    rng = random.Random(53)
    for aut in (adding, basilica):
        gens = [s for s in aut.states if s != aut.sink]
        for _ in range(120):
            w = rand_reduced(rng, gens, 6)
            assert is_identity(aut, w).identity == wp_fragile(aut, w, 8).identity


def test_wp_fragile_reports_index(fig5):
    verdict = wp_fragile(fig5, "e2 e4 e2^-1 e4^-1", 8)
    assert verdict.identity and verdict.certificate == (1,)


def test_nonzero_sum_words_are_not_torsion(fig5):
    # words with a nonzero exponent sum stay nontrivial, as do their squares
    rng = random.Random(59)
    gens = [s for s in fig5.states if s != fig5.sink]
    checked = 0
    while checked < 60:
        w = rand_reduced(rng, gens, 6)
        if not any(exponent_sums(w, gens)):
            continue
        checked += 1
        assert not is_identity(fig5, w).identity
        assert not is_identity(fig5, w * w).identity


# -- virtual endomorphisms -----------------------------------------------------------

def test_virtual_endo_empty(star):
    assert virtual_endo(star, ("0",), "").is_empty()


def test_virtual_endo_adding_square(adding):
    assert virtual_endo(adding, ("0",), "e e") == parse_word("e", adding)


def test_virtual_endo_requires_stabilizer(star):
    with pytest.raises(NotInStabilizer):
        virtual_endo(star, ("3",), "b c b^-1 c^-1")


def test_virtual_endo_is_multiplicative(star):
    rng = random.Random(43)
    gens = ["a", "b", "c"]
    found = 0
    while found < 50:
        w1 = rand_reduced(rng, gens, 6)
        w2 = rand_reduced(rng, gens, 6)
        if not (stabilizes_level(star, w1, 1) and stabilizes_level(star, w2, 1)):
            continue
        found += 1
        for x in star.alphabet:
            lhs = virtual_endo(star, (x,), w1 * w2)
            rhs = virtual_endo(star, (x,), w1) * virtual_endo(star, (x,), w2)
            assert lhs == rhs


# -- embeddings --------------------------------------------------------------------------

def test_embed_identity_word(star):
    components = embed_in_product(star, "", 1)
    assert list(components) == [(x,) for x in star.alphabet]
    assert all(w.is_empty() for w in components.values())


def test_embed_adding_square(adding):
    components = embed_in_product(adding, "e e", 1)
    assert components == {("0",): parse_word("e", adding),
                          ("1",): parse_word("e", adding)}


def test_embed_kernel_law(fig5):
    rng = random.Random(47)
    gens = [s for s in fig5.states if s != fig5.sink]
    found = 0
    while found < 40:
        w = rand_reduced(rng, gens, 6)
        if not stabilizes_level(fig5, w, 1):
            continue
        found += 1
        components = embed_in_product(fig5, w, 1)
        assert all(c.is_empty() for c in components.values()) == fragile_member(fig5, w, 1)


def test_gk_identity_matches_fragile(fig5):
    w = parse_word("e2 e4 e2^-1 e4^-1", fig5)
    assert is_identity_in_Gk(fig5, w, 1)
    assert not is_identity_in_Gk(fig5, parse_word("e1", fig5), 3)


# -- nucleus ----------------------------------------------------------------------------------

def test_nucleus_adding_machine(adding):
    nuc = nucleus(adding)
    assert set(nuc.elements) == {GroupWord(), parse_word("e", adding),
                                 parse_word("e^-1", adding)}


def test_nucleus_identity_automaton():
    nuc = nucleus(make_identity_automaton())
    assert nuc.elements == (GroupWord(),)


def test_nucleus_star_structure(star):
    nuc = nucleus(star)
    # contains the generators, their inverses and the identity
    for text in ("", "a", "a^-1", "b", "b^-1", "c", "c^-1"):
        assert any(elements_equal(star, rep, parse_word(text, star)) for rep in nuc.elements)
    # the stored wreath data matches the action
    for rep in nuc.elements:
        assert nuc.perms[rep] == level1_permutation(star, rep)
    # closed under residuals and inversion; contains the identity
    reps = set(nuc.elements)
    for rep in nuc.elements:
        assert rep.inverse() in set(nuc.sections[rep].values()) | reps
        for section in nuc.sections[rep].values():
            assert section in reps
        assert any(elements_equal(star, rep.inverse(), other) for other in reps)
    # every element recurs: it shows up among its own proper residuals
    for rep in nuc.elements:
        if rep.is_empty():
            continue
        frontier = [nuc.sections[rep][x] for x in star.alphabet]
        seen = set()
        recurred = False
        while frontier and not recurred:
            nxt = []
            for w in frontier:
                if w in seen:
                    continue
                seen.add(w)
                if w == rep:
                    recurred = True
                    break
                nxt.extend(nuc.sections[w][x] for x in star.alphabet)
            frontier = nxt
        assert recurred, "transient element %s in nucleus" % rep


def test_nucleus_star_representatives_short(star):
    nuc = nucleus(star)
    for rep in nuc.elements:
        short = shortest_representative(star, rep, 4)
        assert short is not None and len(short) <= 4


def test_nucleus_size_cap(star):
    with pytest.raises(NotContractingWithinCaps):
        nucleus(star, size_cap=3)


def test_nucleus_basilica(basilica):
    nuc = nucleus(basilica)
    assert len(nuc) == 7
    texts = ("", "a", "a^-1", "b", "b^-1", "a^-1 b", "b^-1 a")
    for text in texts:
        target = parse_word(text, basilica)
        assert any(elements_equal(basilica, rep, target) for rep in nuc.elements)


def test_nucleus_contains_a_representative_in_any_word_form(basilica, fig5):
    nuc = nucleus(basilica)
    for word in ("", "a", "a^-1 b", "b b^-1 a", parse_word("a^-1 b"),
                 [("a", -1), ("b", 1)], (("b", -1), ("a", 1))):
        assert word in nuc
    # a representative, not any word of its element: a^-1 b is listed, and
    # another word of its element is not; b a^-1 is a word of another element
    other = "b a^-1 b a b^-1 a^-1"
    assert elements_equal(basilica, other, "a^-1 b") and other not in nuc
    assert not elements_equal(basilica, "b a^-1", "a^-1 b")
    assert "b a^-1" not in nuc and [("b", 1), ("a", -1)] not in nuc
    nuc = nucleus(fig5)
    assert "e1" in nuc and elements_equal(fig5, "e2 e4 e2^-1 e4^-1 e1", "e1")
    assert "e2 e4 e2^-1 e4^-1 e1" not in nuc


# -- exponent sums ------------------------------------------------------------------------------

def test_exponent_sums(star):
    gens = ("a", "b")
    assert exponent_sums(parse_word("a b a^-1 b^-1", star), gens) == (0, 0)
    assert exponent_sums(parse_word("a a b^-1", star), gens) == (2, -1)
    assert exponent_sums(GroupWord(), gens) == (0, 0)


def test_exponent_sums_of_word_text(star):
    gens = ("a", "b", "c")
    for text in ("a b a^-1 b^-1", "a a b^-1 c", "c^-1 id a c", "", "b^-1 b^-1 a"):
        assert exponent_sums(text, gens) == exponent_sums(parse_word(text, star), gens)
    assert exponent_sums("a a b^-1 c", gens) == (2, -1, 1)


def test_exponent_sums_refuse_a_word_that_is_not_iterable():
    with pytest.raises(UnknownGenerator):
        exponent_sums(5, ["a"])


def test_exponent_sums_refuse_generators_that_are_not_a_sequence_of_names():
    with pytest.raises(UnknownGenerator):
        exponent_sums("a", 5)
    with pytest.raises(UnknownGenerator):
        exponent_sums("a", [["a"]])


# -- reducibility -----------------------------------------------------------------------------------

def test_check_reducible_fixtures(star, basilica, demo):
    assert check_reducible(star, 3, 6).status == "Pass"
    assert check_reducible(basilica, 4, 4).status == "Pass"
    report = check_reducible(demo, 3, 6)
    assert report.status == "Counterexample"
    assert report.counterexample == (parse_word("s", demo), "2")


def test_check_reducible_fig5(fig5):
    assert check_reducible(fig5, 3, 8).status == "Pass"


# -- symmetric quotient -------------------------------------------------------------------------------

def test_sym_quotient_star(star):
    assert sym_quotient_order(star) == 24


def test_sym_quotient_adding(adding):
    assert sym_quotient_order(adding) == 2


def test_sym_quotient_cap():
    aut = builtin_automaton("cycle_9")
    with pytest.raises(QuotientTooLarge):
        sym_quotient_order(aut)
    assert sym_quotient_order(aut, cap=9) == 362880


# -- dichotomy ------------------------------------------------------------------------------------------

def gw(text):
    return parse_word(text)


def test_dichotomy_abelian_powers():
    result = dichotomy([(gw("a"), gw("b")), (gw("a a"), gw("b b b"))])
    assert result.kind == "Abelian"


def test_dichotomy_free_pair_first_component():
    result = dichotomy([(gw("a"), gw("")), (gw("b"), gw(""))])
    assert result.kind == "FreePair"
    assert result.component == 0
    assert result.pair == (0, 1)


def test_dichotomy_parses_word_text():
    assert dichotomy([["a"]]) == dichotomy([[gw("a")]])
    assert dichotomy([["a b", "c"], ["a b a b", "c^-1"]]).kind == "Abelian"
    assert dichotomy([["a b", "c"], ["b a", ""]]) == ("FreePair", 0, (0, 1))
    with pytest.raises(RaggedTuples):
        dichotomy([["a b", "c"], ["a"]])


def test_dichotomy_refuses_a_letter_whose_sign_is_not_one():
    # a^2 and a^-1 commute: read as a letter, ("a", 2) would not cancel
    # against ("a", -1) and the answer would be a false FreePair
    with pytest.raises(UnknownGenerator):
        dichotomy([[[("a", 2)]], [[("a", -1)]]])


def test_dichotomy_refuses_a_component_that_is_not_a_word():
    with pytest.raises(UnknownGenerator):
        dichotomy([[1]])


@pytest.mark.parametrize("tuples", [5, [5]])
def test_dichotomy_refuses_tuples_that_are_not_sequences(tuples):
    with pytest.raises(RaggedTuples):
        dichotomy(tuples)


def test_nucleus_membership_refuses_a_word_that_is_not_iterable():
    with pytest.raises(UnknownGenerator):
        5 in nucleus(builtin_automaton("basilica"))


def test_dichotomy_ragged():
    with pytest.raises(RaggedTuples):
        dichotomy([(gw("a"),), (gw("a"), gw("b"))])


def test_dichotomy_on_star_embeddings(star):
    # two squares of incident edges stabilize level one but do not commute
    b2 = parse_word("b b", star)
    c2 = parse_word("c c", star)
    assert not is_identity(star, commutator(b2, c2)).identity
    rows = [tuple(embed_in_product(star, w, 1).values()) for w in (b2, c2)]
    result = dichotomy(rows)
    assert result.kind == "FreePair"
    assert result.pair == (0, 1)
