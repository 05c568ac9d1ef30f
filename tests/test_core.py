"""The integer-coded transition core checked against independent deciders.

Seeded random small invertible machines (2-3 letters, 2-4 states plus a
sink) compare the closure decider with brute-force action on X^k, with its
own certificate, with the level-wise decider and with the wreath recursion;
the three input forms of a word must give equal verdicts.  The last tests
pin NotInvertible for inverse letters of non-permutation states.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from selfsim import (
    GroupWord,
    apply_word,
    is_identity,
    make_automaton,
    restrict_word,
    restriction_closure,
    wp_fragile,
    wreath,
)
from selfsim.errors import NotInvertible

SINK = "e"
BRUTE_LEVEL = 4


@st.composite
def _machines(draw):
    """Transition records, states and alphabet of a random invertible machine."""
    alphabet = [str(i) for i in range(draw(st.integers(2, 3)))]
    gens = ["s%d" % i for i in range(draw(st.integers(2, 4)))]
    targets = st.sampled_from(gens + [SINK])
    records = [(SINK, x, SINK, x) for x in alphabet]
    for s in gens:
        outputs = draw(st.permutations(alphabet))
        records += [(s, x, draw(targets), y) for x, y in zip(alphabet, outputs)]
    return records, gens + [SINK], alphabet


@st.composite
def _cases(draw):
    records, states, alphabet = draw(_machines())
    letter = st.tuples(st.sampled_from(states), st.sampled_from((1, -1)))
    word = draw(st.lists(letter, max_size=8))
    if draw(st.booleans()):
        # conjugated commutators are identities often enough to test certificates
        u = draw(st.lists(letter, min_size=1, max_size=2))
        v = draw(st.lists(letter, min_size=1, max_size=2))
        word = (GroupWord(word) * GroupWord(u) * GroupWord(v)
                * GroupWord(u).inverse() * GroupWord(v).inverse() * GroupWord(word).inverse())
        word = list(word.letters)
    return records, states, alphabet, word


def _build(records, states, alphabet):
    return make_automaton(states, alphabet, records, sink=SINK)


def _reference_apply(aut, word, u):
    """Image of u under a signed state word, one generator at a time over the whole input."""
    forward = {(s, x): (t, y) for s, x, t, y in aut.transitions()}
    backward = {(s, y): (t, x) for s, x, t, y in aut.transitions()}
    for g, sign in word:
        table = forward if sign > 0 else backward
        state, image = g, []
        for x in u:
            state, y = table[state, x]
            image.append(y)
        u = tuple(image)
    return tuple(u)


SETTINGS = settings(max_examples=150)


@SETTINGS
@given(_cases())
def test_closure_agrees_with_brute_force(case):
    records, states, alphabet, word = case
    aut = _build(records, states, alphabet)
    verdict = is_identity(aut, word)
    # a witness is a shortest moved word, so every shorter level is fixed
    fixed_below = BRUTE_LEVEL + 1 if verdict.identity else len(verdict.witness)
    for k in range(min(fixed_below, BRUTE_LEVEL + 1)):
        for u in itertools.product(alphabet, repeat=k):
            assert _reference_apply(aut, word, u) == u
    if not verdict.identity:
        assert _reference_apply(aut, word, verdict.witness) != verdict.witness
        # and the first moved word of its length, in letter order
        for u in itertools.product(alphabet, repeat=len(verdict.witness)):
            if u == verdict.witness:
                break
            assert _reference_apply(aut, word, u) == u


@SETTINGS
@given(_cases())
def test_certificate_is_the_closed_residual_set(case):
    records, states, alphabet, word = case
    aut = _build(records, states, alphabet)
    verdict = is_identity(aut, word)
    if not verdict.identity:
        return
    assert verdict.certificate == restriction_closure(_build(records, states, alphabet), word)
    cert = set(verdict.certificate)
    for res in verdict.certificate:
        for x in alphabet:
            assert apply_word(aut, res, (x,)) == (x,)
            assert restrict_word(aut, res, (x,)) in cert


@SETTINGS
@given(_cases())
def test_level_decider_agrees_when_it_decides(case):
    records, states, alphabet, word = case
    closure = is_identity(_build(records, states, alphabet), word)
    level = wp_fragile(_build(records, states, alphabet), word, 3)
    if level.identity:
        assert closure.identity
    elif level.witness is not None:
        assert not closure.identity
        aut = _build(records, states, alphabet)
        assert _reference_apply(aut, word, level.witness) != level.witness


@SETTINGS
@given(_cases())
def test_wreath_agrees_with_apply_and_restrict(case):
    records, states, alphabet, word = case
    aut = _build(records, states, alphabet)
    rep = wreath(aut, word)
    for x in alphabet:
        assert rep.perm[x] == apply_word(aut, word, (x,))[0]
        assert rep.sections[x] == restrict_word(aut, word, (x,))


@SETTINGS
@given(_cases())
def test_input_forms_give_one_verdict(case):
    records, states, alphabet, word = case
    text = " ".join(g + ("^-1" if sign < 0 else "") for g, sign in word)
    forms = [GroupWord(word), list(word), text]
    verdicts = [is_identity(_build(records, states, alphabet), form) for form in forms]
    assert verdicts[0] == verdicts[1] == verdicts[2]


# -- inverse letters of a non-invertible machine --------------------------------

def _half_invertible():
    # p permutes the letters, q sends both to 0
    return make_automaton(
        ["p", "q", "e"], ["0", "1"],
        [("p", "0", "q", "1"), ("p", "1", "p", "0"), ("q", "0", "e", "0"),
         ("q", "1", "e", "0"), ("e", "0", "e", "0"), ("e", "1", "e", "1")],
        sink="e")


@pytest.mark.parametrize("first,second", [
    ([("q", -1)], [("p", 1), ("q", -1)]),
    ([("p", 1), ("q", -1)], [("q", -1)]),
])
def test_non_permutation_inverse_raises_every_time(first, second):
    aut = _half_invertible()
    for word in (first, second, first):
        with pytest.raises(NotInvertible, match="state q does not act by a permutation"):
            is_identity(aut, word)


def test_permutation_state_inverse_on_a_non_invertible_machine():
    aut = _half_invertible()
    verdict = is_identity(aut, [("p", -1)])
    assert verdict.decision == "NonIdentity"
    assert verdict.witness == ("0",)
