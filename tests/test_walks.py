"""The shared engine walks checked against brute force.

stabilizes_level and fragile_member run one iterative level walk; the
residual-closure walker must list what the prefix-carrying breadth-first
scan it replaced lists, kept below as the reference, and the closure
decider must answer as that scan does and memoize only the words that fix
level one; the level method's witness is the
shortlex-first moved word; the positive-word oracle's witness is the
shortlex-first input word on which its two words differ, and it refuses a
machine that is not invertible; acyclicity and nucleus persistence
use the one cycle-trimming routine; the spanning tree is read off the
coset graph's arcs.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from selfsim import builtin_automaton
from selfsim.action import (
    _decode_word,
    _encode_word,
    _step_word,
    apply_word,
    iter_level_words,
    iter_reduced_words,
    restrict_word,
    stabilizes_level,
)
from selfsim.errors import BadGraph, NotInvertible
from selfsim.mealy import make_automaton
from selfsim.schreier import (
    FiniteAction,
    build_reducible_automaton,
    schreier_graph,
    spanning_tree,
)
from selfsim.tracemonoid import (
    check_acyclic_no_positive_identity,
    semigroup_eq_via_action,
)
from selfsim.wordproblem import (
    _closure_scan,
    elements_equal,
    fragile_index,
    fragile_member,
    is_identity,
    wp_fragile,
)
from test_nucleus import SINK, _build, _random_machine as _random_records

# fixture name -> deepest level enumerated by brute force
LEVELS = {"star3": 3, "fig5_tree": 2, "basilica": 5, "adding_machine": 5}
AUTOMATA = {name: builtin_automaton(name) for name in LEVELS}

# identities whose least membership level is 1, 2 and 3
FIG5_LEVEL_1 = "e2 e4 e2^-1 e4^-1"
BASILICA_LEVEL_2 = "a a b a a b^-1 a^-1 a^-1 b a^-1 a^-1 b^-1"
BASILICA_LEVEL_3 = "a b b a^-1 a^-1 b b a a b^-1 b^-1 a^-1 a^-1 b^-1 b^-1 a"


def _words(name):
    aut = AUTOMATA[name]
    gens = [s for s in aut.states if s != aut.sink]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=8)


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(LEVELS)))
    return name, draw(_words(name)), draw(st.integers(1, LEVELS[name]))


def _enumerated(aut, word, k):
    """(fixes level k, member of level k), by listing the level."""
    level = list(iter_level_words(aut, k))
    stabilizes = all(apply_word(aut, word, u) == u for u in level)
    return stabilizes, stabilizes and all(restrict_word(aut, word, u).is_empty() for u in level)


@settings(max_examples=300)
@given(_cases())
@example(("basilica", BASILICA_LEVEL_2, 2))
@example(("basilica", BASILICA_LEVEL_3, 3))
def test_level_walk_matches_enumeration(case):
    name, word, k = case
    aut = AUTOMATA[name]
    stabilizes, member = _enumerated(aut, word, k)
    assert stabilizes_level(aut, word, k) == stabilizes
    assert fragile_member(aut, word, k) == member
    # memberships are nested, so the level method stops at the least member
    top = LEVELS[name]
    members = [fragile_member(aut, word, j) for j in range(1, top + 1)]
    assert all(later for earlier, later in zip(members, members[1:]) if earlier)
    least = next((j for j in range(1, top + 1) if _enumerated(aut, word, j)[1]), None)
    assert fragile_index(aut, word, top) == least


@pytest.mark.parametrize("name,word,least", [
    ("fig5_tree", FIG5_LEVEL_1, 1),
    ("basilica", BASILICA_LEVEL_2, 2),
    ("basilica", BASILICA_LEVEL_3, 3),
], ids=["fig5-level-1", "basilica-level-2", "basilica-level-3"])
def test_level_method_walks_no_level_past_the_answer(monkeypatch, name, word, least):
    import selfsim.wordproblem
    walk, levels = selfsim.wordproblem._level_walk, []

    def counted(aut, code, k, empty_leaves):
        levels.append(k)
        return walk(aut, code, k, empty_leaves)
    monkeypatch.setattr(selfsim.wordproblem, "_level_walk", counted)
    aut = builtin_automaton(name)
    assert fragile_index(aut, word, 8) == least
    assert wp_fragile(aut, word, 8) == ("Identity", None, (least,), "fragile")
    assert levels == list(range(1, least + 1)) * 2


def _one_letter_machine():
    return build_reducible_automaton(FiniteAction(["a"], 1, {"a": (0,)}))


def test_level_walk_is_iterative():
    # one letter: the level cap never binds, so only the walk bounds the depth
    aut = _one_letter_machine()
    assert stabilizes_level(aut, "a", 5000) is True
    assert fragile_member(aut, "a", 5000) is False
    assert fragile_member(aut, "a a a^-1 a^-1", 5000) is True


def test_both_memos_share_one_bound(monkeypatch):
    import selfsim.action
    monkeypatch.setattr(selfsim.action, "MEMO_LIMIT", 10)
    aut = _one_letter_machine()
    assert stabilizes_level(aut, "a", 50)
    assert not fragile_member(aut, "a", 50)
    assert len(aut._cache["stab"]) == 10
    assert len(aut._cache["fragile"]) == 10


def _random_machine(rng):
    """A seeded machine of test_nucleus, built, and its states other than the sink."""
    aut = _build(_random_records(rng))
    return aut, [s for s in aut.states if s != SINK]


def _random_word(rng, gens, max_len):
    return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]


def test_moved_word_is_first_in_shortlex_order():
    # brute force: words of length 1..k as letter-index tuples in shortlex
    # order; the first moved one is the answer, None when none moves
    rng = random.Random(11)
    for _ in range(300):
        aut, gens = _random_machine(rng)
        word = _random_word(rng, gens, 6)
        n = len(aut.alphabet)
        for k in range(1, 4):
            words = (u for j in range(1, k + 1) for u in itertools.product(range(n), repeat=j))
            moved = (tuple(aut.alphabet[i] for i in u) for u in words)
            expected = next((u for u in moved if apply_word(aut, word, u) != u), None)
            assert wp_fragile(aut, word, k).witness == expected


def _chain_machine(n):
    """d_i = (d_{i+1}, id) and the last state d_n swaps the letters.

    d_i fixes every level below n - i + 1 and moves 0^(n-i+1).
    """
    states = ["d%d" % i for i in range(1, n + 1)] + ["id"]
    records = [("id", "0", "id", "0"), ("id", "1", "id", "1"),
               (states[n - 1], "0", "id", "1"), (states[n - 1], "1", "id", "0")]
    for i in range(n - 1):
        records += [(states[i], "0", states[i + 1], "0"), (states[i], "1", "id", "1")]
    return make_automaton(states, ["0", "1"], records, sink="id")


def test_moved_word_search_is_iterative():
    # d1 moves 0^n, deeper than the default recursion limit
    n = 1100
    aut = _chain_machine(n)
    verdict = wp_fragile(aut, "d1", n, cap=2 ** (n + 1))
    assert verdict.decision == "NonIdentity"
    assert verdict.witness == ("0",) * n


# -- the residual-closure walker against the scan it replaced ---------------------------

def _reference_scan(aut, word, stop_on_moved):
    """Breadth-first residual scan carrying each residual's input prefix.

    Returns (witness, order) as the one-root walker did before it listed
    permutations and successors.
    """
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    seen = {word}
    order = [word]
    queue = deque([(word, ())])
    while queue:
        cur, prefix = queue.popleft()
        for x in letters:
            y, res = _step_word(rows, cur, x)
            if stop_on_moved and y != x:
                return prefix + (x,), order
            if res not in seen:
                seen.add(res)
                order.append(res)
                queue.append((res, prefix + (x,)))
    return None, order


def _walk_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        aut, gens = _random_machine(rng)
        word = _random_word(rng, gens, 8)
        if rng.random() < 0.3:
            word = word + [(g, -s) for g, s in reversed(word)][:rng.randint(0, len(word))]
        yield aut, gens, _encode_word(aut, word)


def test_walker_lists_the_reference_scan():
    # same order and witness, stopped or not; perms and succ are the steps
    # of every residual the walk expanded
    witness_lengths = set()
    for aut, _, word in _walk_cases(2026, 400):
        for stop in (False, True):
            witness, order, perms, succ = _closure_scan(aut, [word], stop)
            assert (witness, order) == _reference_scan(aut, word, stop)
            assert witness is not None or len(succ) == len(order)
            _assert_steps(aut, order, perms, succ)
            if witness is not None:
                witness_lengths.add(len(witness))
    assert {1, 2, 3} <= witness_lengths


def _assert_steps(aut, order, perms, succ):
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    assert len(perms) == len(succ) <= len(order)
    for cur, perm, kids in zip(order, perms, succ):
        steps = [_step_word(rows, cur, x) for x in letters]
        assert perm == tuple(y for y, _ in steps)
        assert [order[j] for j in kids] == [res for _, res in steps]


def test_multi_root_walk_concatenates_the_closures():
    # later roots often lie in, or reach into, the closures listed before them
    rng = random.Random(77)
    for aut, gens, word in _walk_cases(31, 150):
        roots = [word] + [_encode_word(aut, _random_word(rng, gens, 4)) for _ in range(3)]
        roots += [(c,) for c in range(1, len(gens) + 1)] + [roots[rng.randrange(len(roots))]]
        expected = []
        for root in roots:
            expected += [ls for ls in _reference_scan(aut, root, False)[1] if ls not in expected]
        _, order, perms, succ = _closure_scan(aut, roots, False)
        assert order == expected
        assert len(succ) == len(order)
        _assert_steps(aut, order, perms, succ)


# -- the closure decider against the reference scan ---------------------------------------

def test_decider_answers_as_the_reference_scan():
    # a word that moves a root letter is answered from its images alone, any
    # other is walked; both must give the reference scan's answer
    kinds = set()
    for aut, _, word in _walk_cases(4242, 600):
        witness, order = _reference_scan(aut, word, True)
        if witness is None:
            expected = ("Identity", None, tuple(_decode_word(aut, res) for res in order))
            kinds.add("identity")
        else:
            expected = ("NonIdentity", tuple(aut.alphabet[x] for x in witness), None)
            if len(witness) > 1:
                kinds.add("moved deeper")
            else:
                kinds.add("moved at the first letter" if witness == (0,)
                          else "moved at a later root letter")
        verdict = is_identity(aut, _decode_word(aut, word))
        assert (verdict.decision, verdict.witness, verdict.certificate, verdict.method) \
            == expected + ("closure",)
        # asked again: the same verdict, and the one shared record of its
        # witness when the word moves a letter
        again = is_identity(aut, _decode_word(aut, word))
        assert again == verdict
        if witness is not None:
            assert again is verdict
    assert kinds == {"identity", "moved deeper", "moved at the first letter",
                     "moved at a later root letter"}


def _level_one_fixer(aut, gens):
    """Whether a word fixes level one, from each letter's images by apply_word."""
    images = {(g, s): [aut.alphabet.index(apply_word(aut, [(g, s)], (x,))[0])
                       for x in aut.alphabet] for g in gens for s in (1, -1)}

    def fixes(word):
        for x in range(len(aut.alphabet)):
            y = x
            for letter in word:
                y = images[letter][y]
            if y != x:
                return False
        return True
    return fixes


def _memo_machines():
    for name in ("fig5_tree", "star3", "basilica"):
        aut = builtin_automaton(name)
        yield aut, [s for s in aut.states if s != aut.sink]
    for aut, gens, _ in _walk_cases(515, 200):
        yield aut, gens


def test_closure_memo_keeps_only_the_words_that_fix_level_one():
    # a word that moves a letter of level one is answered from its images,
    # with no memo lookup or write; every other word is memoized on its code
    for aut, gens in _memo_machines():
        fixes, fixers = _level_one_fixer(aut, gens), set()
        for word in iter_reduced_words(gens, 4):
            is_identity(aut, word)
            if fixes(word):
                fixers.add(_encode_word(aut, word))
        assert set(aut._cache["wp"]) == fixers


def test_non_identity_verdicts_are_shared_per_witness():
    rng = random.Random(5)
    aut, gens = _random_machine(rng)
    by_witness = {}
    for _ in range(300):
        verdict = is_identity(aut, _random_word(rng, gens, 6))
        if not verdict.identity:
            assert by_witness.setdefault(verdict.witness, verdict) is verdict
    assert len(by_witness) > 1


def _half_invertible_machine(rng):
    """A random machine on which the state q does not act by a permutation."""
    aut, gens = _random_machine(rng)
    alphabet = list(aut.alphabet)
    records = [(s, x, t, y) for s, x, t, y in aut.transitions()]
    records += [("q", x, rng.choice(gens + ["e"]), rng.choice(alphabet[1:])) for x in alphabet]
    return make_automaton(list(aut.states) + ["q"], alphabet, records, sink="e"), gens


def test_inverse_of_a_non_permutation_state_still_raises():
    rng = random.Random(9)
    for _ in range(100):
        aut, gens = _half_invertible_machine(rng)
        head, tail = _random_word(rng, gens, 4), _random_word(rng, gens, 4)
        word = head + [("q", -1)] + tail
        with pytest.raises(NotInvertible):
            _reference_scan(aut, _encode_word(aut, word), True)
        with pytest.raises(NotInvertible, match="state q does not act by a permutation"):
            is_identity(aut, word)
        with pytest.raises(NotInvertible, match="state q does not act by a permutation"):
            elements_equal(aut, head, [("q", 1)])


def test_both_closure_memos_share_one_bound(monkeypatch):
    # the chain machine's words d_i move 0^(n-i+1), so 16 distinct witnesses
    # and, with the squares d_i d_i, 16 identities
    import selfsim.wordproblem
    words = ["d%d" % i for i in range(1, 17)]
    words += ["d%d d%d" % (i, i) for i in range(1, 17)]
    words += ["d%d d%d^-1" % (i, i + 1) for i in range(1, 16)]
    expected = [is_identity(_chain_machine(16), w) for w in words]
    assert len({v.witness for v in expected if not v.identity}) == 16
    monkeypatch.setattr(selfsim.wordproblem, "MEMO_LIMIT", 10)
    aut = _chain_machine(16)
    for _ in range(2):
        assert [is_identity(aut, w) for w in words] == expected
        assert len(aut._cache["wp"]) == 10
        assert len(aut._cache["moved"]) == 10


def test_positive_oracle_against_the_action(star, fig5):
    for aut in (star, fig5):
        gens = [s for s in aut.states if s != aut.sink]
        level = list(iter_level_words(aut, 2))
        for u in ([], [gens[0]], gens[:2], gens[:3]):
            for v in ([], [gens[1]], gens[1::-1], gens[2::-1]):
                result = semigroup_eq_via_action(aut, u, v)
                agree = all(apply_word(aut, u, x) == apply_word(aut, v, x) for x in level)
                if result.equal:
                    assert agree
                else:
                    w = result.witness
                    assert apply_word(aut, u, w) != apply_word(aut, v, w)


def _oracle_machines(rng):
    for name in ("star3", "path_4", "fig5_tree"):
        aut = builtin_automaton(name)
        yield aut, list(aut.states), 12
    for _ in range(120):
        aut, _ = _random_machine(rng)
        yield aut, list(aut.states), 4


def test_positive_oracle_witness_is_first_in_shortlex_order():
    # brute force over input words in shortlex order: an unequal verdict's
    # witness is the first word whose images under u and v differ, and an
    # equal verdict's words agree on every input of length at most 4
    rng = random.Random(304)
    kinds = set()
    for aut, states, count in _oracle_machines(rng):
        for _ in range(count):
            u = [rng.choice(states) for _ in range(rng.randint(0, 5))]
            v = list(u)
            if rng.random() < 0.5:
                v = [rng.choice(states) for _ in range(rng.randint(0, 5))]
            rng.shuffle(v)
            result = semigroup_eq_via_action(aut, u, v)
            depth = 4 if result.equal else len(result.witness)
            words = (x for n in range(1, depth + 1)
                     for x in itertools.product(aut.alphabet, repeat=n))
            first = next((x for x in words if apply_word(aut, u, x) != apply_word(aut, v, x)),
                         None)
            assert first == result.witness
            kinds.add("equal" if result.equal else min(len(result.witness), 3))
    assert kinds == {"equal", 1, 2, 3}


def test_positive_oracle_needs_an_invertible_machine():
    # s sends both letters to 0, so it acts by no permutation
    records = [("s", "0", "s", "0"), ("s", "1", "e", "0"), ("e", "0", "e", "0"),
               ("e", "1", "e", "1")]
    aut = make_automaton(["s", "e"], ["0", "1"], records, sink="e")
    for u, v in (("s", "s"), ("s", "e"), ("", "")):
        with pytest.raises(NotInvertible):
            semigroup_eq_via_action(aut, u, v)


@pytest.mark.parametrize("name", ["triangle_cyclic", "non_reducible_demo"])
def test_directed_cycle_found_by_the_trim(name):
    # non_reducible_demo orients its one edge state as a self-loop at letter 2
    with pytest.raises(BadGraph):
        check_acyclic_no_positive_identity(builtin_automaton(name), 2)


def _bfs_tree(action):
    seen = {action.basepoint}
    tree = []
    queue = deque([action.basepoint])
    while queue:
        p = queue.popleft()
        for g in action.generators:
            q = action.act(p, g)
            if q not in seen:
                seen.add(q)
                tree.append((p, g, q))
                queue.append(q)
    return tuple(tree)


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.integers(0, n - 1))))
def test_spanning_tree_is_breadth_first(case):
    degree, perms, basepoint = case
    names = ["g%d" % i for i in range(len(perms))]
    action = FiniteAction(names, degree, dict(zip(names, perms)), basepoint=basepoint)
    assert spanning_tree(schreier_graph(action)) == _bfs_tree(action)
