"""The reduced-word sweep and the scans built on it.

`action._hit_sweep` is the one reduced-word sweep.  With a hit that is
always true it must list the words of the level-at-a-time enumerator kept
below as the reference, in the same order, each with the value folded over
the whole word, and nothing for a length of 0 or less; `iter_reduced_words`
is that listing with the empty word in front.  With any other hit it must
list exactly the reference items whose value is a hit, in reference order,
and `_sweep_count` and `_sweep_rank` must give the reference's length and
each word's place in it.  Its forward walk must step exactly the (value,
last letter) states of a reference breadth-first walk, in the same order,
and its backward walk must run only when some states hit and others do not,
so a passing loop or reducibility scan makes none.
The loop-shortening scan carries one end vertex per start vertex through
the hit sweep and must equal the per-word walk over the enriched dual it
replaced, kept below as the reference, and the positive-word scan streams
the words that a stored list of each length gave.  The reducibility, loop,
positive-word and shortest-representative sweeps and `iter_reduced_words`
refuse, before they start, a negative length, and the sweeps a scan whose
word count passes the level cap.
"""

import functools
import random

import pytest

import selfsim.action
from selfsim import (
    builtin_automaton,
    check_acyclic_no_positive_identity,
    check_reducible,
    enriched_dual,
    inverse_symbol,
    is_identity,
    make_automaton,
    shortest_representative,
)
from selfsim.action import (
    _hit_sweep,
    _signed_codes,
    _sweep_count,
    _sweep_rank,
    iter_reduced_words,
)
from selfsim.errors import BadGraph, LevelTooLarge, NotInvertible
from selfsim.schreier import (
    FiniteAction,
    LoopReport,
    build_reducible_automaton,
    schreier_graph,
    spanning_tree,
    verify_loop_shortening,
)


def _fold(value, letter):
    """An order-sensitive step: the value remembers every letter and its place."""
    return value + (letter,)


def _always(value):
    return True


def _reference_words(letters, inverse, max_len):
    """Nonempty freely reduced words, one whole length at a time."""
    level = [()]
    for _ in range(max_len):
        level = [word + (lt,) for word in level for lt in letters
                 if not word or lt != inverse[word[-1]]]
        yield from level


def _reference_items(letters, inverse, max_len, start, step):
    """(word, value) for the reference words, each value folded over the whole word."""
    return [(word, functools.reduce(step, word, start))
            for word in _reference_words(letters, inverse, max_len)]


@pytest.mark.parametrize("codes", [[1], [1, 2], [1, 2, 3], [2, 5]])
@pytest.mark.parametrize("max_len", [-1, 0, 1, 2, 4])
def test_sweep_lists_the_reduced_words_with_their_folds(codes, max_len):
    letters, inverse = _signed_codes(codes)
    swept = list(_hit_sweep(letters, inverse, max_len, ("start",), _fold, _always))
    assert swept == _reference_items(letters, inverse, max_len, ("start",), _fold)


def test_sweep_over_letters_follows_the_reference():
    letters = [(g, s) for g in "ab" for s in (1, -1)]
    inverse = {(g, s): (g, -s) for g, s in letters}
    words = list(_reference_words(letters, inverse, 3))
    swept = _hit_sweep(letters, inverse, 3, 0, lambda n, letter: n + letter[1], _always)
    assert [(word, value) for word, value in swept] == [
        (word, sum(s for _, s in word)) for word in words]
    assert list(iter_reduced_words("ab", 3)) == [()] + words
    assert list(iter_reduced_words("ab", 3, include_empty=False)) == words
    assert list(iter_reduced_words("ab", 0)) == [()]


# -- the hit sweep over the graph of (value, last letter) states ------------------------

def _random_table(rng, letters):
    """A step over 1-6 values: step(value, letter) is a seeded random value."""
    size = rng.randint(1, 6)
    table = {(v, lt): rng.randrange(size) for v in range(size) for lt in letters}
    return lambda value, lt: table[value, lt]


def _reference_walk(letters, inverse, max_len, start, step):
    """(steps, values): the work of a breadth-first walk of (value, last letter) states.

    `steps` lists one (value, letter) pair per state reached before the last
    level and letter allowed after it, and `values` the value of each state
    other than the root, both in the order the walk meets them.
    """
    seen = {(start, None)}
    level = [(start, None)]
    steps, values = [], []
    for _ in range(max_len):
        fresh = []
        for value, last in level:
            for lt in letters:
                if last is not None and lt == inverse[last]:
                    continue
                steps.append((value, lt))
                state = (step(value, lt), lt)
                if state not in seen:
                    seen.add(state)
                    values.append(state[0])
                    fresh.append(state)
        level = fresh
    return steps, values


def _counted_sweep(letters, inverse, max_len, start, step, hit):
    """The listing of _hit_sweep, and the arguments of its step and hit calls."""
    steps, asked = [], []

    def counted_step(value, lt):
        steps.append((value, lt))
        return step(value, lt)

    def counted_hit(value):
        asked.append(value)
        return hit(value)

    listed = list(_hit_sweep(letters, inverse, max_len, start, counted_step, counted_hit))
    return listed, steps, asked


def test_hit_sweep_lists_the_sweep_items_that_hit():
    rng = random.Random(1313)
    kinds = set()
    for _ in range(300):
        codes = list(range(1, rng.randint(1, 3) + 1))
        letters, inverse = _signed_codes(codes)
        max_len = rng.randint(0, 5)
        step = _random_table(rng, letters)
        swept = _reference_items(letters, inverse, max_len, 0, step)
        shorter = {value for word, value in swept if len(word) < max_len}
        chosen = {v for v in range(6) if rng.random() < 0.3}
        hits = {
            "none": lambda value: False,
            "all": _always,
            "some": chosen.__contains__,
            # values that only words of the longest length reach
            "last level": lambda value: value not in shorter,
        }
        walk = _reference_walk(letters, inverse, max_len, 0, step)
        for kind, hit in hits.items():
            expected = [item for item in swept if hit(item[1])]
            # one dict per last letter must neither step a state twice nor merge two
            listed, steps, asked = _counted_sweep(letters, inverse, max_len, 0, step, hit)
            assert (listed, (steps, asked)) == (expected, walk)
            if kind == "last level" and expected:
                kinds.add(kind)
                assert all(len(word) == max_len for word, _ in expected)
    assert kinds == {"last level"}


def test_hit_sweep_steps_each_state_once_per_letter():
    letters, inverse = _signed_codes([1, 2])

    def step(value, lt):
        return (value + lt) % 3

    listed, steps, asked = _counted_sweep(letters, inverse, 8, 0, step, lambda value: value == 2)
    assert (steps, asked) == _reference_walk(letters, inverse, 8, 0, step)
    assert len(steps) <= (3 * 4 + 1) * 4 < _sweep_count(4, 8)
    assert listed == [item for item in _reference_items(letters, inverse, 8, 0, step)
                      if item[1] == 2]


# -- the backward walk runs only when some states hit and others do not --------------

@pytest.fixture
def distance_calls(monkeypatch):
    """The arguments of each backward walk (_hit_distances) made during the test."""
    calls = []
    real = selfsim.action._hit_distances

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(selfsim.action, "_hit_distances", counted)
    return calls


@pytest.mark.parametrize("kind,walks", [("none", 0), ("all", 0), ("some", 1)])
def test_backward_walk_runs_only_for_a_mixed_sweep(distance_calls, kind, walks):
    letters, inverse = _signed_codes([1, 2])

    def step(value, lt):
        return (value + lt) % 3

    hit = {"none": lambda value: False, "all": _always, "some": lambda value: value == 2}[kind]
    expected = [item for item in _reference_items(letters, inverse, 6, 0, step) if hit(item[1])]
    assert list(_hit_sweep(letters, inverse, 6, 0, step, hit)) == expected
    assert bool(expected) == (kind != "none")
    assert len(distance_calls) == walks


def test_passing_scans_make_no_backward_walk(distance_calls, fig5):
    aut = build_reducible_automaton(
        FiniteAction(["a", "b"], 5, {"a": (1, 2, 3, 4, 0), "b": (1, 0, 2, 3, 4)}))
    assert verify_loop_shortening(aut, 6).status == "Pass"
    assert check_reducible(fig5, 4, 8).status == "Pass"
    assert distance_calls == []


@pytest.mark.parametrize("codes", [[], [1], [1, 2], [1, 2, 3]])
@pytest.mark.parametrize("max_len", [0, 1, 2, 5])
def test_sweep_count_is_the_sweep_length(codes, max_len):
    letters, inverse = _signed_codes(codes)
    words = _reference_words(letters, inverse, max_len)
    assert _sweep_count(len(letters), max_len) == sum(1 for _ in words)


@pytest.mark.parametrize("codes", [[1], [1, 2], [2, 5, 7]])
def test_sweep_rank_is_the_sweep_position(codes):
    letters, inverse = _signed_codes(codes)
    for position, word in enumerate(_reference_words(letters, inverse, 4), 1):
        assert _sweep_rank(letters, inverse, word) == position


# -- loop shortening against the per-word walk ----------------------------------------

def _reference_loops(aut, max_len):
    """verify_loop_shortening as one whole walk per reduced word and start vertex."""
    ed = enriched_dual(aut)
    gens = [s for s in aut.states if s != aut.sink]
    erasable = {aut.sink, inverse_symbol(aut.sink)}
    letters = [(g, s) for g in gens for s in (1, -1)]
    violations, checked = [], 0
    for word in _reference_words(letters, {(g, s): (g, -s) for g, s in letters}, max_len):
        tokens = [g if s > 0 else inverse_symbol(g) for g, s in word]
        for q in ed.states:
            checked += 1
            v, kept = q, 0
            for t in tokens:
                if ed.out(v, t) not in erasable:
                    kept += 1
                v = ed.next(v, t)
            if v == q and kept >= len(word):
                violations.append((q, word))
    return LoopReport("Pass" if not violations else "Violations", tuple(violations), checked)


def _random_action(rng, degree):
    """1-3 random permutations of 0..degree-1 that together act transitively."""
    names = ["a", "b", "c"][:rng.randint(1, 3)]
    while True:
        perms = {g: tuple(rng.sample(range(degree), degree)) for g in names}
        orbit, frontier = {0}, [0]
        while frontier:
            p = frontier.pop()
            for images in perms.values():
                if images[p] not in orbit:
                    orbit.add(images[p])
                    frontier.append(images[p])
        if len(orbit) == degree:
            return FiniteAction(names, degree, perms)


def _random_assignment(rng, action):
    """Random outputs, the sink included, on a random part of the spanning tree."""
    outputs = list(action.generators) + ["id"]
    return {(p, g): rng.choice(outputs)
            for p, g, _ in spanning_tree(schreier_graph(action)) if rng.random() < 0.6}


def test_loop_sweep_matches_the_per_word_walk():
    rng = random.Random(808)
    statuses = set()
    for _ in range(60):
        action = _random_action(rng, rng.randint(1, 6))
        assignment = _random_assignment(rng, action) if rng.random() < 0.5 else None
        aut = build_reducible_automaton(action, assignment)
        max_len = rng.randint(1, 5)
        report = verify_loop_shortening(aut, max_len)
        assert report == _reference_loops(aut, max_len)
        statuses.add(report.status)
    for name in ("star3", "basilica", "adding_machine", "non_reducible_demo"):
        aut = builtin_automaton(name)
        assert verify_loop_shortening(aut, 3) == _reference_loops(aut, 3)
    assert statuses == {"Pass", "Violations"}


def test_loop_sweep_matches_the_per_word_walk_at_length_five():
    # coset machines with random assignments, and invertible edge-shaped machines,
    # whose closed walks often keep every letter
    rng = random.Random(505)
    statuses = []
    for _ in range(20):
        action = _random_action(rng, rng.randint(1, 5))
        aut = build_reducible_automaton(action, _random_assignment(rng, action))
        report = verify_loop_shortening(aut, 5)
        assert report == _reference_loops(aut, 5)
        statuses.append(report.status)
    for _ in range(20):
        aut = _oriented_machine(rng)
        report = verify_loop_shortening(aut, 5)
        assert report == _reference_loops(aut, 5)
        statuses.append(report.status)
    assert statuses.count("Violations") >= 5 and statuses.count("Pass") >= 5


def test_loop_sweep_on_a_machine_without_a_sink():
    # no output letter is erased, so every closed walk is a violation
    aut = make_automaton(["a", "b"], ["0", "1", "2"], [
        ("a", "0", "b", "1"), ("a", "1", "a", "2"), ("a", "2", "b", "0"),
        ("b", "0", "a", "0"), ("b", "1", "b", "2"), ("b", "2", "a", "1"),
    ])
    assert aut.sink is None
    report = verify_loop_shortening(aut, 5)
    assert report == _reference_loops(aut, 5)
    assert report.status == "Violations"


def test_loop_sweep_refuses_a_machine_that_is_not_invertible():
    aut = make_automaton(["a", "e"], ["0", "1"], [
        ("a", "0", "e", "0"), ("a", "1", "a", "0"), ("e", "0", "e", "0"), ("e", "1", "e", "1"),
    ], sink="e")
    with pytest.raises(NotInvertible, match="^enriched dual requires an invertible automaton$"):
        enriched_dual(aut)
    with pytest.raises(NotInvertible, match="^enriched dual requires an invertible automaton$"):
        verify_loop_shortening(aut, 3)


# -- the caps count the reduced words the sweeps walk ------------------------------------

def test_loop_sweep_cap_counts_reduced_words():
    # 2 generators: 4 * 3**(n - 1) reduced words of length n, 39,364 up to 9, from 5 cosets
    aut = build_reducible_automaton(
        FiniteAction(["a", "b"], 5, {"a": (1, 2, 3, 4, 0), "b": (1, 0, 2, 3, 4)}))
    walks = 5 * sum(4 * 3 ** (n - 1) for n in range(1, 10))
    assert walks == 196_820
    assert verify_loop_shortening(aut, 9).words_checked == walks
    assert verify_loop_shortening(aut, 9, cap=walks).words_checked == walks
    with pytest.raises(LevelTooLarge):
        verify_loop_shortening(aut, 9, cap=walks - 1)


def test_reducibility_scan_cap_counts_reduced_words(star, fig5):
    words = sum(6 * 5 ** (n - 1) for n in range(1, 4))
    assert check_reducible(star, 3, 8, cap=words).words_scanned == words
    with pytest.raises(LevelTooLarge):
        check_reducible(star, 3, 8, cap=words - 1)
    with pytest.raises(LevelTooLarge):
        check_reducible(fig5, 12, 8)


def test_representative_search_cap_counts_reduced_words(star, fig5):
    # the search never goes past |w|: 6 + 30 + 150 words up to length 3
    words = sum(6 * 5 ** (n - 1) for n in range(1, 4))
    assert shortest_representative(star, "a b c", 5, cap=words) is not None
    with pytest.raises(LevelTooLarge):
        shortest_representative(star, "a b c", 5, cap=words - 1)
    with pytest.raises(LevelTooLarge):
        shortest_representative(star, "a", -3)
    with pytest.raises(LevelTooLarge):      # 10 * 9**(n - 1) words of length n
        shortest_representative(fig5, "e1 e2 e3 e4 e5 e1 e2 e3 e4 e5", 10)


@pytest.mark.parametrize("what,call", [
    ("reducibility scan", lambda: check_reducible(builtin_automaton("star3"), -1, 8)),
    ("positive sweep",
     lambda: check_acyclic_no_positive_identity(builtin_automaton("triangle_acyclic"), -3)),
    ("loop sweep", lambda: verify_loop_shortening(builtin_automaton("star3"), -2)),
    ("representative search",
     lambda: shortest_representative(builtin_automaton("star3"), "a", -1)),
    ("reduced word", lambda: iter_reduced_words("ab", -1)),
], ids=["reducible", "acyclic", "loops", "representative", "reduced-words"])
def test_sweeps_refuse_a_negative_length(what, call):
    # a vacuous Pass over no words would read as a checked claim
    with pytest.raises(LevelTooLarge, match="^%s length must be >= 0$" % what):
        call()


def test_positive_sweep_cap_counts_positive_words(triangle_acyclic):
    words = 3 + 9 + 27
    assert check_acyclic_no_positive_identity(triangle_acyclic, 3, cap=words).words_checked == words
    with pytest.raises(LevelTooLarge):
        check_acyclic_no_positive_identity(triangle_acyclic, 3, cap=words - 1)
    with pytest.raises(LevelTooLarge):      # counted only up to the cap, then refused
        check_acyclic_no_positive_identity(triangle_acyclic, 10 ** 6)


def _positive_identities(aut, max_len):
    """Positive identities up to max_len: each length stored as a list and queried."""
    gens = [s for s in aut.states if s != aut.sink]
    violations, words = [], [()]
    for _ in range(max_len):
        words = [w + (g,) for w in words for g in gens]
        violations += [w for w in words if is_identity(aut, w).identity]
    return violations


def _oriented_machine(rng):
    """A machine whose states each loop on exactly one letter, so they read as edges."""
    alphabet = [str(i) for i in range(rng.randint(2, 3))]
    gens = ["s%d" % i for i in range(rng.randint(1, 3))]
    records = [("e", x, "e", x) for x in alphabet]
    for s in gens:
        tail = rng.choice(alphabet)
        targets = [g for g in gens if g != s] + ["e"]
        records += [(s, x, s if x == tail else rng.choice(targets), y)
                    for x, y in zip(alphabet, rng.sample(alphabet, len(alphabet)))]
    return make_automaton(gens + ["e"], alphabet, records, sink="e")


def test_positive_scan_streams_the_listed_words_and_keeps_no_memo():
    # edge-shaped machines that are not graph automata can have positive identities
    rng = random.Random(17)
    tested = with_violations = 0
    for _ in range(1000):
        aut = _oriented_machine(rng)
        try:
            report = check_acyclic_no_positive_identity(aut, 4)
        except BadGraph:
            continue
        assert "wp" not in aut._cache
        gens = len(aut.states) - 1
        assert report.words_checked == sum(gens ** n for n in range(1, 5))
        assert list(report.violations) == _positive_identities(aut, 4)
        assert report.status == ("Violations" if report.violations else "Pass")
        tested += 1
        with_violations += bool(report.violations)
    assert tested > 250 and with_violations > 10
