"""The level-one quotient order and the trace normal form against references.

`sym_quotient_order` runs a Sims table; here the order is also counted by
closing the level-one generators under composition.  `normal_form` runs a
heap-ordered topological sort; here it is also computed by the cubic greedy
that emits the smallest letter commuting with everything before it.  The
three trace-equality oracles must each match the truth a seeded pair was
built with.
"""

import math
import random

import pytest

from selfsim import (
    builtin,
    builtin_automaton,
    equivalent,
    make_automaton,
    normal_form,
    presentation_from_tree,
    projections_equal,
    semigroup_eq_via_action,
    sym_quotient_order,
    trace_word,
)

TREES = ("star3", "fig5_tree", "path_5")


# -- level-one quotient ------------------------------------------------------------

def _closure_order(perms, n):
    """Size of the group the permutation tuples generate, by breadth-first closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _machine(perms, n, rng):
    """An invertible machine whose states act on the first level by `perms`."""
    alphabet = [str(x) for x in range(n)]
    states = ["s%d" % i for i in range(len(perms))]
    records = [(s, str(x), rng.choice(states), str(p[x]))
               for s, p in zip(states, perms) for x in range(n)]
    return make_automaton(states, alphabet, records)


def _random_perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _cycle(n):
    return tuple((x + 1) % n for x in range(n))


def _transposition(n, a, b):
    p = list(range(n))
    p[a], p[b] = b, a
    return tuple(p)


def _kinds(n):
    """Generator sets with trivial, cyclic, non-transitive and full symmetric groups."""
    identity = tuple(range(n))
    yield [identity]
    yield [_cycle(n)]
    yield [_cycle(n), identity]
    if n >= 2:
        yield [_cycle(n), _transposition(n, 0, 1)]
        yield [_transposition(n, x, x + 1) for x in range(n - 1)]
    if n >= 3:
        # two orbits: {0, 1} and the rest
        rest = (0, 1) + tuple(2 + (x + 1) % (n - 2) for x in range(n - 2))
        yield [_transposition(n, 0, 1), rest]
        yield [_transposition(n, x, x + 1) for x in range(2, n - 1)] or [identity]


@pytest.mark.parametrize("n", range(1, 8))
def test_quotient_order_matches_closure_on_chosen_groups(n):
    rng = random.Random(n)
    for perms in _kinds(n):
        assert sym_quotient_order(_machine(perms, n, rng)) == _closure_order(perms, n)


def test_quotient_order_matches_closure_on_random_machines():
    rng = random.Random(20221)
    for _ in range(150):
        n = rng.randint(1, 7)
        perms = [_random_perm(n, rng) for _ in range(rng.randint(1, 4))]
        # a third of the time, stay inside the stabilizer of the last point
        if n > 1 and rng.random() < 0.33:
            perms = [_random_perm(n - 1, rng) + (n - 1,) for _ in perms]
        aut = _machine(perms, n, rng)
        assert sym_quotient_order(aut, cap=7) == _closure_order(perms, n)


def test_quotient_order_cycle_20():
    assert sym_quotient_order(builtin_automaton("cycle_20"), cap=20) == math.factorial(20)


# -- trace normal form ---------------------------------------------------------------

def _greedy_normal_form(u):
    """Repeatedly emit the smallest letter whose predecessors all commute with it."""
    pres = u.pres
    remaining = list(u.erased())
    out = []
    while remaining:
        best = None
        for i, x in enumerate(remaining):
            if all(pres.independent_pair(y, x) for y in remaining[:i]):
                if best is None or pres.order(x) < pres.order(remaining[best]):
                    best = i
        out.append(remaining.pop(best))
    return tuple(out)


def _presentations():
    return [presentation_from_tree(builtin(name)) for name in TREES]


def _random_word(pres, length, rng):
    shape = rng.random()
    if shape < 0.1:
        return [pres.sink] * length
    if shape < 0.2:
        # runs of one letter
        word = []
        while len(word) < length:
            word += [rng.choice(pres.letters)] * rng.randint(1, 6)
        return word[:length]
    return [rng.choice(pres.letters) for _ in range(length)]


def test_normal_form_matches_greedy():
    rng = random.Random(1979)
    for pres in _presentations():
        assert normal_form(trace_word(pres, ())).letters == ()
        for _ in range(200):
            u = trace_word(pres, _random_word(pres, rng.randint(0, 60), rng))
            nf = normal_form(u)
            assert nf.letters == _greedy_normal_form(u)
            assert normal_form(nf).letters == nf.letters


def test_normal_form_of_long_word_is_equivalent():
    rng = random.Random(5000)
    pres = presentation_from_tree(builtin("fig5_tree"))
    u = trace_word(pres, [rng.choice(pres.letters) for _ in range(5000)])
    nf = normal_form(u)
    assert len(nf.letters) == len(u.erased())
    assert projections_equal(u, nf)


# -- the three oracles ---------------------------------------------------------------

def _equal_variant(pres, word, rng):
    """A word equal in the trace monoid: independent adjacent swaps and identity letters."""
    word = list(word)
    for _ in range(rng.randint(0, 3 * len(word) + 1)):
        if rng.random() < 0.2:
            word.insert(rng.randint(0, len(word)), pres.sink)
            continue
        if len(word) < 2:
            continue
        i = rng.randrange(len(word) - 1)
        if pres.independent_pair(word[i], word[i + 1]):
            word[i], word[i + 1] = word[i + 1], word[i]
    return word


def _unequal_variant(pres, word, rng):
    """Swap two positions holding distinct dependent letters, or None if there are none."""
    spots = [(i, j) for i in range(len(word)) for j in range(i + 1, len(word))
             if word[i] != word[j] and pres.sink not in (word[i], word[j])
             and not pres.independent_pair(word[i], word[j])]
    if not spots:
        return None
    i, j = rng.choice(spots)
    word = list(word)
    word[i], word[j] = word[j], word[i]
    return word


@pytest.mark.parametrize("seed,name", enumerate(TREES))
def test_three_oracles_match_the_built_truth(seed, name):
    rng = random.Random(seed)
    aut = builtin_automaton(name)
    pres = presentation_from_tree(builtin(name))
    edges = [x for x in pres.letters if x != pres.sink]
    built = {True: 0, False: 0}
    for _ in range(120):
        word = [rng.choice(edges + [pres.sink]) for _ in range(rng.randint(0, 8))]
        truth = rng.random() < 0.5
        other = _equal_variant(pres, word, rng) if truth else _unequal_variant(pres, word, rng)
        if other is None:
            continue
        built[truth] += 1
        u, v = trace_word(pres, word), trace_word(pres, other)
        assert equivalent(u, v) == truth
        assert projections_equal(u, v) == truth
        assert semigroup_eq_via_action(aut, word, other).equal == truth
    assert min(built.values()) >= 30

