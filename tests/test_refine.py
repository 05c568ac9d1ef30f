"""Partition refinement checked against plain Moore refinement.

`mealy._refine_partition` runs Moore passes over the blocks of two or more
states only: a one-state block cannot split, so it leaves the passes.
Plain Moore refinement, kept below as the reference, re-signs every state
in every pass until the block count stops changing.  Both must return the
same list: the coarsest partition, blocks numbered by first occurrence.
The inputs are seeded random (outputs, succ) tables with self-loops,
singleton blocks, partitions stable from the start, chains that split one
block per pass, many chains whose equal multi-state blocks split late, and
the tables that `wordproblem._minimal_machine` builds for seeded `aleshin`
words, where residuals leave the passes one by one until each is its own
class; `bisimulation_classes` is compared on seeded random machines.
"""

import random

import pytest

from selfsim import bisimulation_classes, builtin_automaton, make_automaton, wordproblem
from selfsim.action import _encode_word
from selfsim.mealy import _refine_partition


def _moore(outputs, succ):
    """Moore refinement: every state re-signed each pass until the count holds."""
    ids = {}
    block = [ids.setdefault(out, len(ids)) for out in outputs]
    while True:
        count, ids = len(ids), {}
        block = [ids.setdefault((b, tuple(block[j] for j in kids)), len(ids))
                 for b, kids in zip(block, succ)]
        if len(ids) == count:
            return block


def _random_table(rng):
    """n states, 1-3 successors each, outputs from a few values; loops and singletons."""
    n = rng.randint(1, 300)
    width = rng.randint(1, 3)
    values = rng.randint(1, 4)
    outputs = [rng.randrange(values) for _ in range(n)]
    for i in rng.sample(range(n), min(n, rng.randint(0, 3))):
        outputs[i] = values + i                  # a singleton block from the start
    succ = []
    for i in range(n):
        kids = [rng.randrange(n) for _ in range(width)]
        if rng.random() < 0.2:
            kids[rng.randrange(width)] = i       # a self-loop
        succ.append(kids)
    return outputs, succ


def _chain(n):
    """A path whose last state differs: Moore splits one block per pass."""
    return [0] * (n - 1) + [1], [[min(i + 1, n - 1)] for i in range(n)]


def _stable_tables(rng):
    """Partitions that no successor splits: the first pass moves nothing."""
    n = rng.randint(1, 300)
    values = rng.randint(1, 5)
    outputs = [rng.randrange(values) for _ in range(n)]
    # every successor of a state of value v is a state of value (v + 1) % values,
    # picked by the letter alone, so all states of one value share one signature
    firsts = {}
    for i, out in enumerate(outputs):
        firsts.setdefault(out, i)
    targets = [firsts.get((v + 1) % values, firsts[outputs[0]]) for v in range(values)]
    yield outputs, [[targets[out], targets[out]] for out in outputs]
    yield outputs, [[i] for i in range(n)]
    yield list(range(n)), [[rng.randrange(n)] for _ in range(n)]


def test_refinement_matches_moore_on_random_tables():
    rng = random.Random(1971)
    splits = 0
    for _ in range(400):
        outputs, succ = _random_table(rng)
        got = _refine_partition(outputs, succ)
        assert got == _moore(outputs, succ)
        splits += max(got) + 1 > len(set(outputs))
    assert splits > 100


def test_refinement_matches_moore_on_stable_tables():
    rng = random.Random(2008)
    for _ in range(50):
        for outputs, succ in _stable_tables(rng):
            got = _refine_partition(outputs, succ)
            assert got == _moore(outputs, succ)
            ids = {}
            assert got == [ids.setdefault(out, len(ids)) for out in outputs]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 300])
def test_refinement_matches_moore_on_chains(n):
    outputs, succ = _chain(n) if n else ([], [])
    got = _refine_partition(outputs, succ)
    assert got == _moore(outputs, succ)
    assert got == list(range(n))


def _late_splits(rng):
    """Chains with equal outputs but for their ends, states shuffled, and their class count.

    The states at one depth of chains whose ends differ share a block
    until the pass that reaches that depth, and chains whose ends agree
    stay in one block, so many blocks of several states split late: one
    class per depth and distinct end.
    """
    length, chains, ends = rng.randint(2, 40), rng.randint(2, 30), rng.randint(1, 4)
    place = list(range(length * chains))
    rng.shuffle(place)
    outputs, succ, seen = [None] * len(place), [None] * len(place), set()
    for c in range(chains):
        end = 1 + rng.randrange(ends)
        seen.add(end)
        for k in range(length):
            i = place[c * length + k]
            outputs[i] = end if k == length - 1 else 0
            succ[i] = [place[c * length + min(k + 1, length - 1)], i]
    return outputs, succ, length * len(seen)


def test_refinement_matches_moore_on_late_splits():
    rng = random.Random(1956)
    for _ in range(100):
        outputs, succ, classes = _late_splits(rng)
        got = _refine_partition(outputs, succ)
        assert got == _moore(outputs, succ)
        assert max(got) + 1 == classes


def _aleshin_tables(monkeypatch, lengths, seed):
    """The (outputs, succ) table _minimal_machine refines for one seeded aleshin word per length."""
    aut = builtin_automaton("aleshin")
    gens = [s for s in aut.states if s != aut.sink]
    rng = random.Random(seed)
    tables = []

    def record(outputs, succ):
        tables.append((outputs, succ))
        return _refine_partition(outputs, succ)

    monkeypatch.setattr(wordproblem, "_refine_partition", record)
    for n in lengths:
        word = []
        while len(word) < n:
            letter = (rng.choice(gens), rng.choice((1, -1)))
            if not word or word[-1] != (letter[0], -letter[1]):
                word.append(letter)
        wordproblem._minimal_machine(aut, [_encode_word(aut, word)])
    return tables


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_refinement_matches_moore_on_aleshin_residuals(monkeypatch, seed):
    # aleshin is free: every residual of a word is its own element, so the
    # blocks split down to single states, leaving the passes one by one
    for outputs, succ in _aleshin_tables(monkeypatch, [7, 8, 9], seed):
        got = _refine_partition(outputs, succ)
        assert got == _moore(outputs, succ)
        assert got == list(range(len(outputs))) and len(set(outputs)) < len(outputs)


def _random_machine(rng):
    """A machine of 2-40 states over 2-3 letters, often with bisimilar states."""
    alphabet = [str(x) for x in range(rng.randint(2, 3))]
    states = ["q%d" % i for i in range(rng.randint(2, 40))]
    rows = [rng.sample(alphabet, len(alphabet)) for _ in range(rng.randint(1, 3))]
    records = []
    for s in states:
        row = rng.choice(rows)
        records += [(s, x, rng.choice(states[:rng.randint(1, len(states))]), y)
                    for x, y in zip(alphabet, row)]
    return make_automaton(states, alphabet, records)


def test_bisimulation_classes_match_moore_on_random_machines():
    rng = random.Random(4242)
    merged = 0
    for _ in range(300):
        aut = _random_machine(rng)
        idx = {s: i for i, s in enumerate(aut.states)}
        block = _moore([tuple(aut.out(s, x) for x in aut.alphabet) for s in aut.states],
                       [[idx[aut.next(s, x)] for x in aut.alphabet] for s in aut.states])
        groups = {}
        for s, b in zip(aut.states, block):
            groups.setdefault(b, []).append(s)
        classes = bisimulation_classes(aut)
        assert classes == tuple(tuple(g) for g in groups.values())
        merged += len(classes) < len(aut.states)
    assert merged > 100
