"""The nucleus's element table, and element keys, checked against the closure decider.

An element's key here is its minimal portrait: the level-one permutations
and section classes (perm, sec) of the minimal machine that a word's
residuals form (`wordproblem._minimal_machine`), or of a table element's
rows read breadth first (`_row_key`).  `nucleus` keeps an element table
(`wordproblem._Elements`) and asks it which element, if any, a pair
product equals.  Its answers must be those of the n² pair table that
earlier rounds refined (`_pair_blocks`, kept below as the reference), for
every pair it is asked about and every pair of every table it held, and
the keys of its rows must be those of the nucleus's words.  The key must
separate exactly the pairs the closure decider separates, and no key is
memoized.  A word must act (`_acts_as`) as exactly the one element whose
key is its own, among the rows of a table and among those of the
nucleus's table.  The rounds multiply each element by the states and
their inverses only, and form no graph for a pair whose sections are
elements.  Against the per-representative closure lookup and the loop
that examines every pair of elements, both kept below as references,
they must reach the same elements: where a reference completes, so does
`nucleus`, with the same elements; where `nucleus` raises a cap error, so
does the reference; and where only the reference raises, its graphs
being deeper, it reaches the same elements at the default caps.  A
raised size cap on a machine that is not contracting must stay in
bounded memory.  No pair's residual graph may be walked twice, nor for
a pair whose sections are elements, and the depth cap must count levels
of element pairs, not of words; the work of three runs is counted exactly.
The shortlex search must find the words the closure search `_shortest`
finds.
The reducibility scan's explicit-stack chain walk and its state-graph
sweep are compared with the recursive per-word walk they replaced, the
sweep's steps are counted against its states, and the Aleshin machine is
checked as a free, non-contracting fixture.
"""

import itertools
import random
import time
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import selfsim.wordproblem
from selfsim import (
    builtin_automaton,
    check_reducible,
    elements_equal,
    is_identity,
    make_automaton,
    nucleus,
    shortest_representative,
)
from selfsim.action import (
    _decode_word,
    _encode_word,
    _hit_sweep,
    _inverse,
    _product,
    _step_word,
    iter_reduced_words,
)
from selfsim.errors import NotContractingWithinCaps, SelfSimError
from selfsim.limits import DEFAULT_NUCLEUS_DEPTH, DEFAULT_NUCLEUS_SIZE
from selfsim.mealy import _refine_partition, _trim
from selfsim.wordproblem import (
    Nucleus,
    ReducibilityReport,
    _Elements,
    _acts_as,
    _closure_scan,
    _gen_codes,
    _lex_key,
    _minimal_machine,
    _verdict,
)

SINK = "e"
BUILTINS = ("adding_machine", "basilica", "star3", "fig5_tree", "path_4", "path_5",
            "triangle_acyclic")


def _random_machine(rng):
    """An invertible machine with 2-3 letters, 2-4 states and a sink."""
    alphabet = [str(i) for i in range(rng.randint(2, 3))]
    gens = ["s%d" % i for i in range(rng.randint(2, 4))]
    records = [(SINK, x, SINK, x) for x in alphabet]
    for s in gens:
        outputs = rng.sample(alphabet, len(alphabet))
        records += [(s, x, rng.choice(gens + [SINK]), y) for x, y in zip(alphabet, outputs)]
    return records, gens + [SINK], alphabet


def _build(machine):
    records, states, alphabet = machine
    return make_automaton(states, alphabet, records, sink=SINK)


def _code_words(aut, max_len, include_empty=True):
    """Reduced code words over the states, in the order of iter_reduced_words."""
    for word in iter_reduced_words(_gen_codes(aut), max_len, include_empty):
        yield tuple(c * s for c, s in word)


# -- the key against the closure decider ---------------------------------------------

def _key(aut, word):
    """Key of the element a code word acts as: its minimal machine's (perm, sec)."""
    _, _, perm, sec = _minimal_machine(aut, [word])
    return tuple(perm), tuple(sec)


def _row_key(perm, sec, k):
    """Key of element k of a table, read from its rows breadth first from k.

    The table's elements are pairwise distinct and closed under sections,
    so the elements that k's sections reach are the classes of its minimal
    machine; breadth first in letter order they come in the order of first
    occurrence that `_minimal_machine` numbers its classes in.
    """
    number, order = {k: 0}, [k]
    for e in order:
        for s in sec[e]:
            if s not in number:
                number[s] = len(order)
                order.append(s)
    return (tuple(perm[e] for e in order),
            tuple(tuple(map(number.__getitem__, sec[e])) for e in order))


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1))
def test_key_equal_exactly_when_elements_equal(seed):
    rng = random.Random(seed)
    machine = _random_machine(rng)
    aut = _build(machine)
    gens = [s for s in aut.states if s != SINK]
    letters = [(g, s) for g in gens for s in (1, -1)]
    pool = [list(w) for w in iter_reduced_words(gens, 2)]
    for _ in range(6):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        pool += [w, w + rng.choice(pool)]
    heads = {}
    for w in pool:
        head = heads.setdefault(_key(aut, _encode_word(aut, w)), w)
        assert elements_equal(aut, head, w)
    for u, v in itertools.combinations(heads.values(), 2):
        assert not elements_equal(aut, u, v)


def _words_to_key(aut):
    """Words for a test to ask shortest_representative about: the nucleus's elements.

    Aleshin's capped nucleus run stops before it finds any, so it gives
    the seeds and some reduced words instead.
    """
    try:
        return list(nucleus(aut, size_cap=64))
    except NotContractingWithinCaps:
        return [_decode_word(aut, word) for word in itertools.islice(_code_words(aut, 3), 60)]


@pytest.mark.parametrize("name", ["basilica", "star3", "fig5_tree", "aleshin"])
def test_no_key_memo_is_kept(name):
    # nucleus reads keys off its table, shortest_representative builds each one afresh
    aut = builtin_automaton(name)
    for w in _words_to_key(aut):
        shortest_representative(aut, w, 2)
    assert "key" not in aut._cache


def test_key_of_an_identity_is_the_one_state_portrait(fig5):
    identity = _encode_word(fig5, "e2 e4 e2^-1 e4^-1")
    assert is_identity(fig5, "e2 e4 e2^-1 e4^-1").identity
    n = len(fig5.alphabet)
    assert _key(fig5, identity) == ((tuple(range(n)),), ((0,) * n,))


# -- the nucleus against per-representative closure lookups ---------------------------

def _find_in(aut, word, reps):
    inv = _inverse(word)
    for r in reps:
        if _verdict(aut, _product(r, inv)).identity:
            return r
    return None


def _shortest(aut, word, max_len):
    inv = _inverse(word)
    for candidate in _code_words(aut, max_len):
        if _verdict(aut, _product(candidate, inv)).identity:
            return candidate
    return None


def _improve_rep(aut, word):
    space = sum((2 * len(_gen_codes(aut))) ** n for n in range(len(word) + 1))
    if space > 20000:
        return word
    found = _shortest(aut, word, len(word))
    return found if found is not None else word


def _reference_closure(aut, word):
    """Residuals of a code word in breadth-first order, by a scan of its own.

    The reference nucleus seeds through it, not through the walker that
    `nucleus` uses, so the two stay independent.
    """
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    order = [word]
    seen = {word}
    queue = deque(order)
    while queue:
        cur = queue.popleft()
        for x in letters:
            res = _step_word(rows, cur, x)[1]
            if res not in seen:
                seen.add(res)
                order.append(res)
                queue.append(res)
    return order


def _reference_nucleus(aut, depth_cap=64, size_cap=512):
    """The nucleus with membership decided by a closure query per representative."""
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    reps = []

    def add_word(ls):
        if _find_in(aut, ls, reps) is not None:
            return False
        reps.append(ls)
        if len(reps) > size_cap:
            raise NotContractingWithinCaps("nucleus exceeded size cap %d" % size_cap)
        return True

    add_word(())
    seeds = [(c,) for c in _gen_codes(aut)]
    seeds += [(-c,) for c, in seeds]
    for seed in seeds:
        for ls in _reference_closure(aut, seed):
            add_word(ls)
    changed = True
    while changed:
        changed = False
        snapshot = list(reps)
        for g, h in itertools.product(snapshot, snapshot):
            w0 = _product(g, h)
            if _find_in(aut, w0, reps) is not None:
                continue
            nodes, node_set, succ, frontier, levels = [w0], {w0}, {}, [w0], 0
            while frontier:
                levels += 1
                if levels > depth_cap:
                    raise NotContractingWithinCaps(
                        "residual chains exceeded depth cap %d" % depth_cap)
                nxt = []
                for wl in frontier:
                    succ[wl] = kids = [_step_word(rows, wl, x)[1] for x in letters]
                    for r in kids:
                        if r not in node_set and _find_in(aut, r, reps) is None:
                            node_set.add(r)
                            nodes.append(r)
                            nxt.append(r)
                frontier = nxt
            for wl in _trim(nodes, {w: [r for r in succ[w] if r in node_set] for w in nodes}):
                changed |= add_word(wl)
                changed |= add_word(_inverse(wl))
    final = sorted((_improve_rep(aut, ls) for ls in reps),
                   key=lambda ls: (len(ls), _lex_key(ls)))
    alphabet = aut.alphabet
    perms, sections = {}, {}
    for ls in final:
        rep = _decode_word(aut, ls)
        perms[rep], sections[rep] = {}, {}
        for x in letters:
            y, res = _step_word(rows, ls, x)
            target = _find_in(aut, res, final)
            if target is None:
                raise NotContractingWithinCaps("residual left the computed set; raise the caps")
            perms[rep][alphabet[x]] = alphabet[y]
            sections[rep][alphabet[x]] = _decode_word(aut, target)
    return Nucleus([_decode_word(aut, ls) for ls in final], perms, sections)


def _portraits(aut, nuc):
    """The key of each of a nucleus's words, in order."""
    return [_key(aut, _encode_word(aut, w)) for w in nuc]


def _assert_same_elements(aut, got, ref):
    """Each element of ref equals exactly one of got, with its permutation and sections.

    Elements are matched by key.  The words may differ: a word too long
    for the shortest-word pass stays the one its loop adjoined.
    """
    keys, ref_keys = _portraits(aut, got), _portraits(aut, ref)
    assert len(set(keys)) == len(keys) == len(ref_keys) and set(keys) == set(ref_keys)
    key_of, ref_key_of = dict(zip(got, keys)), dict(zip(ref, ref_keys))
    word = dict(zip(keys, got))
    for r, k in zip(ref, ref_keys):
        w = word[k]
        assert got.perms[w] == ref.perms[r]
        assert ({x: key_of[s] for x, s in got.sections[w].items()}
                == {x: ref_key_of[s] for x, s in ref.sections[r].items()})


def _cap_error(fn, aut, **caps):
    """fn(aut, **caps), or the message of the cap error it raises."""
    try:
        return fn(aut, **caps)
    except NotContractingWithinCaps as exc:
        return str(exc)


def _against_reference(machine, **caps):
    """nucleus against _reference_nucleus on one machine: (its outcome, the reference's).

    Where the reference completes, nucleus completes with the same
    elements, and where nucleus raises, so does the reference.  Where only
    the reference raises, it is the depth cap, which counts the levels of
    graphs of products of two elements; at the default caps the reference
    then reaches the same elements.
    """
    got = _cap_error(nucleus, _build(machine), **caps)
    ref = _cap_error(_reference_nucleus, _build(machine), **caps)
    if isinstance(got, str):
        assert isinstance(ref, str)
    elif isinstance(ref, str):
        assert ref.startswith("residual chains exceeded depth cap")
        _assert_same_elements(_build(machine), got, _reference_nucleus(_build(machine)))
    else:
        _assert_same_elements(_build(machine), got, ref)
    return tuple(x.split(" cap ")[0] if isinstance(x, str) else "Nucleus" for x in (got, ref))


def _outcome(fn, *args, **kwargs):
    try:
        nuc = fn(*args, **kwargs)
    except SelfSimError as exc:
        return type(exc).__name__, str(exc)
    return nuc.elements, nuc.perms, nuc.sections


@pytest.mark.parametrize("name", BUILTINS)
def test_nucleus_matches_the_closure_lookup(name):
    aut = builtin_automaton(name)
    assert _outcome(nucleus, aut) == _outcome(_reference_nucleus, builtin_automaton(name))
    assert not aut._cache.get("wp")


def test_nucleus_matches_the_closure_lookup_on_random_machines():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(80):
        outcomes.add(_against_reference(_random_machine(rng), depth_cap=10, size_cap=40)[0])
    assert outcomes == {"Nucleus", "nucleus exceeded size", "residual chains exceeded depth"}


def test_shortest_representative_matches_the_closure_search(star):
    rng = random.Random(5)
    letters = [(g, s) for g in "abc" for s in (1, -1)]
    for _ in range(60):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        found = _shortest(star, _encode_word(star, w), 3)
        expected = None if found is None else _decode_word(star, found)
        assert shortest_representative(star, w, 3) == expected


def test_nucleus_matches_the_closure_lookup_under_tight_caps():
    # some machines here pass the depth cap only in the reference, whose
    # graphs are those of products of two elements
    rng = random.Random(424242)
    outcomes = set()
    for _ in range(200):
        machine = _random_machine(rng)
        caps = {"depth_cap": rng.randint(1, 3), "size_cap": rng.randint(5, 20)}
        outcomes.add(_against_reference(machine, **caps))
    depth, size = "residual chains exceeded depth", "nucleus exceeded size"
    assert {got for got, _ in outcomes} == {"Nucleus", depth, size}
    assert ("Nucleus", depth) in outcomes


def _recording_table(tables):
    """An _Elements class whose tables add themselves to `tables` and keep what they adjoin."""

    class Recorded(_Elements):
        __slots__ = ("adjoined",)

        def __init__(self):
            super().__init__()
            self.adjoined = []
            tables.append(self)

        def adjoin(self, nodes):
            new = super().adjoin(nodes)
            self.adjoined += new
            return new

    return Recorded


def test_each_pair_product_is_formed_once(monkeypatch):
    # a pair examined in one round is not examined again in a later one, its
    # second factor is a state or an inverse state, and a graph is walked
    # only when one of the pair's sections is outside the table, so its
    # first node has an arc: here each graph is that one node and its loop
    for name in ("fig5_tree", "cycle_5"):
        graphs, tables = [], []

        def trim(nodes, succ):
            graphs.append((list(nodes), succ[nodes[0]]))
            return _trim(nodes, succ)

        monkeypatch.setattr(selfsim.wordproblem, "_Elements", _recording_table(tables))
        monkeypatch.setattr(selfsim.wordproblem, "_trim", trim)
        nucleus(builtin_automaton(name))
        monkeypatch.undo()
        table, = tables
        seeded = len(table.perm) - len(table.adjoined)
        pairs = [nodes[0] for nodes, _ in graphs]
        assert pairs and len(set(pairs)) == len(pairs)
        assert all(0 < j < seeded for _, j in pairs)
        assert all(arcs for _, arcs in graphs)


# -- the round loop against the loop that examines every pair ----------------------

def _every_pair_nucleus(aut, depth_cap=DEFAULT_NUCLEUS_DEPTH, size_cap=DEFAULT_NUCLEUS_SIZE):
    """nucleus's seeding, then rounds over the products of every two elements.

    A round examines each pair of elements with one factor adjoined in the
    round before, and forms a residual graph for every pair not found, even
    one whose sections are all table elements.  The table is
    `wordproblem._Elements`, looked up when called, so that a test can
    record it; the shortest-word pass is left out.
    """
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    reps = []

    def grow(ls):
        reps.append(ls)
        if len(reps) > size_cap:
            raise NotContractingWithinCaps("nucleus exceeded size cap %d" % size_cap)

    seeds = [(c,) for c in _gen_codes(aut)]
    seeds += [(-c,) for c, in seeds]
    _, closure, perms, succ = _closure_scan(aut, [()] + seeds, False)
    block = _refine_partition(perms, succ)
    index = {ls: i for i, ls in enumerate(closure)}
    table = selfsim.wordproblem._Elements()
    for i, b in enumerate(block):
        if b == len(reps):
            grow(closure[i])
            table.append(perms[i], tuple(block[j] for j in succ[i]),
                         block[index[_inverse(closure[i])]])
    perm, sec, find, known = table.perm, table.sec, table.find, table.equal.get
    old = 0
    while old < len(reps):
        n = len(reps)
        for i in range(n):
            for j in range(old if i < old else 0, n):
                if find((i, j)) is not None:
                    continue
                w0 = _product(reps[i], reps[j])
                pair, nodes, node_set, succ = {w0: (i, j)}, [w0], {w0}, {}
                frontier, levels = [w0], 0
                while frontier:
                    levels += 1
                    if levels > depth_cap:
                        raise NotContractingWithinCaps(
                            "residual chains exceeded depth cap %d" % depth_cap)
                    nxt = []
                    for wl in frontier:
                        a, b = pair[wl]
                        pa, sa, sb = perm[a], sec[a], sec[b]
                        succ[wl] = out = []
                        for x in letters:
                            q = sa[x], sb[pa[x]]
                            if known(q) is not None or find(q) is not None:
                                continue
                            r = _step_word(rows, wl, x)[1]
                            out.append(r)
                            if r not in node_set:
                                node_set.add(r)
                                nodes.append(r)
                                nxt.append(r)
                                pair[r] = q
                    frontier = nxt
                recurring = _trim(nodes, succ)
                if recurring:
                    pairs = list(dict.fromkeys(pair[wl] for wl in recurring))
                    for (a, b), inverse in table.adjoin(pairs):
                        w = _product(reps[a], reps[b])
                        grow(_inverse(w) if inverse else w)
        old = n


def _rounds(fn, aut, **caps):
    """What fn's rounds leave: the cap error, the element table, the words adjoined.

    The adjoined words are those passed to grow after the seeding, in
    order, up to the one that broke the size cap, if any.
    """
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selfsim.wordproblem, "_Elements", _recording_table(tables))
        try:
            fn(aut, **caps)
            error = None
        except NotContractingWithinCaps as exc:
            error = str(exc)
    table, = tables
    return error, table.perm, table.sec, table.inv, table.adjoined


def _assert_same_table(got, ref):
    """Two _rounds results hold the same elements, each with the same inverse.

    Rows are matched by their keys (_row_key); the seeded rows, which come
    before any adjoined one, are the same rows in the same order.
    """
    (_, perm, sec, inv, adjoined), (_, ref_perm, ref_sec, ref_inv, _) = got, ref
    keys = [_row_key(perm, sec, k) for k in range(len(perm))]
    ref_keys = [_row_key(ref_perm, ref_sec, k) for k in range(len(ref_perm))]
    assert len(set(keys)) == len(keys) == len(ref_keys) and set(keys) == set(ref_keys)
    where = {k: e for e, k in enumerate(ref_keys)}
    assert all(ref_keys[ref_inv[where[k]]] == keys[inv[e]] for e, k in enumerate(keys))
    seeded = len(perm) - len(adjoined)
    assert keys[:seeded] == ref_keys[:seeded]


def _against_every_pair(machine, **caps):
    """nucleus's rounds against _every_pair_nucleus's: (the outcome of each).

    The rules of _against_reference, on the element tables: where only
    the loop over every pair raises, it is the depth cap, and at the
    default caps that loop reaches the same table.
    """
    got = _rounds(nucleus, _build(machine), **caps)
    ref = _rounds(_every_pair_nucleus, _build(machine), **caps)
    if got[0] is not None:
        assert ref[0] is not None
    elif ref[0] is not None:
        assert ref[0].startswith("residual chains exceeded depth cap")
        _assert_same_table(got, _rounds(_every_pair_nucleus, _build(machine)))
    else:
        _assert_same_table(got, ref)
    return tuple(x[0] and x[0].split(" cap ")[0] for x in (got, ref))


@pytest.mark.parametrize("name", BUILTINS + ("cycle_5",))
def test_rounds_match_the_every_pair_loop(name):
    got = _rounds(nucleus, builtin_automaton(name))
    ref = _rounds(_every_pair_nucleus, builtin_automaton(name))
    assert got[0] is None and ref[0] is None and (got[4] or name == "adding_machine")
    _assert_same_table(got, ref)


def test_rounds_match_the_every_pair_loop_under_tight_caps():
    # the machines and caps of test_nucleus_matches_the_closure_lookup_under_tight_caps
    rng = random.Random(424242)
    outcomes = set()
    for _ in range(200):
        machine = _random_machine(rng)
        caps = {"depth_cap": rng.randint(1, 3), "size_cap": rng.randint(5, 20)}
        outcomes.add(_against_every_pair(machine, **caps))
    depth, size = "residual chains exceeded depth", "nucleus exceeded size"
    assert {got for got, _ in outcomes} == {None, depth, size}
    assert (None, depth) in outcomes


def test_a_deeper_mirror_graph_fails_every_loop():
    # two chains of unequal length in a pair's residual graph reach one word,
    # so the graph has fewer levels than its longest chain; in the loops over
    # every pair of elements, the graph of its mirror (inv b, inv a), whose
    # chains do not meet, is the first to pass depth cap 4.  The machine is not
    # contracting within 60 elements, so nucleus raises too.
    records = [(SINK, x, SINK, x) for x in "012"]
    records += [("s0", "0", SINK, "1"), ("s0", "1", SINK, "0"), ("s0", "2", "s0", "2"),
                ("s1", "0", "s1", "0"), ("s1", "1", "s0", "2"), ("s1", "2", "s1", "1")]
    machine = records, ["s0", "s1", SINK], list("012")
    caps = {"depth_cap": 4, "size_cap": 60}
    assert _rounds(_every_pair_nucleus, _build(machine), **caps)[0] == (
        "residual chains exceeded depth cap 4")
    outcomes = ("nucleus exceeded size", "residual chains exceeded depth")
    assert _against_every_pair(machine, **caps) == outcomes
    assert _against_reference(machine, **caps) == outcomes


def _count_work(monkeypatch, name):
    """Calls of _Elements.find, _Elements._matches and _product in one nucleus run."""
    counts = dict.fromkeys(("find", "_matches", "_product"), 0)

    def counted(owner, attr):
        fn = getattr(owner, attr)

        def call(*args):
            counts[attr] += 1
            return fn(*args)

        monkeypatch.setattr(owner, attr, call)

    counted(_Elements, "find")
    counted(_Elements, "_matches")
    counted(selfsim.wordproblem, "_product")
    nucleus(builtin_automaton(name))
    monkeypatch.undo()
    return counts


def test_nucleus_work_counts(monkeypatch):
    # the README quotes these figures; one product is formed per adjoined
    # element.  The rounds over pairs of elements, with one pair of each
    # mirrored couple examined, took 516 finds, 136 walks and 10 products on
    # fig5_tree, 4,746, 3,998 and 45 on cycle_5, and 97,885, 46,039 and 212
    # on cycle_8, where a product was formed per residual graph over words
    assert _count_work(monkeypatch, "fig5_tree") == {"find": 330, "_matches": 114, "_product": 20}
    assert _count_work(monkeypatch, "cycle_5") == {"find": 1050, "_matches": 664, "_product": 85}
    assert _count_work(monkeypatch, "cycle_8") == {"find": 7480, "_matches": 3160,
                                                   "_product": 424}


def test_the_depth_cap_depends_on_the_elements_only():
    # the residual graphs over words of this machine's products were deeper
    # than those over the element pairs the words equal, so depth caps 1 to 4
    # fired; a graph over pairs of elements passes each of them
    records = [(SINK, x, SINK, x) for x in "01"]
    records += [("s0", "0", "s3", "1"), ("s0", "1", "s3", "0"), ("s1", "0", "s0", "0"),
                ("s1", "1", "s1", "1"), ("s2", "0", "s0", "1"), ("s2", "1", "s0", "0"),
                ("s3", "0", "s2", "1"), ("s3", "1", "s0", "0")]
    machine = records, ["s0", "s1", "s2", "s3", SINK], list("01")
    expected = _outcome(nucleus, _build(machine))
    assert tuple(map(str, expected[0])) == ("1", "s0", "s1", "s0 s1", "s1 s0", "s0 s1 s0")
    for depth_cap in range(1, 5):
        assert _outcome(nucleus, _build(machine), depth_cap=depth_cap, size_cap=80) == expected


# -- the element table against the n² pair table -------------------------------------

def _pair_blocks(perm, sec):
    """Element classes of n elements and of the n² products of two of them.

    Element k has the level-one permutation perm[k] and the section ids
    sec[k].  State k < n is element k, and state n + a*n + b is the product
    of a then b: its permutation is perm[b] after perm[a], and its section
    at x is the pair (sec[a][x], sec[b][perm[a][x]]).  Returns (block,
    succ): mealy._refine_partition's block of each state, and each state's
    successor states, letter by letter, so that a caller reads a pair's
    sections from succ.  Refinement merges exactly the states that act
    alike on the tree, so distinct elements keep blocks 0..n-1, and a pair
    lies in block k < n exactly when it equals element k.
    """
    n = len(perm)
    ids = {}                             # permutation -> its number
    own = [ids.setdefault(p, len(ids)) for p in perm]
    distinct = list(ids)
    then = [[ids.setdefault(tuple(map(q.__getitem__, p)), len(ids)) for q in distinct]
            for p in distinct]
    outputs, succ = list(own), list(sec)
    for pa, sa, oa in zip(perm, sec, own):
        base = [n + s * n for s in sa]
        row = then[oa]
        outputs += [row[ob] for ob in own]
        succ += [[t + sb[y] for t, y in zip(base, pa)] for sb in sec]
    return _refine_partition(outputs, succ), succ


def _check_table(aut, rng, monkeypatch, **caps):
    """The element table's answers in a nucleus run against the pair table.

    Each pair the run asks about must get the answer of the pair table of
    the elements the table held at the time.  Then a fresh table grows
    through each table the run held, a prefix of the last one, and is
    asked about all its pairs at each, in a shuffled order: its memo fills
    in another order, and a pair that equalled no element is asked again
    once more elements are there.  The table's keys must be those of the
    nucleus's words.  Returns the nucleus, or None when the run hits a
    cap, and the numbers of answers that named an element and none.
    """
    find, asked, tables = _Elements.find, [], []

    def spy(table, q):
        got = find(table, q)
        asked.append((len(table.perm), q, got))
        return got

    # a machine whose states all act as the identity asks no pair
    monkeypatch.setattr(selfsim.wordproblem, "_Elements", _recording_table(tables))
    monkeypatch.setattr(_Elements, "find", spy)
    try:
        nuc = nucleus(aut, **caps)
    except NotContractingWithinCaps:
        return None, 0, 0
    finally:
        monkeypatch.undo()
    table, = tables
    answers = {}                         # table length -> the pair table's answers
    for size, q, got in asked:
        if size not in answers:
            block = _pair_blocks(table.perm[:size], table.sec[:size])[0]
            answers[size] = {(a, b): block[size + a * size + b] for a in range(size)
                             for b in range(size) if block[size + a * size + b] < size}
        assert got == answers[size].get(q)
    fresh = _Elements()
    for size, want in sorted(answers.items()):
        done = len(fresh.perm)
        for row in zip(table.perm[done:size], table.sec[done:size], table.inv[done:size]):
            fresh.append(*row)
        pairs = list(itertools.product(range(size), repeat=2))
        rng.shuffle(pairs)
        for q in pairs:
            assert find(fresh, q) == want.get(q)
    assert len(table.perm) == len(nuc)
    assert ({_row_key(table.perm, table.sec, k) for k in range(len(nuc))}
            == {_key(aut, _encode_word(aut, w)) for w in nuc})
    named = sum(got is not None for _, _, got in asked)
    return nuc, named, len(asked) - named


@pytest.mark.parametrize("name", BUILTINS + ("cycle_5",))
def test_table_membership_matches_the_pair_table(name, monkeypatch):
    nuc, named, none = _check_table(builtin_automaton(name), random.Random(name), monkeypatch)
    assert nuc is not None and named and none


def test_table_membership_matches_the_pair_table_on_random_machines(monkeypatch):
    rng = random.Random(2026)
    contracting = none = 0
    while contracting < 30:
        machine = _random_machine(rng)
        nuc, _, missed = _check_table(_build(machine), rng, monkeypatch,
                                      depth_cap=10, size_cap=40)
        contracting += nuc is not None
        none += missed
    assert none


def test_a_raised_size_cap_stays_in_bounded_memory():
    # the n² pair table this table replaced peaked at 272 MB here
    tracemalloc.start()
    try:
        with pytest.raises(NotContractingWithinCaps, match="size cap 1024"):
            nucleus(builtin_automaton("aleshin"), size_cap=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 10 ** 6


def _check_first_words(aut, rng, count):
    """Lengths at which shortest_representative found a word of exactly max_len."""
    gens = [s for s in aut.states if s != aut.sink]
    letters = [(g, s) for g in gens for s in (1, -1)]
    last_level = set()
    for _ in range(count):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        for max_len in range(5):
            found = _shortest(aut, _encode_word(aut, w), max_len)
            expected = None if found is None else _decode_word(aut, found)
            assert shortest_representative(aut, w, max_len) == expected
            if found is not None and len(found) == max_len:
                last_level.add(max_len)
    return last_level


@pytest.mark.parametrize("name", ["basilica", "star3", "fig5_tree"])
def test_first_words_match_the_shortest_reference(name):
    assert _check_first_words(builtin_automaton(name), random.Random(name), 40) == {0, 1, 2, 3, 4}


def test_first_words_match_the_shortest_reference_on_random_machines():
    # three-letter machines have level-one permutations that are not involutions
    rng = random.Random(31)
    for _ in range(12):
        _check_first_words(_build(_random_machine(rng)), rng, 4)


def _check_acts_as(aut, rng, count):
    """The walk match against key equality, over a pool of seeded words.

    Each word is matched against the root row of every distinct key with
    its level-one permutation, so most matches that fail get past the root.
    Returns how many matches held and how many failed.
    """
    gens = [s for s in aut.states if s != aut.sink]
    letters = [(g, s) for g in gens for s in (1, -1)]
    pool = list(_code_words(aut, 2))
    pool += [_encode_word(aut, [rng.choice(letters) for _ in range(rng.randint(3, 8))])
             for _ in range(count)]
    rows = aut.core().rows
    keys = {word: _key(aut, word) for word in pool}
    by_perm = {}
    for key in keys.values():
        by_perm.setdefault(key[0][0], set()).add(key)
    held = failed = 0
    for word, own in keys.items():
        for key in by_perm[own[0][0]]:
            assert _acts_as(rows, word, *key, 0) == (key == own)
            held += key == own
            failed += key != own
    for word in pool[-3:]:
        found = _shortest(aut, word, 3)
        expected = None if found is None else _decode_word(aut, found)
        assert shortest_representative(aut, _decode_word(aut, word), 3) == expected
    return held, failed


@pytest.mark.parametrize("name", ["adding_machine", "basilica", "star3", "fig5_tree", "path_5"])
def test_walk_match_holds_exactly_when_the_keys_are_equal(name):
    held, failed = _check_acts_as(builtin_automaton(name), random.Random(name), 60)
    assert held and failed


def test_walk_match_holds_exactly_when_the_keys_are_equal_on_random_machines():
    # contracting ones only: their nuclei are also checked against the reference
    rng = random.Random(1712)
    contracting = failed = 0
    while contracting < 10:
        machine = _random_machine(rng)
        got = _outcome(nucleus, _build(machine), depth_cap=10, size_cap=40)
        if isinstance(got[0], str):
            continue
        assert got == _outcome(_reference_nucleus, _build(machine), depth_cap=10, size_cap=40)
        contracting += 1
        failed += _check_acts_as(_build(machine), rng, 20)[1]
    assert failed


@pytest.mark.parametrize("name", BUILTINS + ("cycle_5",))
def test_nucleus_words_act_as_their_own_rows(name, monkeypatch):
    # each nucleus word is matched against every row of the nucleus's table
    # with its level-one permutation, and holds at the one whose key is its own
    tables = []
    monkeypatch.setattr(selfsim.wordproblem, "_Elements", _recording_table(tables))
    aut = builtin_automaton(name)
    nuc = nucleus(aut)
    table, = tables
    perm, sec, rows = table.perm, table.sec, aut.core().rows
    ids = {_row_key(perm, sec, e): e for e in range(len(perm))}
    failed = 0
    for w in nuc:
        word = _encode_word(aut, w)
        own = ids[_key(aut, word)]
        for e in range(len(perm)):
            if perm[e] == perm[own]:
                assert _acts_as(rows, word, perm, sec, e) == (e == own)
                failed += e != own
    assert len(ids) == len(nuc) and failed


# -- the reducibility scan's chain walk ----------------------------------------------

def _reference_check_reducible(aut, max_len, max_depth):
    """check_reducible with the recursive chain walk and frozenset paths."""
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    unresolved, scanned, max_chain = [], 0, 0
    for ls in _code_words(aut, max_len, include_empty=False):
        scanned += 1
        target = len(ls)
        fixed = [x for x in letters if _step_word(rows, ls, x)[0] == x]
        if not fixed:
            continue
        safe, deep = set(), False

        def descend(wl, path, depth):
            nonlocal max_chain, deep
            max_chain = max(max_chain, depth)
            if depth > max_depth:
                deep = True
                return True
            for x in letters:
                y, r = _step_word(rows, wl, x)
                if y != x or len(r) < target:
                    continue
                if r in path:
                    return False
                if r in safe:
                    continue
                if not descend(r, path | {r}, depth + 1):
                    return False
                safe.add(r)
            return True

        if not descend(ls, frozenset((ls,)), 0):
            return ReducibilityReport("Counterexample",
                                      (_decode_word(aut, ls), aut.alphabet[fixed[0]]),
                                      (), scanned, max_chain)
        if deep:
            unresolved.append(_decode_word(aut, ls))
    if unresolved:
        return ReducibilityReport("Inconclusive", None, tuple(unresolved), scanned, max_chain)
    return ReducibilityReport("Pass", None, (), scanned, max_chain)


def test_chain_walk_matches_the_recursive_walk():
    rng = random.Random(99)
    machines = [builtin_automaton(name) for name in ("star3", "basilica", "non_reducible_demo")]
    machines += [_build(_random_machine(rng)) for _ in range(150)]
    statuses = set()
    for aut in machines:
        for max_len, max_depth in ((3, 0), (3, 1), (4, 6)):
            report = check_reducible(aut, max_len, max_depth)
            assert report == _reference_check_reducible(aut, max_len, max_depth)
            statuses.add(report.status)
    assert statuses == {"Pass", "Counterexample", "Inconclusive"}


def test_sweep_scan_matches_the_reference_scan():
    # the sweep skips the walk for words whose fixed letters all shorten at once,
    # and max_depth < 0 still leaves every word that fixes a letter unresolved;
    # at (5, 4) most random machines give a Counterexample, whose words_scanned
    # is the word's place in the sweep
    rng = random.Random(7)
    machines = [builtin_automaton(name) for name in ("star3", "basilica", "non_reducible_demo")]
    machines += [_build(_random_machine(rng)) for _ in range(40)]
    statuses = set()
    for aut in machines:
        report = check_reducible(aut, 3, -1)
        assert report == _reference_check_reducible(aut, 3, -1)
        statuses.add(report.status)
    assert "Inconclusive" in statuses
    statuses = set()
    for aut in machines[3:]:
        report = check_reducible(aut, 5, 4)
        assert report == _reference_check_reducible(aut, 5, 4)
        statuses.add(report.status)
    assert statuses == {"Pass", "Counterexample"}
    for name in ("star3", "basilica"):
        aut = builtin_automaton(name)
        assert check_reducible(aut, 5, 8) == _reference_check_reducible(aut, 5, 8)


def test_scan_steps_are_bounded_by_the_sweep_states(monkeypatch):
    # fig5 at (6, 8) sweeps 664,300 words; the scan steps each (value, last letter)
    # state once per letter that may follow it, and lists no word, as none is walked
    sweeps = []

    def counting(letters, inverse, max_len, start, step, hit):
        steps, states = [0], {(start, None)}

        def counted(value, letter):
            steps[0] += 1
            after = step(value, letter)
            states.add((after, letter))
            return after

        listed = list(_hit_sweep(letters, inverse, max_len, start, counted, hit))
        sweeps.append((steps[0], len(states), len(letters), len(listed)))
        return iter(listed)

    monkeypatch.setattr(selfsim.wordproblem, "_hit_sweep", counting)
    report = check_reducible(builtin_automaton("fig5_tree"), 6, 8)
    assert report == ReducibilityReport("Pass", None, (), 664_300, 0)
    (steps, states, width, listed), = sweeps
    assert steps <= states * width
    assert steps < 664_300 // 20
    assert listed == 0


def test_chain_walk_is_iterative():
    # s_i restricts to s_(i+1) at the one letter; the last state goes to the sink
    n = 3000
    states = ["s%d" % i for i in range(n)] + [SINK]
    records = [(states[i], "0", states[i + 1], "0") for i in range(n)]
    records.append((SINK, "0", SINK, "0"))
    aut = make_automaton(states, ["0"], records, sink=SINK)
    assert check_reducible(aut, 1, 5000) == ReducibilityReport("Pass", None, (), 2 * n, n - 1)


# -- the Aleshin machine -------------------------------------------------------------

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
    return u


def test_aleshin_is_not_contracting():
    start = time.perf_counter()
    with pytest.raises(NotContractingWithinCaps):
        nucleus(builtin_automaton("aleshin"))
    assert time.perf_counter() - start < 30


def test_aleshin_closure_agrees_with_the_action():
    aut = builtin_automaton("aleshin")
    level = [u for k in range(7) for u in itertools.product(aut.alphabet, repeat=k)]
    letters = [(g, s) for g in aut.states for s in (1, -1)]
    rng = random.Random(3)
    verdicts = set()
    for _ in range(120):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.25:
            half = w[:3]
            w = half + [(g, -s) for g, s in reversed(half)]
        moved = next((u for u in level if _reference_apply(aut, w, u) != u), None)
        verdict = is_identity(aut, w)
        verdicts.add(verdict.decision)
        if verdict.identity:
            assert moved is None
        elif moved is None:
            assert len(verdict.witness) > 6
        else:
            # the closure witness is a shortest moved word, as is the first moved word
            assert len(verdict.witness) == len(moved)
            assert _reference_apply(aut, w, verdict.witness) != verdict.witness
    assert verdicts == {"Identity", "NonIdentity"}


def test_aleshin_is_free_up_to_length_five():
    aut = builtin_automaton("aleshin")
    for w in iter_reduced_words(aut.states, 5, include_empty=False):
        assert not is_identity(aut, w).identity
