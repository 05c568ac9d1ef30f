import itertools
import random
from collections import deque

import pytest

from selfsim import (
    bisimulation_classes,
    bisimulation_quotient,
    builtin_automaton,
    disjoint_union,
    dual,
    dump_automaton,
    enriched_dual,
    inverse,
    inverse_symbol,
    is_bounded,
    is_invertible,
    is_reduced,
    load_automaton,
    make_automaton,
    power,
    to_dot,
)
from selfsim.errors import (
    AlphabetMismatch,
    BadPower,
    BadSink,
    DuplicateTransition,
    FormatError,
    MissingTransition,
    NoSink,
    NotInvertible,
)
from selfsim.mealy import MealyAutomaton, _trim

STAR_RECORDS = [
    ("a", "0", "a", "1"), ("a", "1", "id", "0"), ("a", "2", "id", "2"), ("a", "3", "id", "3"),
    ("b", "0", "b", "2"), ("b", "1", "id", "1"), ("b", "2", "id", "0"), ("b", "3", "id", "3"),
    ("c", "0", "c", "3"), ("c", "1", "id", "1"), ("c", "2", "id", "2"), ("c", "3", "id", "0"),
    ("id", "0", "id", "0"), ("id", "1", "id", "1"), ("id", "2", "id", "2"), ("id", "3", "id", "3"),
]


def make_star():
    return make_automaton("a b c id".split(), "0 1 2 3".split(), STAR_RECORDS, sink="id")


def make_identity_automaton():
    return make_automaton(["id"], ["0", "1"],
                          [("id", "0", "id", "0"), ("id", "1", "id", "1")], sink="id")


def with_sink(aut, sink):
    """The same table with a different declared sink (validated)."""
    return make_automaton(aut.states, aut.alphabet, aut.transitions(), sink=sink)


def test_inequality_follows_equality(star):
    assert not make_star() != star
    changed = [("a", "2", "a", "2") if r == ("a", "2", "id", "2") else r for r in STAR_RECORDS]
    assert make_automaton(star.states, star.alphabet, changed, sink="id") != star
    assert star != "star3" and not star == "star3"


def test_make_star_is_valid_and_invertible(star):
    assert star == make_star()
    assert is_invertible(star)
    assert star.sink == "id"


def test_identity_automaton_acts_trivially():
    ident = make_identity_automaton()
    assert is_invertible(ident)
    for x in ident.alphabet:
        assert ident.out("id", x) == x
        assert ident.next("id", x) == "id"


def test_missing_transition_rejected():
    records = [r for r in STAR_RECORDS if r[:2] != ("a", "1")]
    with pytest.raises(MissingTransition):
        make_automaton("a b c id".split(), "0 1 2 3".split(), records, sink="id")


def test_duplicate_transition_rejected():
    with pytest.raises(DuplicateTransition):
        make_automaton("a b c id".split(), "0 1 2 3".split(),
                       STAR_RECORDS + [("a", "0", "id", "0")], sink="id")


def test_bad_sink_rejected():
    records = [("s", "0", "s", "1"), ("s", "1", "s", "0")]
    with pytest.raises(BadSink):
        make_automaton(["s"], ["0", "1"], records, sink="s")


def test_non_invertible_row_detected():
    aut = make_automaton(["s", "id"], ["0", "1"],
                         [("s", "0", "id", "0"), ("s", "1", "id", "0"),
                          ("id", "0", "id", "0"), ("id", "1", "id", "1")], sink="id")
    assert not is_invertible(aut)
    with pytest.raises(NotInvertible):
        inverse(aut)


def test_adding_machine_invertible(adding):
    assert is_invertible(adding)


def test_inverse_of_star_state_a(star):
    inv = inverse(star)
    a_inv = inverse_symbol("a")
    # a: 0|1 -> a becomes a^-1: 1|0 -> a^-1
    assert inv.out(a_inv, "1") == "0"
    assert inv.next(a_inv, "1") == a_inv
    assert inv.out(a_inv, "0") == "1"
    assert inv.next(a_inv, "0") == inverse_symbol("id")
    assert inv.sink == inverse_symbol("id")


def test_inverse_is_involutive(star, adding):
    for aut in (star, adding):
        assert inverse(inverse(aut)) == aut


def test_inverse_of_identity_automaton_is_itself_up_to_renaming():
    ident = make_identity_automaton()
    inv = inverse(ident)
    assert [(inverse_symbol(s), x, inverse_symbol(t), y) for s, x, t, y in ident.transitions()] \
        == list(inv.transitions())


def test_disjoint_union_star_with_inverse(star):
    union = disjoint_union(star, inverse(star))
    assert len(union.states) == 8
    # two sink-law states, not merged
    sinks = [s for s in union.states
             if all(union.out(s, x) == x and union.next(s, x) == s for x in union.alphabet)]
    assert len(sinks) == 2
    assert union.sink == "id"


def test_disjoint_union_with_itself():
    one = make_identity_automaton()
    union = disjoint_union(one, one)
    assert len(union.states) == 2
    rows = [tuple((union.out(s, x), x) for x in union.alphabet) for s in union.states]
    assert rows[0] == rows[1]


def test_disjoint_union_alphabet_mismatch(star, adding):
    with pytest.raises(AlphabetMismatch):
        disjoint_union(star, adding)


FIG3_ROWS = {
    ("0", "a"): ("1", "a"), ("0", "b"): ("2", "b"), ("0", "c"): ("3", "c"), ("0", "id"): ("0", "id"),
    ("1", "a"): ("0", "id"), ("1", "b"): ("1", "id"), ("1", "c"): ("1", "id"), ("1", "id"): ("1", "id"),
    ("2", "a"): ("2", "id"), ("2", "b"): ("0", "id"), ("2", "c"): ("2", "id"), ("2", "id"): ("2", "id"),
    ("3", "a"): ("3", "id"), ("3", "b"): ("3", "id"), ("3", "c"): ("0", "id"), ("3", "id"): ("3", "id"),
}


def test_dual_of_star_matches_fig3(star):
    d = dual(star)
    assert d.states == ("0", "1", "2", "3")
    assert d.alphabet == ("a", "b", "c", "id")
    for (x, s), (nxt, out) in FIG3_ROWS.items():
        assert d.next(x, s) == nxt
        assert d.out(x, s) == out
    assert d.sink is None


def test_dual_of_identity_automaton():
    d = dual(make_identity_automaton())
    for x in ("0", "1"):
        assert d.next(x, "id") == x
        assert d.out(x, "id") == "id"


def test_dual_is_involutive(star, adding, basilica):
    # the dual declares no sink, so compare after redeclaring it
    for aut in (star, adding, basilica):
        assert with_sink(dual(dual(aut)), aut.sink) == aut


def test_enriched_dual_matches_definition(star):
    ed = enriched_dual(star)
    assert ed == dual(disjoint_union(star, inverse(star)))
    assert len(ed.states) == 4
    assert len(ed.alphabet) == 2 * len(star.states)
    assert ed.alphabet == star.states + tuple(inverse_symbol(s) for s in star.states)


def test_enriched_dual_fig4_arcs(star):
    ed = enriched_dual(star)
    a_inv = inverse_symbol("a")
    assert (ed.next("0", "a"), ed.out("0", "a")) == ("1", "a")
    assert (ed.next("0", a_inv), ed.out("0", a_inv)) == ("1", inverse_symbol("id"))
    assert (ed.next("1", "a"), ed.out("1", "a")) == ("0", "id")
    assert (ed.next("1", a_inv), ed.out("1", a_inv)) == ("0", a_inv)


def test_enriched_dual_of_identity_automaton():
    ed = enriched_dual(make_identity_automaton())
    for x in ("0", "1"):
        assert ed.next(x, "id") == x and ed.out(x, "id") == "id"
        assert ed.next(x, inverse_symbol("id")) == x
        assert ed.out(x, inverse_symbol("id")) == inverse_symbol("id")


def test_power_one_is_star_with_wrapped_states(star):
    p = power(star, 1)
    assert p.states == tuple((s,) for s in star.states)
    for s, x, t, y in star.transitions():
        assert p.next((s,), x) == (t,)
        assert p.out((s,), x) == y


def test_power_two_composes_left_to_right(star):
    p = power(star, 2)
    # a then b on 0: a outputs 1 and stays, b on 1 dies to the sink keeping 1
    assert p.out(("a", "b"), "0") == "1"
    assert p.next(("a", "b"), "0") == ("a", "id")


def test_power_state_count(star):
    assert len(power(star, 3).states) == len(star.states) ** 3


def test_power_rejects_bad_exponent(star):
    with pytest.raises(BadPower):
        power(star, 0)


def test_power_cap_is_decided_without_the_full_power(basilica):
    # 3^(10^9) is never computed; the message is the one for two or more states
    with pytest.raises(BadPower, match=r"^power automaton would have 3\^1000000000 states$"):
        power(basilica, 10 ** 9)


def test_huge_power_is_refused_with_its_digit_count(fig5):
    # str() refuses an int of more than 4300 digits, so the messages give the count
    with pytest.raises(BadPower, match=r"^power automaton would have 6\^<5001-digit number> states$"):
        power(fig5, 10 ** 5000)
    with pytest.raises(BadPower, match="^power requires an integer n >= 1, got -<5001-digit number>$"):
        power(fig5, -10 ** 5000)


def test_one_state_power_is_capped():
    one = make_identity_automaton()
    assert power(one, 3).states == (("id", "id", "id"),)
    # 1^n never passes the state cap, so n itself is capped
    with pytest.raises(BadPower, match="^power 1000001 is larger than the cap 1000000$"):
        power(one, 10 ** 6 + 1)


def make_two_cycle_unbounded():
    records = [
        ("p", "0", "p", "0"), ("p", "1", "q", "1"), ("p", "2", "id", "2"),
        ("q", "0", "q", "0"), ("q", "1", "p", "1"), ("q", "2", "id", "2"),
        ("id", "0", "id", "0"), ("id", "1", "id", "1"), ("id", "2", "id", "2"),
    ]
    return make_automaton(["p", "q", "id"], ["0", "1", "2"], records, sink="id")


def test_is_bounded_on_fixtures(star, adding, basilica, fig5):
    for aut in (star, adding, basilica, fig5):
        assert is_bounded(aut)
    assert is_bounded(make_identity_automaton())


def test_two_interlocking_cycles_unbounded():
    assert not is_bounded(make_two_cycle_unbounded())


def test_path_joining_two_cycles_unbounded():
    # each cyclic component is one simple cycle, but a -> b joins them, so the
    # sink-avoiding paths a^i b^(n-i) grow linearly with n
    records = [
        ("a", "0", "a", "0"), ("a", "1", "b", "1"),
        ("b", "0", "b", "1"), ("b", "1", "id", "0"),
        ("id", "0", "id", "0"), ("id", "1", "id", "1"),
    ]
    aut = make_automaton(["a", "b", "id"], ["0", "1"], records, sink="id")
    assert not is_bounded(aut)
    assert [sink_avoiding_path_count(aut, n) for n in range(6)] == [n + 2 for n in range(6)]


def test_is_bounded_requires_sink(star):
    with pytest.raises(NoSink):
        is_bounded(dual(star))


def _reach(succ, v):
    """The nodes reached from v by a path of one or more arcs."""
    seen, stack = set(), list(succ[v])
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(succ[t])
    return seen


def _mutual_components(nodes, succ):
    """Strongly connected components by mutual reachability, for the references.

    Returns the component of each node, the member lists and the indices of
    the cyclic components, whose members reach themselves.
    """
    reach = {v: _reach(succ, v) for v in nodes}
    comp, comps = {}, []
    for v in nodes:
        if v not in comp:
            members = [u for u in nodes if u == v or u in reach[v] and v in reach[u]]
            for u in members:
                comp[u] = len(comps)
            comps.append(members)
    cyclic = [ci for ci, members in enumerate(comps) if members[0] in reach[members[0]]]
    return comp, comps, cyclic


def _reference_is_bounded(aut):
    """is_bounded by condensation reachability: a search from each cyclic component."""
    nodes = [s for s in aut.states if s != aut.sink]
    edges = [(s, aut.next(s, x)) for s in nodes for x in aut.alphabet
             if aut.next(s, x) != aut.sink]
    succ = {n: [] for n in nodes}
    for s, t in edges:
        succ[s].append(t)
    comp, comps, cyclic = _mutual_components(nodes, succ)
    for ci in cyclic:
        for v in comps[ci]:
            if sum(1 for t in succ[v] if comp[t] == ci) != 1:
                return False
    comp_succ = {i: set() for i in range(len(comps))}
    for s, t in edges:
        if comp[s] != comp[t]:
            comp_succ[comp[s]].add(comp[t])
    for start in cyclic:
        seen = set()
        queue = deque(comp_succ[start])
        while queue:
            ci = queue.popleft()
            if ci in seen:
                continue
            seen.add(ci)
            if ci in cyclic:
                return False
            queue.extend(comp_succ[ci])
    return True


def _random_sink_machine(rng):
    """1-7 states and a sink over 2-3 copying letters; many arrows go to the sink."""
    states = ["q%d" % i for i in range(rng.randint(1, 7))]
    alphabet = [str(x) for x in range(rng.randint(2, 3))]
    to_sink = rng.uniform(0.3, 0.8)
    records = [(s, x, "e" if rng.random() < to_sink else rng.choice(states), x)
               for s in states for x in alphabet]
    records += [("e", x, "e", x) for x in alphabet]
    return make_automaton(states + ["e"], alphabet, records, sink="e")


def test_is_bounded_matches_the_condensation_search():
    # a trim of one side only, keeping the states below a cycle, fails this test
    rng = random.Random(1984)
    unbounded = apart = 0                # apart: bounded, with several cyclic components
    for _ in range(20000):
        aut = _random_sink_machine(rng)
        bounded = is_bounded(aut)
        assert bounded == _reference_is_bounded(aut)
        unbounded += not bounded
        nodes = [s for s in aut.states if s != aut.sink]
        succ = {s: [aut.next(s, x) for x in aut.alphabet if aut.next(s, x) != aut.sink]
                for s in nodes}
        apart += bounded and len(_mutual_components(nodes, succ)[2]) > 1
    assert unbounded > 3000 and apart > 500


def test_trim_matches_reachability():
    # v is on or below a cycle iff some u with u in reach+(u) has v = u or v
    # in reach+(u); on or above one iff v = u or u in reach+(v).  A trim that
    # deletes the nodes with no arc in once, without repeating, fails this test
    rng = random.Random(2000)
    proper = 0                           # cases where each trim keeps some nodes and drops some
    for _ in range(3000):
        nodes = ["v%d" % i for i in range(rng.randint(1, 12))]
        rng.shuffle(nodes)
        targets = nodes + ["w0", "w1"]   # w0 and w1 lie outside node_set
        succ = {v: [rng.choice(targets) for _ in range(rng.randint(0, 3))] for v in nodes}
        for v in nodes:
            if succ[v] and rng.random() < 0.2:
                succ[v].append(succ[v][0])       # a repeated arc
            if rng.random() < 0.1:
                succ[v].append(v)                # a self-loop
        node_set = set(nodes)
        inner = {v: [t for t in succ[v] if t in node_set] for v in nodes}
        reach = {v: _reach(inner, v) for v in nodes}
        cyclic = [u for u in nodes if u in reach[u]]
        below = [v for v in nodes if any(v == u or v in reach[u] for u in cyclic)]
        both = [v for v in below if any(v == u or u in reach[v] for u in cyclic)]
        assert _trim(nodes, inner) == below
        assert _trim(nodes, inner, both=True) == both
        proper += 0 < len(both) < len(below) < len(nodes)
    assert proper > 1000


def sink_avoiding_path_count(aut, n):
    """Reference growth oracle for is_bounded: length-n paths avoiding the sink."""
    nodes = [s for s in aut.states if s != aut.sink]
    counts = {s: 1 for s in nodes}
    for _ in range(n):
        nxt = {s: 0 for s in nodes}
        for s in nodes:
            for x in aut.alphabet:
                t = aut.next(s, x)
                if t != aut.sink:
                    nxt[t] += counts[s]
        counts = nxt
    return sum(counts.values())


def test_path_count_cross_check(star, basilica):
    # bounded fixtures: counts show no growth over depth 12
    for aut in (star, basilica):
        counts = [sink_avoiding_path_count(aut, n) for n in range(1, 13)]
        assert max(counts) == max(counts[:6])
    bad = make_two_cycle_unbounded()
    counts = [sink_avoiding_path_count(bad, n) for n in range(1, 13)]
    assert counts[-1] > counts[0]


def test_bisimulation_star_all_distinct(star):
    assert bisimulation_classes(star) == (("a",), ("b",), ("c",), ("id",))
    assert is_reduced(star)


def test_bisimulation_pairs_duplicates(star):
    union = disjoint_union(star, star)
    classes = bisimulation_classes(union)
    assert all(len(cls) == 2 for cls in classes)
    assert not is_reduced(union)


def test_bisimulation_identity_automaton_single_class():
    aut = make_identity_automaton()
    assert bisimulation_classes(aut) == (("id",),)


def test_bisimulation_quotient_idempotent(star):
    union = disjoint_union(star, star)
    q = bisimulation_quotient(union)
    assert is_reduced(q)
    assert q == bisimulation_quotient(q)


def test_to_dot_contains_edges_and_is_deterministic(star):
    text = to_dot(star)
    assert '"a" -> "a" [label="0|1"];' in text
    assert '"id" [shape=doublecircle];' in text
    assert text == to_dot(builtin_automaton("star3"))


def test_to_dot_identity_automaton_self_loops():
    text = to_dot(make_identity_automaton())
    assert text.count('"id" -> "id"') == 2


def test_dump_load_round_trip(star, adding, basilica):
    for aut in (star, adding, basilica):
        assert load_automaton(dump_automaton(aut)) == aut


def test_load_rejects_unknown_field():
    text = dump_automaton(make_identity_automaton()) + "color: blue\n"
    with pytest.raises(FormatError):
        load_automaton(text)


def test_transition_keys_outside_states_x_alphabet_are_refused(basilica):
    # an extra output key made a machine unequal to basilica that hashed equal to it
    next_map = {(s, x): basilica.next(s, x) for s in basilica.states for x in basilica.alphabet}
    out_map = {(s, x): basilica.out(s, x) for s in basilica.states for x in basilica.alphabet}
    args = basilica.states, basilica.alphabet
    assert MealyAutomaton(*args, next_map, out_map, sink=basilica.sink) == basilica
    for maps in (({**next_map, ("zz", "0"): "a"}, out_map),
                 (next_map, {**out_map, ("zz", "0"): "0"})):
        with pytest.raises(FormatError, match="outside states x alphabet"):
            MealyAutomaton(*args, *maps, sink=basilica.sink)


def test_load_rejects_bad_lines():
    with pytest.raises(FormatError):
        load_automaton("states: a\nalphabet: 0\njust some text\n")
    with pytest.raises(FormatError):
        load_automaton("alphabet: 0\ntransition: a 0 a 0\n")


def test_power_action_matches_sequential_composition(star):
    # reading one letter through (s1, s2) equals acting with s1 then s2
    p = power(star, 2)
    for s1, s2 in itertools.product(star.states, repeat=2):
        for x in star.alphabet:
            y1 = star.out(s1, x)
            assert p.out((s1, s2), x) == star.out(s2, y1)
            assert p.next((s1, s2), x) == (star.next(s1, x), star.next(s2, y1))


def test_power_three_matches_word_action(star):
    from selfsim import apply_word, restrict_word, parse_word
    p = power(star, 3)
    for tup in itertools.product(star.states, repeat=3):
        word = [(s, 1) for s in tup if s != star.sink]
        for x in star.alphabet:
            assert (p.out(tup, x),) == apply_word(star, word, (x,))
            residual = tuple(s for s in p.next(tup, x) if s != star.sink)
            expected = restrict_word(star, word, (x,))
            # the unreduced residual tuple reduces to the word residual
            assert parse_word(" ".join(residual), star) == expected


# -- algebraic laws on seeded random machines -------------------------------------------

def _random_machine(rng):
    """2-3 letters, 1-5 states and a copy state e; sometimes not invertible, sometimes no sink."""
    alphabet = [str(i) for i in range(rng.randint(2, 3))]
    states = ["s%d" % i for i in range(rng.randint(1, 5))] + ["e"]
    invertible = rng.random() < 0.7
    records = [("e", x, "e", x) for x in alphabet]
    for s in states[:-1]:
        outputs = (rng.sample(alphabet, len(alphabet)) if invertible
                   else [rng.choice(alphabet) for _ in alphabet])
        records += [(s, x, rng.choice(states), y) for x, y in zip(alphabet, outputs)]
    sink = "e" if rng.random() < 0.7 else None
    return make_automaton(states, alphabet, records, sink=sink)


def _random_machines(seed, count=300):
    rng = random.Random(seed)
    return [_random_machine(rng) for _ in range(count)]


def _output(aut, state, u):
    """Output word of `state` on the input word u, read from the transition table."""
    image = []
    for x in u:
        image.append(aut.out(state, x))
        state = aut.next(state, x)
    return tuple(image)


def test_dual_of_dual_is_the_machine():
    for aut in _random_machines(101):
        assert with_sink(dual(dual(aut)), aut.sink) == aut


def test_inverse_of_inverse_is_the_machine():
    inverted = 0
    for aut in _random_machines(102):
        if not aut.invertible:
            with pytest.raises(NotInvertible):
                inverse(aut)
            continue
        assert inverse(inverse(aut)) == aut
        inverted += 1
    assert 0 < inverted < 300


def test_load_of_dump_is_the_machine():
    for aut in _random_machines(103):
        for machine in (aut, dual(aut)):
            assert load_automaton(dump_automaton(machine)) == machine


def test_bisimulation_quotient_acts_like_the_machine():
    merged = 0
    for aut in _random_machines(104):
        quotient = bisimulation_quotient(aut)
        merged += len(quotient.states) < len(aut.states)
        words = [u for k in range(4) for u in itertools.product(aut.alphabet, repeat=k)]
        for cls in bisimulation_classes(aut):
            assert cls[0] in quotient.states
            for s in cls:
                for u in words:
                    assert _output(aut, s, u) == _output(quotient, cls[0], u)
    assert merged > 0
