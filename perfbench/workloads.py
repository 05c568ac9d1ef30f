"""Seeded inputs, operation lists and answer checks of the three workloads.

`build(name, seed, workdir, launcher)` returns a `Workload`: the operations of one
pass, each a call into one public function of selfsim or one CLI
invocation, and for each operation a check that runs after timing.  A
check returns the answer in a canonical, JSON-able form or raises `Wrong`.
Checks use automata of their own that the timed calls never touch, so a
memo filled by the timed calls cannot vouch for its own answers.
"""

import functools
import itertools
import math
import os
import random
import sys
import time

from selfsim import (
    FiniteAction,
    GroupWord,
    apply_word,
    build_reducible_automaton,
    builtin,
    builtin_automaton,
    check_reducible,
    commutator,
    dichotomy,
    dual_path,
    dump_action,
    elements_equal,
    embed_in_product,
    equivalent,
    exponent_sums,
    format_word,
    fragile_index,
    fragile_member,
    is_identity,
    normal_form,
    nucleus,
    parse_word,
    presentation_from_tree,
    projections_equal,
    restrict_word,
    semigroup_eq_via_action,
    stabilizes_level,
    sym_quotient_order,
    trace_word,
    verify_loop_shortening,
    wp_fragile,
    wreath,
)
from selfsim.action import iter_level_words, iter_reduced_words

CLI_CALL_TIMEOUT_S = 20.0

# Edges of fig5_tree that share no endpoint; their commutators are identities.
FIG5_NON_INCIDENT = (("e1", "e5"), ("e2", "e4"), ("e2", "e5"), ("e3", "e4"), ("e3", "e5"))


class Wrong(Exception):
    """An answer that failed its check."""


class Workload:
    """The ops of one pass, plus the fixture build time and exact counters it keeps.

    Each op is a plain tuple (span, fn, args, check, check_args, fixed),
    cheap enough to build by the hundred thousand:

    * the timed call is `fn(*args)`, and `check(result, *check_args)`
      judges it afterwards; an op that raises has failed;
    * `span` names the layer the call enters; the traced run sums op
      times per span;
    * `fixed` marks ops whose input does not depend on the seed, so their
      answers enter the seed-independent fingerprint.
    """

    def __init__(self):
        self.ops = []
        self.build_s = 0.0     # time spent building fixture automata in set-up
        self.counters = {}     # exact counts filled in by the checks
        self.automata = []     # automata the timed ops use (their memos are read after)

    def add(self, span, fn, args, check, check_args=(), fixed=False):
        self.ops.append((span, fn, args, check, check_args, fixed))

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def fixture(self, name):
        """A fresh fixture automaton; its build time adds to `build_s`."""
        t0 = time.perf_counter()
        aut = builtin_automaton(name)
        self.build_s += time.perf_counter() - t0
        self.automata.append(aut)
        return aut


def gens_of(aut):
    return [s for s in aut.states if s != aut.sink]


def random_word(rng, pool, length):
    """A freely reduced word of exactly `length` letters over `pool`."""
    letters = []
    while len(letters) < length:
        letter = (rng.choice(pool), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return tuple(letters)


def planted_identity(rng, aut, conj_len):
    """g [e, f] g^-1 for a random non-incident edge pair of fig5_tree."""
    e, f = rng.choice(FIG5_NON_INCIDENT)
    g = GroupWord(random_word(rng, gens_of(aut), conj_len))
    return (g * commutator(GroupWord(((e, 1),)), GroupWord(((f, 1),))) * g.inverse()).letters


@functools.lru_cache(maxsize=None)
def transition_tables(aut):
    """(state, input) -> (next, output) and (state, output) -> (next, input)."""
    forward, backward = {}, {}
    for state, x, nxt, y in aut.transitions():
        forward[state, x] = (nxt, y)
        backward[state, y] = (nxt, x)
    return forward, backward


def ref_apply(aut, letters, u):
    """Image of u under a signed state word, computed from the transition tables.

    Applies one generator at a time to the whole input word; it shares no
    code with the library's residual stepping.
    """
    forward, backward = transition_tables(aut)
    u = tuple(u)
    for g, sign in letters:
        table = forward if sign > 0 else backward
        q, image = g, []
        for x in u:
            q, y = table[q, x]
            image.append(y)
        u = tuple(image)
    return u


def check_closure_verdict(ref, letters, verdict):
    """Witness moved by the action, or certificate closed under residuals."""
    if verdict.identity:
        cert = set(verdict.certificate)
        if GroupWord(letters) not in cert:
            raise Wrong("certificate misses the word itself")
        for word in verdict.certificate:
            rep = wreath(ref, word)
            if any(rep.perm[x] != x for x in ref.alphabet):
                raise Wrong("certificate word %s moves a letter" % format_word(word))
            if any(sec not in cert for sec in rep.sections.values()):
                raise Wrong("certificate of %s is not closed under residuals"
                            % format_word(letters))
        if any(exponent_sums(letters, gens_of(ref))):
            raise Wrong("identity %s has a nonzero exponent sum" % format_word(letters))
        return ["I", len(verdict.certificate)]
    witness = verdict.witness
    if witness is None or ref_apply(ref, letters, witness) == tuple(witness):
        raise Wrong("witness %r is not moved by %s" % (witness, format_word(letters)))
    return ["N", list(witness)]


# -- closure ---------------------------------------------------------------

def build_closure(seed):
    """All reduced fig5_tree words of length <= 5, planted identities, re-queries."""
    wl = Workload()
    rng = random.Random(seed)
    aut = wl.fixture("fig5_tree")
    core = list(iter_reduced_words(gens_of(aut), 5))
    planted = []
    seen = set(core)
    while len(planted) < 400:
        letters = planted_identity(rng, aut, rng.randrange(2, 9))
        if letters not in seen:
            seen.add(letters)
            planted.append(letters)
    asked = core + planted
    requery = [asked[rng.randrange(len(asked))] for _ in range(20_000)]

    ref = builtin_automaton("fig5_tree")
    first = {}

    def record(value):
        if value[0] == "I":
            wl.count("wordproblem.identity_queries")
            wl.count("wordproblem.closure_residuals", value[1])
        return value

    def check_first(verdict, letters, must_be_identity):
        value = check_closure_verdict(ref, letters, verdict)
        if must_be_identity and value[0] != "I":
            raise Wrong("planted identity %s decided %s"
                        % (format_word(letters), verdict.decision))
        first[letters] = value
        return record(value)

    def check_again(verdict, letters):
        value = ["I", len(verdict.certificate)] if verdict.identity \
            else ["N", list(verdict.witness)]
        if value != first[letters]:
            raise Wrong("re-query of %s changed its answer" % format_word(letters))
        return record(value)

    for letters in core:
        wl.add("wordproblem.is_identity", is_identity, (aut, letters), check_first,
               (letters, False), fixed=True)
    for letters in planted:
        wl.add("wordproblem.is_identity", is_identity, (aut, letters), check_first,
               (letters, True))
    for letters in requery:
        wl.add("wordproblem.requery", is_identity, (aut, letters), check_again, (letters,))
    return wl


# -- structure ---------------------------------------------------------------

def factorial_check(n):
    def check(order):
        if order != math.factorial(n):
            raise Wrong("level-one quotient order %d, expected %d!" % (order, n))
        return order
    return check


def reduced_word_count(aut, max_len):
    """Number of nonempty freely reduced words of length <= max_len over the states."""
    k = 2 * len(gens_of(aut))
    return sum(k * (k - 1) ** (n - 1) for n in range(1, max_len + 1))


def reducible_check(aut, max_len, status, counterexample=None):
    words = reduced_word_count(aut, max_len)

    def check(rep):
        if rep.status != status:
            raise Wrong("check_reducible gave %s, expected %s" % (rep.status, status))
        if status == "Pass" and rep.words_scanned != words:
            raise Wrong("check_reducible scanned %d words, expected %d"
                        % (rep.words_scanned, words))
        if counterexample is not None and (
                format_word(rep.counterexample[0]), rep.counterexample[1]) != counterexample:
            raise Wrong("unexpected counterexample %r" % (rep.counterexample,))
        return [rep.status, rep.words_scanned, rep.max_chain]
    return check


def seeded_action(rng, degree):
    """Two random permutations of 0..degree-1 that together act transitively."""
    while True:
        perms = {}
        for name in ("a", "b"):
            images = list(range(degree))
            rng.shuffle(images)
            perms[name] = tuple(images)
        orbit, frontier = {0}, [0]
        while frontier:
            p = frontier.pop()
            for images in perms.values():
                if images[p] not in orbit:
                    orbit.add(images[p])
                    frontier.append(images[p])
        if len(orbit) == degree:
            return FiniteAction(["a", "b"], degree, perms)


def loops_check(aut, max_len):
    walks = reduced_word_count(aut, max_len) * len(aut.alphabet)   # every word from every coset

    def check(rep):
        if rep.status != "Pass" or rep.words_checked != walks:
            raise Wrong("loop shortening: %s after %d walks, expected Pass after %d"
                        % (rep.status, rep.words_checked, walks))
        return [rep.status, rep.words_checked]
    return check


def build_structure(seed):
    """Level recursion, nucleus, reducibility, quotients, traces and coset machines."""
    wl = Workload()
    rng = random.Random(seed)
    star, fig5 = wl.fixture("star3"), wl.fixture("fig5_tree")
    refs = {"star3": builtin_automaton("star3"), "fig5_tree": builtin_automaton("fig5_tree")}

    # level-wise word problem; fragile and closure verdicts must agree
    def fragile_check(name, letters):
        def check(verdict):
            ref = refs[name]
            truth = is_identity(ref, letters)
            if verdict.decision != truth.decision:
                raise Wrong("wp_fragile says %s, closure says %s for %s"
                            % (verdict.decision, truth.decision, format_word(letters)))
            if verdict.witness is not None and \
                    ref_apply(ref, letters, verdict.witness) == verdict.witness:
                raise Wrong("fragile witness is not moved")
            return [verdict.decision, list(verdict.witness or verdict.certificate or ())]
        return check

    # Op counts and shapes are chosen so that the median op falls inside the
    # block of planted identities below and the 90th percentile inside the
    # block of loop checks at the end: ops of one block cost nearly the same,
    # so the percentiles do not jump from seed to seed.
    for _ in range(96):
        letters = planted_identity(rng, fig5, 3)
        wl.add("wordproblem.fragile", wp_fragile, (fig5, letters, 7),
               fragile_check("fig5_tree", letters))
    for i in range(48):
        name, aut, kmax = ("star3", star, 8) if i % 3 else ("fig5_tree", fig5, 7)
        letters = random_word(rng, gens_of(aut), 6)
        wl.add("wordproblem.fragile", wp_fragile, (aut, letters, kmax), fragile_check(name, letters))

    def index_check(letters):
        def check(k):
            ref = refs["fig5_tree"]
            if k is None or not fragile_member(ref, letters, k) or \
                    (k > 1 and fragile_member(ref, letters, k - 1)):
                raise Wrong("fragile_index %r is not the least membership level" % (k,))
            return k
        return check

    for _ in range(16):
        letters = planted_identity(rng, fig5, 3)
        wl.add("wordproblem.fragile", fragile_index, (fig5, letters, 7), index_check(letters))

    # level stabilizers against brute force over the level
    def stab_check(name, letters, k):
        def check(result):
            ref = refs[name]
            truth = all(ref_apply(ref, letters, u) == u for u in iter_level_words(ref, k))
            if result != truth:
                raise Wrong("stabilizes_level(%s, %d) = %s" % (format_word(letters), k, result))
            return result
        return check

    for i in range(48):
        name, aut = (("star3", star), ("fig5_tree", fig5))[i % 2]
        k = 1 + (i // 2) % 3
        letters = random_word(rng, gens_of(aut), 6)
        if i % 3 == 0:
            letters = GroupWord(letters[:3] * 2).letters   # squares often fix level 1
        wl.add("action.stab", stabilizes_level, (aut, letters, k), stab_check(name, letters, k))

    def embed_check(letters, k):
        def check(components):
            ref = refs["fig5_tree"]
            level = list(iter_level_words(ref, k))
            if list(components) != level:
                raise Wrong("embed_in_product keys are not the level words")
            for u in level:
                for v in iter_level_words(ref, 1):
                    if ref_apply(ref, components[u].letters, v) != \
                            ref_apply(ref, letters, u + v)[k:]:
                        raise Wrong("component at %r does not act as the residual" % (u,))
            trivial = all(c.is_empty() for c in components.values())
            if trivial != fragile_member(ref, letters, k):
                raise Wrong("kernel law fails for %s" % format_word(letters))
            return [format_word(components[u]) for u in level]
        return check

    for i in range(12):
        if i % 2:
            letters, k = planted_identity(rng, fig5, 1 + i % 3), 2
        else:
            g = GroupWord(random_word(rng, gens_of(fig5), 1 + i % 3))
            e = GroupWord(((rng.choice(gens_of(fig5)), 1),))
            letters, k = (g * e * e * g.inverse()).letters, 1
        wl.add("action.stab", embed_in_product, (fig5, letters, k), embed_check(letters, k))

    # apply / restrict probes against the table-driven reference
    def apply_check(letters, u):
        def check(image):
            if image != ref_apply(refs["fig5_tree"], letters, u):
                raise Wrong("apply_word(%s, %r) = %r" % (format_word(letters), u, image))
            return list(image)
        return check

    def restrict_check(letters, u):
        def check(res):
            ref = refs["fig5_tree"]
            for v in iter_level_words(ref, 2):
                if ref_apply(ref, res.letters, v) != ref_apply(ref, letters, u + v)[len(u):]:
                    raise Wrong("restrict_word(%s, %r) acts wrongly on %r"
                                % (format_word(letters), u, v))
            if len(res) > len(letters):
                raise Wrong("residual is longer than the word")
            return format_word(res)
        return check

    for i in range(96):
        letters = random_word(rng, gens_of(fig5), 8)
        u = tuple(rng.choice(fig5.alphabet) for _ in range(6))
        if i % 2:
            wl.add("action.probe", apply_word, (fig5, letters, u), apply_check(letters, u))
        else:
            wl.add("action.probe", restrict_word, (fig5, letters, u), restrict_check(letters, u))

    # nucleus: closure lookups against every representative
    nucleus_sizes = {"adding_machine": 3, "basilica": 7, "star3": 13, "fig5_tree": 31}

    def nucleus_check(name):
        def check(nuc):
            ref = builtin_automaton(name)
            if len(nuc) != nucleus_sizes[name]:
                raise Wrong("nucleus of %s has %d elements, expected %d"
                            % (name, len(nuc), nucleus_sizes[name]))
            for u, v in itertools.combinations(nuc.elements, 2):
                if elements_equal(ref, u, v):
                    raise Wrong("nucleus of %s repeats an element" % name)
            for rep in nuc.elements:
                for x in ref.alphabet:
                    if nuc.perms[rep][x] != ref_apply(ref, rep.letters, (x,))[0]:
                        raise Wrong("nucleus permutation is wrong")
                    if nuc.sections[rep][x] not in nuc.perms:
                        raise Wrong("nucleus is not closed under residuals")
            wl.count("wordproblem.nucleus.size", len(nuc))
            return [format_word(rep) for rep in nuc.elements]
        return check

    for name in nucleus_sizes:
        aut = {"star3": star, "fig5_tree": fig5}.get(name) or wl.fixture(name)
        wl.add("wordproblem.nucleus", nucleus, (aut,), nucleus_check(name), fixed=True)

    # reducibility scan: statuses of the acceptance suite
    action = seeded_action(rng, 6)
    coset = build_reducible_automaton(action)
    wl.automata.append(coset)
    basilica, demo = wl.fixture("basilica"), wl.fixture("non_reducible_demo")
    for aut, max_len, depth, status, cex, fixed in (
            (star, 5, 8, "Pass", None, True),
            (fig5, 4, 8, "Pass", None, True),
            (basilica, 5, 5, "Pass", None, True),
            (demo, 3, 6, "Counterexample", ("s", "2"), True),
            (coset, 4, 8, "Pass", None, False)):
        check = reducible_check(aut, max_len, status, cex)

        def counted(rep, check=check):
            value = check(rep)
            wl.count("wordproblem.check_reducible.words_scanned", rep.words_scanned)
            return value
        wl.add("wordproblem.check_reducible", check_reducible, (aut, max_len, depth),
               counted, fixed=fixed)

    # level-one quotients: the edge transpositions generate the full symmetric group
    for name, n in (("star3", 4), ("fig5_tree", 6), ("cycle_7", 7), ("cycle_8", 8)):
        aut = {"star3": star, "fig5_tree": fig5}.get(name) or wl.fixture(name)
        wl.add("wordproblem.sym_quotient", sym_quotient_order, (aut, n), factorial_check(n),
               fixed=True)

    # trace monoid: long normal forms and the three equality oracles
    graph = builtin("fig5_tree")
    pres = presentation_from_tree(graph)
    letters = pres.letters

    def nf_check(word):
        def check(nf):
            if sorted(nf.letters) != sorted(word.erased()) or not projections_equal(nf, word):
                raise Wrong("normal form is not equivalent to its word")
            if any(pres.independent_pair(a, b) and pres.order(b) < pres.order(a)
                   for a, b in zip(nf.letters, nf.letters[1:])):
                raise Wrong("normal form is not lexicographically least")
            wl.count("tracemonoid.normal_form.letters", len(word.letters))
            return str(nf)
        return check

    for i in range(6):
        word = trace_word(pres, [rng.choice(letters) for _ in range(100 + 20 * i)])
        wl.add("tracemonoid.normal_form", normal_form, (word,), nf_check(word))

    def oracle_check(truth, span, letters_compared):
        def check(result):
            equal = result.equal if span == "tracemonoid.action_eq" else result
            if equal != truth:
                raise Wrong("%s says %s, the pair was built %s"
                            % (span, equal, "equal" if truth else "unequal"))
            if span == "tracemonoid.normal_form":
                wl.count("tracemonoid.normal_form.letters", letters_compared)
            return equal
        return check

    for i in range(4):
        length = 100 + 100 * i // 3
        base = [rng.choice(letters) for _ in range(length)]
        swapped = list(base)
        for _ in range(4 * length):
            j = rng.randrange(length - 1)
            if pres.independent_pair(swapped[j], swapped[j + 1]):
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        truth = bool(i % 2)
        if not truth:
            # swap one adjacent pair of distinct dependent letters
            j = next(j for j in range(length - 1)
                     if swapped[j] != swapped[j + 1] and pres.sink not in swapped[j:j + 2]
                     and not pres.independent_pair(swapped[j], swapped[j + 1]))
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        u, v = trace_word(pres, base), trace_word(pres, swapped)
        for span, fn, args in (("tracemonoid.normal_form", equivalent, (u, v)),
                               ("tracemonoid.projection", projections_equal, (u, v)),
                               ("tracemonoid.action_eq", semigroup_eq_via_action,
                                (fig5, u.letters, v.letters))):
            wl.add(span, fn, args, oracle_check(truth, span, 2 * length))

    # coset machines of seeded permutation actions; every check walks the
    # same number of words, so the block costs the same whatever the seed
    for _ in range(40):
        aut = build_reducible_automaton(seeded_action(rng, 5))
        wl.automata.append(aut)
        check = loops_check(aut, 4)

        def counted_loops(rep, check=check):
            value = check(rep)
            wl.count("schreier.verify_loops.words_checked", rep.words_checked)
            return value
        wl.add("schreier.verify_loops", verify_loop_shortening, (aut, 4), counted_loops)
    return wl


# -- cli ---------------------------------------------------------------------

def report_pairs(stdout):
    pairs = {}
    for line in stdout.decode("utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs.setdefault(key, value)
    return pairs


def build_cli(seed, workdir, launcher):
    """A fixed table of cold CLI calls over every listed subcommand.

    Words, trace words and the action and tuple files come from the seed.
    The calls run in `workdir` through `launcher` (see launcher.py).
    """
    wl = Workload()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    rng = random.Random(seed)
    fig5 = wl.fixture("fig5_tree")
    pres = presentation_from_tree(builtin("fig5_tree"))

    planted = format_word(planted_identity(rng, fig5, 3))
    moved = format_word(random_word(rng, gens_of(fig5), 7))
    fragile_word = format_word(planted_identity(rng, fig5, 2))
    g = GroupWord(random_word(rng, gens_of(fig5), 2))
    e = GroupWord(((rng.choice(gens_of(fig5)), 1),))
    stab_word = format_word(g * e * e * g.inverse())
    trace_u = [rng.choice(pres.letters) for _ in range(40)]
    trace_v = list(trace_u)
    for _ in range(160):
        j = rng.randrange(len(trace_v) - 1)
        if pres.independent_pair(trace_v[j], trace_v[j + 1]):
            trace_v[j], trace_v[j + 1] = trace_v[j + 1], trace_v[j]
    positive = " ".join(rng.choice(gens_of(fig5)) for _ in range(12))
    action = seeded_action(rng, 5)
    with open(os.path.join(workdir, "seeded.action"), "w", encoding="utf-8") as handle:
        handle.write(dump_action(action))
    tuples = [", ".join(format_word(random_word(rng, ["x", "y"], 1 + (i + j) % 3))
                        for j in range(2)) for i in range(4)]
    with open(os.path.join(workdir, "seeded.tuples"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(tuples) + "\n")

    u_text, v_text = " ".join(trace_u), " ".join(trace_v)

    def expect_wp(word):
        return lambda: {"decision": is_identity(builtin_automaton("fig5_tree"), word).decision}

    def expect_nf():
        return {"normal-form": str(normal_form(trace_word(pres, trace_u)))}

    def expect_dual_path():
        path = dual_path(builtin_automaton("fig5_tree"), "1", positive)
        return {"p": " ".join(path.condensed)}

    def expect_embed():
        member = fragile_member(builtin_automaton("fig5_tree"), stab_word, 1)
        return {"all-trivial": "true" if member else "false"}

    def expect_dichotomy():
        rows = [tuple(parse_word(part) for part in line.split(",")) for line in tuples]
        return {"result": dichotomy(rows).kind}

    table = [
        ("wp", ["wp", "--builtin", "fig5_tree", "-w", planted], None, expect_wp(planted), False),
        ("wp", ["wp", "--builtin", "fig5_tree", "-w", moved], None, expect_wp(moved), False),
        ("wp", ["wp", "--builtin", "fig5_tree", "-w", fragile_word, "--method", "fragile",
                "--kmax", "4"], None, lambda: {"decision": "Identity"}, False),
        ("wp", ["wp", "--builtin", "fig5_tree", "-w", "e1 e2", "--method", "fragile",
                "--kmax", "8"], "LevelTooLarge", None, True),
        ("nucleus", ["nucleus", "--builtin", "basilica"], None, lambda: {"size": "7"}, True),
        ("nucleus", ["nucleus", "--builtin", "fig5_tree", "--size-cap", "10"],
         "NotContractingWithinCaps", None, True),
        ("check-reducible", ["check-reducible", "--builtin", "star3", "--max-len", "4",
                             "--max-depth", "8"], None, lambda: {"result": "Pass"}, True),
        ("sym-quotient", ["sym-quotient", "--builtin", "fig5_tree"], None,
         lambda: {"order": "720"}, True),
        ("sym-quotient", ["sym-quotient", "--builtin", "cycle_9"], "QuotientTooLarge", None, True),
        ("trace-nf", ["trace-nf", "--builtin", "fig5_tree", "-u", u_text], None, expect_nf, False),
        ("trace-eq", ["trace-eq", "--builtin", "fig5_tree", "-u", u_text, "-v", v_text], None,
         lambda: {"equal": "true"}, False),
        ("trace-eq", ["trace-eq", "--builtin", "fig5_tree", "-u", u_text, "-v", v_text,
                      "--oracle", "projection"], None, lambda: {"equal": "true"}, False),
        ("trace-eq", ["trace-eq", "--builtin", "fig5_tree", "-u", u_text, "-v", v_text,
                      "--oracle", "action"], None, lambda: {"equal": "true"}, False),
        ("dual-path", ["dual-path", "--builtin", "fig5_tree", "-x", "1", "-u", positive],
         None, expect_dual_path, False),
        ("embed", ["embed", "--builtin", "fig5_tree", "-w", stab_word, "-k", "1"],
         None, expect_embed, False),
        ("power", ["power", "--builtin", "star3", "-n", "2"], None,
         lambda: {"states": "16"}, True),
        ("export-dot", ["export-dot", "--builtin", "basilica"], None, None, True),
        ("schreier-gen", ["schreier-gen", "--action", "seeded.action"], None,
         lambda: {"roundtrip-enriched-dual": "exact", "status": "ok"}, False),
        ("verify-loops", ["verify-loops", "--action", "seeded.action", "--max-len", "4"],
         None, lambda: {"result": "Pass"}, False),
        ("dichotomy", ["dichotomy", "--tuples", "seeded.tuples"], None, expect_dichotomy, False),
    ]

    def call_check(argv, error, expect):
        def check(outcome):
            code, stdout = outcome
            pairs = report_pairs(stdout)
            if error is not None:
                if code != 1 or pairs.get("error") != error:
                    raise Wrong("%s: expected %s, got exit %d %r"
                                % (" ".join(argv), error, code, pairs.get("error")))
                wl.count("cli.expected_errors")
            elif code != 0 or (pairs.get("status") != "ok" if argv[0] != "export-dot"
                               else not stdout.startswith(b"digraph")):
                raise Wrong("%s: exit %d, status %r" % (" ".join(argv), code, pairs.get("status")))
            for key, value in (expect() if expect else {}).items():
                if pairs.get(key) != value:
                    raise Wrong("%s: %s is %r, expected %r"
                                % (" ".join(argv), key, pairs.get(key), value))
            wl.count("cli.report_bytes", len(stdout))
            return [argv, code, stdout.decode("utf-8")]
        return check

    for sub, argv, error, expect, fixed in table:
        cmd = [sys.executable, "-m", "selfsim.cli"] + argv
        wl.add("cli." + sub, launcher.call, (cmd, workdir, env, CLI_CALL_TIMEOUT_S),
               call_check(argv, error, expect), fixed=fixed)
    return wl


def build(name, seed, workdir, launcher):
    if name == "cli":
        return build_cli(seed, workdir, launcher)
    return {"closure": build_closure, "structure": build_structure}[name](seed)
