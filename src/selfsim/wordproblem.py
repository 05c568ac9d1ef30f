"""Exact word problem machinery.

The central engine is the residual closure: residuals never lengthen a
reduced word, so the set of residuals of a word under all inputs is finite
and breadth-first search decides equality of tree actions exactly.  On top
of that sit level-wise membership tests (whose positive answers certify
identities level by level), nucleus computation, the reducibility scan,
the symmetric level-one quotient and the abelian-or-free dichotomy.
"""

from collections import namedtuple

import itertools

from .action import (
    GroupWord,
    _check_sweep_cap,
    _decode_word,
    _encode_word,
    _gen_codes,
    _hit_sweep,
    _inverse,
    _letter_indices,
    _level_walk,
    _memo,
    _product,
    _remember,
    _require_invertible_for,
    _restrict,
    _signed_codes,
    _step_word,
    _sweep_count,
    _sweep_rank,
    check_level_cap,
    parse_word,
)
from .errors import (
    LevelTooLarge,
    NotContractingWithinCaps,
    NotInStabilizer,
    NotInvertible,
    QuotientTooLarge,
    RaggedTuples,
    UnknownGenerator,
)
from .limits import (
    DEFAULT_NUCLEUS_DEPTH,
    DEFAULT_NUCLEUS_SIZE,
    DEFAULT_QUOTIENT_CAP,
    MEMO_LIMIT,
    check_int,
)
from .mealy import MealyAutomaton, _refine_partition, _trim


class WpVerdict(namedtuple("WpVerdict", "decision witness certificate method")):
    """Decision for one word: Identity or NonIdentity.

    NonIdentity carries a moved input word when one was exhibited; Identity
    carries a certificate: the residual closure for the closure method, the
    membership level for the level method.
    """
    __slots__ = ()

    @property
    def identity(self) -> bool:
        return self.decision == "Identity"


def _closure_scan(aut, roots, stop_on_moved, keep_perms=True):
    """Breadth-first walk of the residual graph from each root code word in turn.

    Each root's walk goes in letter order and skips the words already
    listed.  Returns (witness, order, perms, succ): order lists the
    residual code words in discovery order, perms[i] is the level-one
    permutation of order[i] and succ[i] the indices in order of its
    residuals, letter by letter.  Without `keep_perms` perms stays empty,
    for the callers that do not read it.  With `stop_on_moved` the walk
    stops at the first moved letter and witness is a shortest moved input
    word, as letter indices, the first in shortlex order; it is defined for
    one root only.  Otherwise, or when no letter moves, witness is None and
    the walk is complete.
    """
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    index, order, perms, succ = {}, [], [], []
    for root in roots:
        if root in index:
            continue
        index[root] = len(order)
        order.append(root)
        # a later root's walk starts past the residuals already expanded;
        # the first, the common case, reads order itself, without an islice
        for cur in itertools.islice(order, len(succ), None) if succ else order:
            perm, kids = [], []
            for x in letters:
                y, res = _step_word(rows, cur, x)
                if y != x and stop_on_moved:
                    if not succ:
                        return (x,), order, perms, succ
                    return _tree_path(succ, len(succ)) + (x,), order, perms, succ
                j = index.get(res)
                if j is None:
                    j = index[res] = len(order)
                    order.append(res)
                perm.append(y)
                kids.append(j)
            if keep_perms:
                perms.append(tuple(perm))
            succ.append(kids)
    return None, order, perms, succ


def _tree_path(succ, i):
    """Letters of the breadth-first tree path from the one root to residual i.

    A residual's first incoming arc, in walk order, is the one that
    discovered it, so one pass over succ gives every parent.
    """
    parent = {}
    for p, kids in enumerate(succ):
        for x, j in enumerate(kids):
            parent.setdefault(j, (p, x))
    path = []
    while i:
        i, x = parent[i]
        path.append(x)
    return tuple(reversed(path))


def restriction_closure(aut: MealyAutomaton, w):
    """All residuals of w (including w), reduced, in breadth-first order."""
    order = _closure_scan(aut, [_encode_word(aut, w)], False, keep_perms=False)[1]
    return tuple(_decode_word(aut, word) for word in order)


def _verdict(aut, word) -> WpVerdict:
    """Closure verdict of a code word.

    The word's own images come first: the walk steps the root's letters
    first, in letter order, so the first letter the word moves is the
    walk's witness, read off without a walk or a memo lookup.  Only a word
    that fixes every letter of level one is memoized on the code word, and
    walked on a miss.  A walk that finds no moved letter has listed the
    whole closure, which is the Identity certificate.
    """
    rows = aut.core().rows
    for x in range(len(aut.alphabet)):
        y = x
        for c in word:
            y = rows[c][y][0]
        if y != x:
            return _moved_verdict(aut, (x,))
    memo = _memo(aut, "wp")
    verdict = memo.get(word)
    if verdict is None:
        witness, order, _, _ = _closure_scan(aut, [word], True, keep_perms=False)
        if witness is None:
            cert = tuple(_decode_word(aut, res) for res in order)
            verdict = WpVerdict("Identity", None, cert, "closure")
        else:
            verdict = _moved_verdict(aut, witness)
        _remember(memo, word, verdict, MEMO_LIMIT)
    return verdict


def _moved_verdict(aut, witness):
    """The NonIdentity closure verdict with this witness (letter indices).

    One record per witness, shared by every word that has it, in the
    machine's `moved` memo.
    """
    memo = _memo(aut, "moved")
    verdict = memo.get(witness)
    if verdict is None:
        verdict = WpVerdict("NonIdentity", tuple(map(aut.alphabet.__getitem__, witness)),
                            None, "closure")
        _remember(memo, witness, verdict, MEMO_LIMIT)
    return verdict


def is_identity(aut: MealyAutomaton, w) -> WpVerdict:
    """Exact decision via the residual closure.

    Identity iff every residual fixes every single letter; otherwise a
    shortest moved word, found breadth-first over input prefixes, is
    reported as witness.
    """
    return _verdict(aut, _encode_word(aut, w))


def elements_equal(aut: MealyAutomaton, u, v) -> bool:
    """Equality in the generated group, decided by the closure engine."""
    a = _encode_word(aut, u)
    return _verdict(aut, _product(a, _inverse(_encode_word(aut, v)))).identity


# -- level-wise membership --------------------------------------------------

def fragile_member(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """w fixes level k and all its depth-k residuals reduce to the empty word.

    Checking depth exactly k suffices: residuals of freely trivial words are
    freely trivial.
    """
    check_int(k, 1, "membership level", LevelTooLarge)
    check_level_cap(aut, k, cap)
    return _level_walk(aut, _encode_word(aut, w), k, True)


def fragile_index(aut: MealyAutomaton, w, kmax: int, cap=None):
    """Least k <= kmax with fragile_member true, or None.

    Levels 1, 2, ... are walked up to the first member and no further: a
    member of level k fixes level k + 1, and its residuals there are those
    of empty words.  The cap is checked before each level walked, so
    LevelTooLarge names the first level over it, when none below is a member.
    """
    return _fragile_index(aut, _fragile_word(aut, w, kmax, cap), kmax, cap)


def _fragile_word(aut, w, kmax, cap):
    """Code word of w, after the checks that come before the first level."""
    check_int(kmax, 1, "kmax", LevelTooLarge)
    check_level_cap(aut, 1, cap)
    return _encode_word(aut, w)


def _fragile_index(aut, word, kmax, cap):
    for k in range(1, kmax + 1):
        check_level_cap(aut, k, cap)
        if _level_walk(aut, word, k, True):
            return k
    return None


def wp_fragile(aut: MealyAutomaton, w, kmax: int, cap=None) -> WpVerdict:
    """Word problem via the level-wise route.

    Identity iff a membership level <= kmax exists.  A NonIdentity verdict
    carries the shortlex-first moved word, the closure witness, when some
    level <= kmax is not stabilized; if all are, the verdict reports
    exhaustion without a witness.
    """
    word = _fragile_word(aut, w, kmax, cap)
    k = _fragile_index(aut, word, kmax, cap)
    if k is not None:
        return WpVerdict("Identity", None, (k,), "fragile")
    _require_invertible_for(aut, word)
    for j in range(1, kmax + 1):
        if not _level_walk(aut, word, j, False):
            # no word shorter than j moves, so the shortest moved word has length j
            witness = _closure_scan(aut, [word], True, keep_perms=False)[0]
            return WpVerdict("NonIdentity", tuple(aut.alphabet[x] for x in witness),
                             None, "fragile")
    return WpVerdict("NonIdentity", None, None, "fragile")


def _require_stabilizes(aut, word, k, cap=None):
    check_level_cap(aut, k, cap)
    _require_invertible_for(aut, word)
    if not _level_walk(aut, word, k, False):
        raise NotInStabilizer("word does not stabilize level %d" % k)


def virtual_endo(aut: MealyAutomaton, u, w) -> GroupWord:
    """Erased residual of w at the level word u; w must stabilize level |u|."""
    u = _letter_indices(aut, u)
    word = _encode_word(aut, w)
    _require_stabilizes(aut, word, len(u))
    return _decode_word(aut, _restrict(aut.core().rows, word, u))


def embed_in_product(aut: MealyAutomaton, w, k: int, cap=None):
    """All level-k residual components, as a dict keyed by the level word."""
    check_int(k, 1, "embedding level", LevelTooLarge)
    check_level_cap(aut, k, cap)
    word = _encode_word(aut, w)
    _require_stabilizes(aut, word, k, cap)
    rows, alphabet = aut.core().rows, aut.alphabet
    return {tuple(alphabet[x] for x in u): _decode_word(aut, _restrict(rows, word, u))
            for u in itertools.product(range(len(alphabet)), repeat=k)}


def is_identity_in_Gk(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """Identity in the level-k quotient group; equivalent to fragile_member."""
    return fragile_member(aut, w, k, cap=cap)


# -- abelianization ----------------------------------------------------------

def exponent_sums(w, generators):
    """Signed occurrence counts per generator, in the given order.

    Takes word text (parsed by parse_word), a GroupWord or a sequence of
    (generator, +-1) letters.
    """
    try:
        generators = tuple(generators)
        sums = dict.fromkeys(generators, 0)
    except TypeError:                    # not iterable, or a generator that is not hashable
        raise UnknownGenerator("generators are a sequence of names, not %r"
                               % (generators,)) from None
    for g, s in _group_word(w):
        if g in sums:
            sums[g] += s
    return tuple(sums[g] for g in generators)


def _group_word(w):
    """w as a GroupWord: word text is parsed (parse_word), a letter sequence reduced."""
    if isinstance(w, str):
        return parse_word(w)
    return w if isinstance(w, GroupWord) else GroupWord(w)


# -- nucleus -----------------------------------------------------------------

class Nucleus:
    """Finite restriction- and inverse-closed element set with wreath data.

    `elements` are canonical representatives; `perms` and `sections` give
    each element's letter permutation and the representative of each
    residual.
    """

    __slots__ = ("elements", "perms", "sections")

    def __init__(self, elements, perms, sections):
        self.elements = tuple(elements)
        self.perms = dict(perms)
        self.sections = dict(sections)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, word):
        """True iff word is one of the representatives; a string is parsed first."""
        return _group_word(word) in self.perms

    def __repr__(self):
        return "Nucleus(%s)" % ", ".join(str(w) for w in self.elements)


def _lex_key(word):
    return tuple((abs(c), c < 0) for c in word)


def shortest_representative(aut: MealyAutomaton, w, max_len: int, cap=None):
    """First reduced word equal to w in the group, by length then letter order.

    The search never goes past |w| letters, since w itself is a candidate;
    the number of words it may sweep up to min(max_len, |w|) must fit under
    the level cap.
    """
    if not aut.invertible:
        raise NotInvertible("shortest representative needs an invertible automaton")
    word = _encode_word(aut, w)
    check_int(max_len, 0, "representative search length", LevelTooLarge)
    max_len = min(max_len, len(word))
    width = 2 * len(_gen_codes(aut))
    _check_sweep_cap(width, width - 1, max_len, 1, cap, "representative search")
    _, _, perm, sec = _minimal_machine(aut, [word])
    found = _first_words(aut, perm, sec, [0], max_len).get(0)
    return None if found is None else _decode_word(aut, found)


def _minimal_machine(aut, roots):
    """Minimal machine of the residuals of the root code words: (order, block, perm, sec).

    One closure walk (_closure_scan) from the roots lists the residuals in
    `order`, each with its level-one permutation and the indices of its
    successors.  Partition refinement (mealy._refine_partition) merges
    equal residuals: block[i] is the class of order[i], classes numbered by
    first occurrence, so class 0 is the first root's.  Class c has the
    level-one permutation perm[c] and the section classes sec[c].  The
    group acts faithfully on the tree, so the classes are pairwise
    distinct elements, and words of one element give the same (perm, sec).
    """
    _, order, perms, succ = _closure_scan(aut, roots, False)
    block = _refine_partition(perms, succ)
    perm, sec = [], []
    for i, b in enumerate(block):
        if b == len(perm):
            perm.append(perms[i])
            sec.append(tuple(block[j] for j in succ[i]))
    return order, block, perm, sec


def _first_words(aut, perm, sec, ids, max_len):
    """Shortlex-first reduced code word of length <= max_len for each wanted element.

    The elements are rows of a table closed under sections whose elements
    are pairwise distinct: element e has the level-one permutation perm[e]
    and the section ids sec[e].  Returns {id: word} for the wanted `ids`.
    Shortlex order over the reduced words, stopped once every id is found.
    A candidate is tried only when its level-one permutation is that of an
    element still wanted; the permutation is composed from the candidate's
    prefix.  The candidate is then matched (_acts_as) against each wanted
    element with that permutation.  action._hit_sweep, with a hit that is
    always true, lists the words up to length max_len - 1, each with its
    permutation, and that last level is kept.  The last length is not
    swept: a table maps each permutation step(wanted, -c) to its pairs (c,
    wanted), in letter order, and a prefix is extended only by the letters
    of its permutation's pairs, in prefix order and then letter order,
    which is the sweep's own order.  Ids without such a word are missing
    from the result.  The machine must be invertible, so -c undoes c.
    """
    rows, n = aut.core().rows, len(aut.alphabet)
    signed, inverse = _signed_codes(_gen_codes(aut))
    moves = {c: tuple(rows[c][x][0] for x in range(n)) for c in signed}
    identity = tuple(range(n))
    wanted = {}                          # level-one permutation -> ids still wanted
    for e in ids:
        wanted.setdefault(perm[e], []).append(e)
    found = {}

    def step(image, c):
        return tuple(map(moves[c].__getitem__, image))

    def take(candidate, image):
        """Match a candidate with a wanted permutation; True once every id is found."""
        pending = wanted[image]
        for e in pending:
            if _acts_as(rows, candidate, perm, sec, e):
                found[e] = candidate
                pending.remove(e)
                if not pending:
                    del wanted[image]
                break
        return not wanted

    if not wanted:
        return found
    last = []
    sweep = _hit_sweep(signed, inverse, max_len - 1, identity, step, lambda image: True)
    for candidate, image in itertools.chain([((), identity)], sweep):
        if image in wanted and take(candidate, image):
            return found
        if len(candidate) == max_len - 1:
            last.append((candidate, image))
    ends = {}                            # prefix permutation -> (c, wanted permutation)
    for c in signed:
        for image in wanted:
            ends.setdefault(step(image, -c), []).append((c, image))
    for prefix, image in last:
        back = inverse[prefix[-1]] if prefix else None
        for c, after in ends.get(image, ()):
            if c != back and after in wanted and take(prefix + (c,), after):
                return found
    return found


def _acts_as(rows, word, perm, sec, e):
    """True iff the code word acts as element e of a table (perm, sec).

    The table is closed under sections and its elements are pairwise
    distinct: element f has the level-one permutation perm[f] and the
    section ids sec[f].  The walk pairs each residual of the word with the
    element it must equal, from (word, e), and stops at the first
    disagreement: a residual with another level-one image than its
    element, or one residual reached with two elements.  A complete walk
    relates every residual to an element with the same permutation and
    related sections, so the word acts as e.  Conversely, the elements are
    pairwise distinct, so a word of e reaches each residual with the one
    element that residual equals, and the walk completes.
    """
    classes = {word: e}
    todo = [word]
    for cur in todo:
        f = classes[cur]
        pf, sf = perm[f], sec[f]
        for x, s in enumerate(sf):
            y, res = _step_word(rows, cur, x)
            if y != pf[x]:
                return False
            c = classes.get(res)
            if c is None:
                classes[res] = s
                todo.append(res)
            elif c != s:
                return False
    return True


def nucleus(aut: MealyAutomaton, depth_cap=None, size_cap=None) -> Nucleus:
    """Smallest restriction- and inverse-closed set the pair products fall back into.

    Seeded with the identity, the states and their inverses, closed under
    residuals; then, for each product of an element and a state or inverse
    state, residual chains of element pairs are followed until they
    re-enter the set, and the recurring elements (those on or past a
    residual cycle) are adjoined.  Caps turn non-stabilization into an
    error instead of a hang.

    A residual of a one-letter word is a one-letter word or empty, so the
    seeds' residuals are closed under inverse words.  Their minimal machine
    (_minimal_machine, rooted at the identity and then each seed) gives the
    first elements, its classes in order, and the first word of each class
    is its representative.

    The set is an element table (_Elements): for each id, its level-one
    permutation, the ids of its sections and the id of its inverse.  One
    pass over the ids in order multiplies each element, seeded or
    adjoined, by each seed other than the identity.  The nodes of a
    residual graph are pairs (a, b) of ids that equal no element of the
    set: the residual of (a, b) at x is the pair (sec[a][x],
    sec[b][perm[a][x]]), and the table says which element, if any, a pair
    equals, so no word is formed or stepped while the set grows.  The
    second factor of every node is a seed, so a graph has at most 2m nodes
    per element, m the number of states other than the sink, and the
    depth cap counts its breadth-first levels over these distinct pairs:
    whether it fires depends on the elements only.  The recurring pairs of
    a graph (mealy._trim) are adjoined at once, with their inverses
    (_Elements.adjoin), so later tests see them, and the word of each new
    element is formed then: the product of its pair's representatives, or
    that product's inverse.

    These products suffice.  A section of a product h s is n s', with n a
    section of h and s' a seed, so by induction on the length of a word
    over the seeds, its sections at long enough words lie in any set that
    holds the seeds, is closed under sections and inverses, and holds the
    recurring sections of n s for each of its elements n and seeds s: a
    chain of sections of n s' outside the set runs through the finite set
    table x seeds, so a long one is past a cycle.  Each element adjoined
    is on or past a cycle, so a section of itself at words of every
    length; the products of every two elements reach the same set
    (Nekrashevych, Self-Similar Groups, 2005, section 2.11).

    A pair is examined once.  Between two pair examinations the set is
    closed under residuals and inverses, so a residual graph loses, with
    each node that joins the set, all the nodes below it: a later graph of
    the pair would be what is left of its first one once its cycles and
    all that they reach were adjoined, no deeper and with nothing to
    adjoin.  A pair whose sections all lie in the set is a one-node graph
    with nothing recurring, and its graph is not walked.

    The last step replaces each representative whose search space is small
    by the shortlex-first word of its element: _first_words finds them all
    in one sweep, matching each candidate against the wanted elements'
    rows of the table.
    """
    if not aut.invertible:
        raise NotInvertible("nucleus needs an invertible automaton")
    depth_cap = DEFAULT_NUCLEUS_DEPTH if depth_cap is None else depth_cap
    size_cap = DEFAULT_NUCLEUS_SIZE if size_cap is None else size_cap
    check_int(depth_cap, 1, "nucleus depth cap", NotContractingWithinCaps)
    check_int(size_cap, 1, "nucleus size cap", NotContractingWithinCaps)
    reps = []

    def grow(ls):
        reps.append(ls)
        if len(reps) > size_cap:
            raise NotContractingWithinCaps(
                "nucleus exceeded size cap %d" % size_cap)

    # seed: identity, states and inverses
    seeds = [(c,) for c in _gen_codes(aut)]
    seeds += [(-c,) for c, in seeds]
    closure, block, perm, sec = _minimal_machine(aut, [()] + seeds)
    index = {ls: i for i, ls in enumerate(closure)}
    table = _Elements()
    for i, b in enumerate(block):
        if b == len(reps):
            grow(closure[i])
            table.append(perm[b], sec[b], block[index[_inverse(closure[i])]])
    perm, sec, find, known = table.perm, table.sec, table.find, table.equal.get
    gens = [g for g in dict.fromkeys(block[index[ls]] for ls in seeds) if g]

    i = 0
    while i < len(reps):
        for j in gens:
            if find((i, j)) is not None:
                continue
            if all(known(q) is not None or find(q) is not None
                   for q in zip(sec[i], map(sec[j].__getitem__, perm[i]))):
                continue                     # a one-node graph: nothing recurs
            # residual graph of the pair outside the current set: its nodes
            # in discovery order, each with its residual pairs outside the set
            succ = {(i, j): None}
            frontier = [(i, j)]
            levels = 0
            while frontier:
                levels += 1
                if levels > depth_cap:
                    raise NotContractingWithinCaps(
                        "residual chains exceeded depth cap %d" % depth_cap)
                nxt = []
                for a, b in frontier:
                    sb = sec[b]
                    # most pairs were met before: a lookup spares the call
                    succ[a, b] = out = [q for q in zip(sec[a], map(sb.__getitem__, perm[a]))
                                        if known(q) is None and find(q) is None]
                    for q in out:
                        if q not in succ:
                            succ[q] = None
                            nxt.append(q)
                frontier = nxt
            for (a, b), inverse in table.adjoin(_trim(list(succ), succ)):
                w = _product(reps[a], reps[b])
                grow(_inverse(w) if inverse else w)
        i += 1

    # shortest equal word of each representative whose search space is small
    width = 2 * len(_gen_codes(aut))
    small = [k for k, ls in enumerate(reps)
             if sum(width ** m for m in range(len(ls) + 1)) <= 20000]
    best = _first_words(aut, perm, sec, small, max((len(reps[k]) for k in small), default=0))
    final = [best.get(k, ls) for k, ls in enumerate(reps)]
    order = sorted(range(len(reps)), key=lambda k: (len(final[k]), _lex_key(final[k])))

    alphabet = aut.alphabet
    words = [_decode_word(aut, ls) for ls in final]
    return Nucleus(
        [words[k] for k in order],
        {words[k]: {alphabet[x]: alphabet[y] for x, y in enumerate(perm[k])} for k in order},
        {words[k]: {alphabet[x]: words[s] for x, s in enumerate(sec[k])} for k in order})


class _Elements:
    """The nucleus's element table, and which element a product of two equals.

    Element k has the level-one permutation perm[k], the section ids sec[k]
    and the inverse id inv[k]; element 0 is the identity.  The elements are
    pairwise distinct, and the table is closed under sections and inverses.
    The pair (a, b) is the product of a then b: its permutation is perm[b]
    after perm[a], and its section at x is the pair (sec[a][x],
    sec[b][perm[a][x]]).
    """

    __slots__ = ("perm", "sec", "inv", "levels", "alike", "equal", "tried")

    DEEPER = 8                           # level points composed per candidate walk saved

    def __init__(self):
        self.perm, self.sec, self.inv = [], [], []
        self.levels = [self.perm]        # level-(d+1) permutation of each element
        self.alike = [{}]                # level-(d+1) permutation -> ids, ascending
        self.equal = {}                  # pair -> the element it equals
        self.tried = {}                  # pair -> n: it differs from elements 0..n-1

    def append(self, perm, sec, inv):
        k = len(self.perm)
        self.perm.append(perm)
        self.sec.append(sec)
        self.inv.append(inv)
        self.alike[0].setdefault(perm, []).append(k)
        self.equal[0, k] = self.equal[k, 0] = k

    def find(self, q):
        """Id of the element the pair q equals, or None.

        A pair with an identity factor, or one met before, is answered from
        `equal`.  Otherwise the pair is matched (_matches) against each
        element with its level-d permutation, but for those it was found to
        differ from already: a pair that equals none records how many
        elements there were, and is tried later against the new ones only.
        A pair's level-d permutation is its factors' composed.  d starts at
        1 and grows while more than one candidate is left and the next
        level has at most DEEPER points per candidate, so that composing at
        that level costs about what a few failed walks would.  The list's
        length decides this, not the machine: two-letter machines give each
        level-one permutation many elements, larger alphabets few.
        """
        e = self.equal.get(q)
        if e is not None:
            return e
        start = self.tried.get(q, 0)
        if start == len(self.perm):
            return None
        a, b = q
        perm, d = self.perm, 0
        ids = self.alike[0].get(tuple(map(perm[b].__getitem__, perm[a])), ())
        while len(ids) > 1 and len(self.levels[d][0]) * len(perm[0]) <= self.DEEPER * len(ids):
            d += 1
            level = self._level(d)
            ids = self.alike[d].get(tuple(map(level[b].__getitem__, level[a])), ())
        for e in ids:
            if e >= start and self._matches(q, e):
                return e
        self.tried[q] = len(self.perm)
        return None

    def _level(self, d):
        """Every element's level-(d+1) permutation, with their index alike[d].

        Level 1 is `perm`, indexed as elements are appended.  A deeper level
        is filled up to the table's length on demand, since an element's
        sections may be adjoined after it.  The words of length d + 1 are
        numbered in base |X|, first letter first, so the image of x u is
        perm[x] followed by the image of u under the section at x.
        """
        if d == len(self.levels):
            self.levels.append([])
            self.alike.append({})
        level, alike = self.levels[d], self.alike[d]
        if len(level) < len(self.perm):
            below = self._level(d - 1)
            size = len(below[0])
            for e in range(len(level), len(self.perm)):
                image = []
                for y, s in zip(self.perm[e], self.sec[e]):
                    image += [y * size + z for z in below[s]]
                image = tuple(image)
                level.append(image)
                alike.setdefault(image, []).append(e)
        return level

    def _matches(self, q, e):
        """True iff the pair q equals element e; a walk like _acts_as, over the table.

        Each pair reached is paired with the element it must equal, from
        (q, e), and the walk stops at the first disagreement: a pair with
        another level-one image than its element, a pair reached with two
        elements, or one known to equal another element or to differ from
        its own.  A complete walk relates every pair it reached to an
        element with the same permutation and related sections, so each
        pair equals its element; `equal` records them all, and with each
        pair (a, b) the pair (inv[b], inv[a]), which equals its element's
        inverse.  Conversely the elements are pairwise distinct, so when q
        equals e every pair is reached with the one element it equals, and
        the walk completes.
        """
        perm, sec, equal, tried = self.perm, self.sec, self.equal, self.tried
        seen = {q: e}
        todo = [q]
        for q in todo:
            a, b = q
            f = seen[q]
            pb, sa, sb, pf, sf = perm[b], sec[a], sec[b], perm[f], sec[f]
            for x, y in enumerate(perm[a]):
                if pb[y] != pf[x]:
                    return False
                r, g = (sa[x], sb[y]), sf[x]
                h = equal.get(r)
                if h is None:
                    h = seen.get(r)
                if h is None:
                    if tried.get(r, 0) > g:
                        return False
                    seen[r] = g
                    todo.append(r)
                elif h != g:
                    return False
        equal.update(seen)
        inv = self.inv
        for (a, b), f in seen.items():
            equal[inv[b], inv[a]] = inv[f]
        return True

    def adjoin(self, nodes):
        """Adjoin the elements that recurring pairs and their inverses are.

        `nodes` are the recurring pairs of a residual graph in discovery
        order.  No node and no inverse of one equals an element of the
        table, which is closed under inverses, and each section of a node
        is a table element, in `equal` as the graph's walk asked for each,
        or another node.
        The nodes and their inverses form a small machine whose other
        successors are table elements, and the inverse of (a, b) has the
        inverses of its sections.  One partition refinement
        (mealy._refine_partition) over it, with each table element a state
        whose output is its own id, merges the equal ones.  The states go
        node, inverse, node, inverse, ..., in `nodes` order, so its blocks,
        numbered by first occurrence, are the new ids in the order of their
        first states.  Returns, for each new element in id order, its first
        state's pair and whether the element is that pair's inverse.
        """
        size, inv, equal = len(self.perm), self.inv, self.equal
        where = {q: 2 * k for k, q in enumerate(nodes)}
        outside = {}                     # table element -> its state
        outputs, kids = [], []
        for a, b in nodes:
            pa, sa, sb = self.perm[a], self.sec[a], self.sec[b]
            perm = tuple(map(self.perm[b].__getitem__, pa))
            back_perm, forward, back = list(perm), [], list(perm)
            for x, y in enumerate(perm):
                q = sa[x], sb[pa[x]]
                e = equal.get(q)
                back_perm[y] = x
                if e is None:
                    s = where[q]
                    forward.append(s)
                    back[y] = s + 1
                else:
                    forward.append(outside.setdefault(e, 2 * len(nodes) + len(outside)))
                    back[y] = outside.setdefault(inv[e], 2 * len(nodes) + len(outside))
            outputs += [perm, tuple(back_perm)]
            kids += [forward, back]
        outputs += outside
        kids += [()] * len(outside)
        ids = [size + c for c in _refine_partition(outputs, kids)[:2 * len(nodes)]]
        ids += outside
        new = []
        for s, (a, b) in enumerate(nodes):
            for t in (2 * s, 2 * s + 1):
                if ids[t] == len(self.perm):
                    new.append(((a, b), t == 2 * s + 1))
                    self.append(outputs[t], tuple(map(ids.__getitem__, kids[t])), ids[t ^ 1])
            equal[a, b] = ids[2 * s]
            equal[inv[b], inv[a]] = ids[2 * s + 1]
        return new


# -- reducibility scan ---------------------------------------------------------

# status is Pass, Counterexample or Inconclusive; counterexample is a
# (GroupWord, letter) pair or None.
ReducibilityReport = namedtuple(
    "ReducibilityReport", "status counterexample unresolved words_scanned max_chain")


class _Filled(dict):
    """A dict whose missing entries are made by `fill(key)` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def check_reducible(aut: MealyAutomaton, max_len: int, max_depth: int,
                    cap=None) -> ReducibilityReport:
    """Scan all reduced words that fix a letter for residual chains that never shorten.

    For each such word, residuals taken at fixed letters are followed while
    their length stays equal to the word's; a chain that revisits a word is
    a proof that shortening never happens along it (Counterexample), a chain
    that only ends in shorter words or in words fixing no letter is fine.
    Chains cut off by max_depth leave the word unresolved.  The number of
    words scanned must fit under the level cap.

    A word's value carries, for each letter x, the image of x and the last
    code of the residual at x while that residual keeps the word's length
    (None once it is shorter, 0 for the empty word), as one number per
    (x, image, last code) triple.  A word is walked only when its value
    fixes a letter and, with max_depth >= 0, has a same-length residual at
    a fixed letter.  action._hit_sweep lists exactly those words, in sweep
    order, from the finite graph of (value, last letter) states, so the
    work is bounded by the states, not by the words; words_scanned still
    counts the words of the sweep up to the verdict, through
    action._sweep_rank and action._sweep_count.  The sweep's forward walk
    always runs, and its backward walk only when some states hit and others
    do not: a scan in which no word is walked costs one forward walk.
    """
    if not aut.invertible:
        raise NotInvertible("reducibility scan needs an invertible automaton")
    check_int(max_depth, None, "chain depth", LevelTooLarge)
    codes = _gen_codes(aut)
    width = 2 * len(codes)
    _check_sweep_cap(width, width - 1, max_len, 1, cap, "reducibility scan")
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    triples = []
    # numbers of the triples that fix x, and of those whose residual keeps the length
    fixed, long_fixed = set(), set()

    def new_number(triple):
        s = len(triples)
        triples.append(triple)
        x, y, last = triple
        if x == y:
            fixed.add(s)
            if last:
                long_fixed.add(s)
        return s

    number = _Filled(new_number)

    def mover(c):
        row = rows[c]

        def move(s):
            x, y, last = triples[s]
            z, r = row[y]
            return number[x, z, r if r and last is not None and r != -last else None]
        return _Filled(move).__getitem__

    signed, inverse = _signed_codes(codes)
    moves = {c: mover(c) for c in signed}
    start = tuple(number[x, x, 0] for x in letters)
    misses = long_fixed.isdisjoint if max_depth >= 0 else fixed.isdisjoint
    unresolved = []
    max_chain = 0
    for ls, value in _hit_sweep(signed, inverse, max_len, start,
                                lambda value, c: tuple(map(moves[c], value)),
                                lambda value: not misses(value)):
        ok, chain, deep = _chains_shorten(rows, letters, ls, max_depth)
        max_chain = max(max_chain, chain)
        if not ok:
            first_fixed = next(x for x in letters if value[x] in fixed)
            return ReducibilityReport(
                "Counterexample", (_decode_word(aut, ls), aut.alphabet[first_fixed]),
                (), _sweep_rank(signed, inverse, ls), max_chain)
        if deep:
            unresolved.append(_decode_word(aut, ls))

    scanned = _sweep_count(width, max_len)
    if unresolved:
        return ReducibilityReport("Inconclusive", None, tuple(unresolved), scanned, max_chain)
    return ReducibilityReport("Pass", None, (), scanned, max_chain)


def _chains_shorten(rows, letters, word, max_depth):
    """Follow the same-length residual chains of a word at fixed letters.

    Returns (ok, chain, deep): ok is False when a chain revisits a word on
    it, chain is the greatest depth reached, and deep tells whether some
    chain was cut off past max_depth.  Depth first in letter order, with an
    explicit stack, so only max_depth bounds the chain length; a word whose
    chains all end well is not walked again.
    """
    if max_depth < 0:
        return True, 0, True
    target = len(word)
    chain = 0
    deep = False
    path = {word}
    safe = set()
    stack = [(word, iter(letters))]
    while stack:
        wl, todo = stack[-1]
        for x in todo:
            y, r = _step_word(rows, wl, x)
            if y != x or len(r) < target:
                continue
            if r in path:
                return False, chain, deep
            if r in safe:
                continue
            depth = len(stack)
            if depth > chain:
                chain = depth
            if depth > max_depth:
                deep = True
                safe.add(r)
                continue
            path.add(r)
            stack.append((r, iter(letters)))
            break
        else:
            stack.pop()
            path.discard(wl)
            safe.add(wl)
    return True, chain, deep


# -- symmetric quotient ----------------------------------------------------------

def sym_quotient_order(aut: MealyAutomaton, cap=None) -> int:
    """Order of the permutation group the states induce on single letters."""
    if not aut.invertible:
        raise NotInvertible("level-one quotient needs an invertible automaton")
    cap = DEFAULT_QUOTIENT_CAP if cap is None else cap
    check_int(cap, 1, "quotient cap", QuotientTooLarge)
    n = len(aut.alphabet)
    if n > cap:
        raise QuotientTooLarge(
            "alphabet size %d exceeds the quotient cap %d" % (n, cap))
    idx = aut._aidx
    gens = []
    for s in aut.states:
        perm = tuple(idx[aut.out(s, x)] for x in aut.alphabet)
        if perm not in gens:
            gens.append(perm)
    return _sims_order(n, gens)


def _sims_order(n: int, gens) -> int:
    """Order of the group that permutation tuples on range(n) generate.

    Knuth's form of Schreier-Sims (Knuth, "Efficient representation of perm
    groups", Combinatorica 1991) with base 0..n-1: ``table[k][j]`` holds a
    group element that fixes 0..k-1 and sends k to j, with its inverse, and
    ``strong[k]`` the generators added at level k.  An explicit stack runs
    Knuth's two mutually recursive procedures in their recursive order: an
    "add" sifts an element from level k and, if it is new, makes it a strong
    generator and forms its products with the level's transversal; an
    "orbit" step records a new transversal element, or passes its Schreier
    generator down to level k + 1.  The order is the product of the
    transversal sizes.
    """
    identity = tuple(range(n))
    table = [{k: (identity, identity)} for k in range(n)]
    strong = [[] for _ in range(n)]
    stack = [(True, 0, g) for g in reversed(gens)]
    while stack:
        add, k, p = stack.pop()
        if add:
            q, level = p, k
            while level < n and q[level] in table[level]:
                inv = table[level][q[level]][1]
                q = tuple(inv[y] for y in q)
                level += 1
            if level == n:
                continue
            strong[k].append(p)
            stack.extend((False, k, tuple(p[y] for y in t))
                         for t, _ in reversed(table[k].values()))
            continue
        j = p[k]
        if j in table[k]:
            if k + 1 < n:
                inv = table[k][j][1]
                stack.append((True, k + 1, tuple(inv[y] for y in p)))
            continue
        inverse = [0] * n
        for x, y in enumerate(p):
            inverse[y] = x
        table[k][j] = (p, tuple(inverse))
        stack.extend((False, k, tuple(s[y] for y in p)) for s in reversed(strong[k]))
    order = 1
    for level in table:
        order *= len(level)
    return order


# -- dichotomy ---------------------------------------------------------------------

# kind is Abelian or FreePair; a FreePair names the component (an index into
# the tuples) and the pair of witness indices, which are None for Abelian.
class DichotomyResult(namedtuple("DichotomyResult", "kind component pair")):
    __slots__ = ()

    def __str__(self):
        if self.kind == "Abelian":
            return "Abelian"
        return "FreePair(component=%d, pair=%r)" % (self.component, self.pair)


def dichotomy(tuples) -> DichotomyResult:
    """Abelian iff all tuples commute componentwise as free-group words.

    Two free-group elements commute iff their commutator freely reduces to
    the empty word, so no root extraction is needed.  A failing component
    exhibits a rank-two free subgroup.  A component is word text (parsed by
    parse_word), a GroupWord or a sequence of (generator, +-1) letters.
    """
    try:
        rows = [tuple(row) for row in tuples]
    except TypeError:                    # not iterable, or a row that is not
        raise RaggedTuples("tuples are a sequence of sequences of words, not %r"
                           % (tuples,)) from None
    rows = [tuple(map(_group_word, row)) for row in rows]
    if not rows:
        return DichotomyResult("Abelian", None, None)
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise RaggedTuples(
                "tuple lengths differ: %d vs %d" % (width, len(row)))
    for j in range(width):
        for s, t in itertools.combinations(range(len(rows)), 2):
            comm = rows[s][j] * rows[t][j] * rows[s][j].inverse() * rows[t][j].inverse()
            if comm:
                return DichotomyResult("FreePair", j, (s, t))
    return DichotomyResult("Abelian", None, None)
