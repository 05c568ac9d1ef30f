"""Partially commutative monoid of positive state words.

For a tree, two edge generators commute exactly when the edges share no
endpoint, and these swaps together with deleting the sink letter generate
all relations between positive words.  Three independent deciders live
here: the lexicographic normal form, the pairwise projection criterion and
an exact action-equality oracle over the residual pair graph.
"""

from collections import deque, namedtuple
from heapq import heapify, heappop, heappush
from itertools import product

from .action import _check_sweep_cap, _encode_word, _step_word, positive_state_word
from .errors import (
    BadGraph,
    NotATree,
    PresentationMismatch,
    UnknownGenerator,
)
from .graphgroup import OrientedGraph, is_tree, line_graph_complement
from .limits import check_int
from .mealy import MealyAutomaton, _trim
from .wordproblem import _closure_scan, is_identity


class TracePresentation:
    """Alphabet of edge letters plus the erasable identity letter.

    `independent` holds the unordered pairs of distinct letters allowed to
    swap; the identity letter is erased, never swapped.  The letter order is
    the declaration order and fixes the normal form.  `_dependent` maps each
    non-identity letter to the letters that do not commute with it, itself
    included.
    """

    __slots__ = ("letters", "sink", "independent", "_order", "_dependent")

    def __init__(self, letters, independent, sink="id"):
        try:
            self.letters = tuple(letters)
            self._order = {x: i for i, x in enumerate(self.letters)}
        except TypeError:                # not iterable, or a letter that is not hashable
            raise PresentationMismatch("the letters are a sequence of names, not %r"
                                       % (letters,)) from None
        self.sink = sink
        if sink not in self.letters:
            raise PresentationMismatch("the identity letter %r must be in the alphabet" % sink)
        pairs = set()
        try:
            for a, b in independent:
                if a == b:
                    raise PresentationMismatch("a letter cannot be independent of itself")
                if a not in self._order or b not in self._order:
                    raise PresentationMismatch(
                        "independence pair (%r, %r) uses unknown letters" % (a, b))
                if sink in (a, b):
                    raise PresentationMismatch("the identity letter is erased, not commuted")
                pairs.add(frozenset((a, b)))
        except (TypeError, ValueError):  # not iterable, or an item that is no pair of letters
            raise PresentationMismatch("independence is a sequence of letter pairs, not %r"
                                       % (independent,)) from None
        self.independent = frozenset(pairs)
        self._dependent = {
            a: tuple(b for b in self.letters
                     if b != sink and frozenset((a, b)) not in self.independent)
            for a in self.letters if a != sink}

    def independent_pair(self, a, b) -> bool:
        return frozenset((a, b)) in self.independent

    def order(self, letter) -> int:
        return self._order[letter]

    def __eq__(self, other):
        return (isinstance(other, TracePresentation)
                and self.letters == other.letters and self.sink == other.sink
                and self.independent == other.independent)

    def __hash__(self):
        return hash((self.letters, self.sink, self.independent))

    def __repr__(self):
        return "TracePresentation(%s; %d commuting pairs)" % (
            " ".join(self.letters), len(self.independent))


class TraceWord(namedtuple("TraceWord", "pres letters")):
    __slots__ = ()

    def __new__(cls, pres, letters):
        try:
            word = tuple(letters)
            for x in word:
                if x not in pres._order:
                    raise UnknownGenerator("letter %r is not in the presentation" % (x,))
        except TypeError:                # not iterable, or a letter that is not hashable
            raise UnknownGenerator("a trace word is a sequence of letters, not %r"
                                   % (letters,)) from None
        return super().__new__(cls, pres, word)

    @classmethod
    def _make(cls, iterable):        # so that _replace checks the letters too
        return cls(*iterable)

    def erased(self):
        return tuple(x for x in self.letters if x != self.pres.sink)

    def __str__(self):
        return " ".join(self.letters) if self.letters else "1"


def trace_word(pres: TracePresentation, letters) -> TraceWord:
    return TraceWord(pres, letters.split() if isinstance(letters, str) else letters)


def presentation_from_tree(t: OrientedGraph, sink="id") -> TracePresentation:
    """Commutation pairs are the non-incident edge pairs of the tree."""
    if not is_tree(t):
        raise NotATree("commutation presentations are built from trees")
    return TracePresentation(t.edge_names() + (sink,), line_graph_complement(t), sink=sink)


def rewrite_step(u: TraceWord):
    """Words one rewrite away: erase identity letters, or swap one independent pair."""
    pres = u.pres
    out = set()
    erased = u.erased()
    if erased != u.letters:
        out.add(erased)
    ls = u.letters
    for i in range(len(ls) - 1):
        if pres.independent_pair(ls[i], ls[i + 1]):
            out.add(ls[:i] + (ls[i + 1], ls[i]) + ls[i + 2:])
    return tuple(TraceWord(pres, w) for w in sorted(out))


def normal_form(u: TraceWord) -> TraceWord:
    """Lexicographically least equivalent word.

    The least linear extension of the dependence order of the erased word
    (Anisimov & Knuth, "Inhomogeneous sorting", 1979).  Each position gets
    an arc from the last earlier occurrence of every letter that does not
    commute with it, so the arcs number at most |word| times |alphabet| and
    every dependent earlier position still reaches it.  Positions whose
    predecessors are all emitted wait in a heap keyed by (letter order,
    position), and the least one is emitted next: the same word as
    repeatedly emitting the smallest letter that commutes with everything
    before it.  Two occurrences of one letter are dependent, so the heap
    never holds two equal letter orders.
    """
    pres = u.pres
    order, dependent = pres._order, pres._dependent
    letters = u.erased()
    last = {}
    succ = [[] for _ in letters]
    waiting = [0] * len(letters)
    for i, x in enumerate(letters):
        for b in dependent[x]:
            j = last.get(b)
            if j is not None:
                succ[j].append(i)
                waiting[i] += 1
        last[x] = i
    heap = [(order[x], i) for i, x in enumerate(letters) if not waiting[i]]
    heapify(heap)
    out = []
    while heap:
        _, i = heappop(heap)
        out.append(letters[i])
        for j in succ[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heappush(heap, (order[letters[j]], j))
    return TraceWord(pres, tuple(out))


def equivalent(u: TraceWord, v: TraceWord) -> bool:
    if u.pres != v.pres:
        raise PresentationMismatch("words come from different presentations")
    return normal_form(u).letters == normal_form(v).letters


def projections_equal(u: TraceWord, v: TraceWord) -> bool:
    """Projection criterion: equal on every subalphabet of dependent letters.

    Compares the erased projections to {a, b} for every pair of distinct
    non-commuting letters, and the single-letter counts.
    """
    if u.pres != v.pres:
        raise PresentationMismatch("words come from different presentations")
    pres = u.pres
    a_letters = [x for x in pres.letters if x != pres.sink]
    ue, ve = u.erased(), v.erased()
    for i, a in enumerate(a_letters):
        if ue.count(a) != ve.count(a):
            return False
        for b in a_letters[i + 1:]:
            if pres.independent_pair(a, b):
                continue
            keep = {a, b}
            if tuple(x for x in ue if x in keep) != tuple(x for x in ve if x in keep):
                return False
    return True


# witness is the input word where the two actions first differ, or None.
ActionEq = namedtuple("ActionEq", "equal witness")


def semigroup_eq_via_action(aut: MealyAutomaton, u, v) -> ActionEq:
    """Exact equality of the actions of two positive state words.

    Breadth-first over residual pairs: positive residuals never lengthen, so
    the pair space is finite; equal iff every reachable pair agrees on single
    letters.
    """
    core = aut.core()
    rows, alphabet = core.rows, aut.alphabet

    def encoded(word):
        codes = (core.codes[(a, 1)] for a in positive_state_word(aut, word))
        return tuple(c for c in codes if c)

    start = (encoded(u), encoded(v))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p, q), prefix = queue.popleft()
        for x, letter in enumerate(alphabet):
            yp, rp = _step_word(rows, p, x)
            yq, rq = _step_word(rows, q, x)
            if yp != yq:
                return ActionEq(False, prefix + (letter,))
            pair = (rp, rq)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, prefix + (letter,)))
    return ActionEq(True, None)


# -- orientation sensitivity ---------------------------------------------------

def _edge_orientation(aut: MealyAutomaton):
    """Recover tail and head of each non-sink state of a graph automaton."""
    orient = {}
    for s in aut.states:
        if s == aut.sink:
            continue
        tails = [z for z in aut.alphabet if aut.next(s, z) == s]
        if len(tails) != 1:
            raise BadGraph("state %r does not look like an oriented edge" % (s,))
        tail = tails[0]
        orient[s] = (tail, aut.out(s, tail))
    return orient


# status is Pass or Violations.
PositiveIdentityReport = namedtuple("PositiveIdentityReport", "status violations words_checked")


def check_acyclic_no_positive_identity(aut: MealyAutomaton, max_len: int,
                                       cap=None) -> PositiveIdentityReport:
    """No nonempty positive word acts as the identity, given an acyclic orientation."""
    orient = _edge_orientation(aut)
    _require_no_directed_cycle(orient)
    gens = [s for s in aut.states if s != aut.sink]
    _check_sweep_cap(len(gens), len(gens), max_len, 1, cap, "positive sweep")
    codes = [_encode_word(aut, (g,))[0] for g in gens]
    violations = []
    checked = 0
    for n in range(1, max_len + 1):
        # words of each length in product order, decided by one closure scan
        # each, with no memo entry: the words are streamed, never stored
        for w, word in zip(product(gens, repeat=n), product(codes, repeat=n)):
            checked += 1
            if _closure_scan(aut, [word], True, keep_perms=False)[0] is None:
                violations.append(w)
    status = "Pass" if not violations else "Violations"
    return PositiveIdentityReport(status, tuple(violations), checked)


def _require_no_directed_cycle(orient):
    succ = {}
    for tail, head in orient.values():
        succ.setdefault(tail, []).append(head)
        succ.setdefault(head, [])
    if _trim(list(succ), succ):
        raise BadGraph("orientation has a directed cycle")


def check_cycle_torsion(aut: MealyAutomaton, w, k: int) -> bool:
    """For an oriented cycle word of length k, test the positive relation at power k - 1."""
    check_int(k, 2, "cycle length", BadGraph)
    word = positive_state_word(aut, w)
    if len(word) != k:
        raise BadGraph("cycle word length must equal k")
    if len(set(word)) != len(word):
        raise BadGraph("cycle word must not repeat an edge")
    orient = _edge_orientation(aut)
    for a, b in zip(word, word[1:] + word[:1]):
        if a not in orient:
            raise BadGraph("letter %r is not an edge state" % (a,))
        if orient[a][1] != orient[b][0]:
            raise BadGraph("letters do not chain into an oriented cycle")
    return is_identity(aut, tuple(word) * (k - 1)).identity
