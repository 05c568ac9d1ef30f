"""Exact word problem machinery.

The central engine is the residual closure: residuals never lengthen a
reduced word, so the set of residuals of a word under all inputs is finite
and breadth-first search decides equality of tree actions exactly.  On top
of that sit level-wise membership tests (whose positive answers certify
identities level by level), nucleus computation, the reducibility scan,
the symmetric level-one quotient and the abelian-or-free dichotomy.
"""

from collections import deque
from dataclasses import dataclass
from typing import Optional

import itertools

from .action import (
    GroupWord,
    _level_walk,
    _step_word,
    as_group_word,
    check_level_cap,
    free_reduce,
    iter_level_words,
    iter_reduced_words,
    level_word,
    restrict_word,
    stabilizes_level,
)
from .errors import (
    LevelTooLarge,
    NotContractingWithinCaps,
    NotInStabilizer,
    NotInvertible,
    QuotientTooLarge,
    RaggedTuples,
    SelfSimError,
)
from .limits import (
    DEFAULT_NUCLEUS_DEPTH,
    DEFAULT_NUCLEUS_SIZE,
    DEFAULT_QUOTIENT_CAP,
    MEMO_LIMIT,
)
from .mealy import MealyAutomaton, _cyclic_components


@dataclass(frozen=True)
class WpVerdict:
    """Decision for one word: Identity or NonIdentity.

    NonIdentity carries a moved input word when one was exhibited; Identity
    carries a certificate: the residual closure for the closure method, the
    membership level for the level method.
    """
    decision: str
    witness: Optional[tuple]
    certificate: Optional[tuple]
    method: str

    @property
    def identity(self) -> bool:
        return self.decision == "Identity"


def _closure_scan(aut, letters, stop_on_moved):
    """Breadth-first walk of the residual graph of `letters`.

    Returns (witness, visited): witness is a shortest moved input word when
    `stop_on_moved` and the action is nontrivial, else None; visited lists
    the reduced residual words in discovery order (complete when no witness
    was requested or none exists).
    """
    alphabet = aut.alphabet
    seen = {letters}
    order = [letters]
    queue = deque([(letters, ())])
    while queue:
        cur, prefix = queue.popleft()
        for x in alphabet:
            y, res = _step_word(aut, cur, x)
            if stop_on_moved and y != x:
                return prefix + (x,), order
            if res not in seen:
                seen.add(res)
                order.append(res)
                queue.append((res, prefix + (x,)))
    return None, order


def restriction_closure(aut: MealyAutomaton, w):
    """All residuals of w (including w), reduced, in breadth-first order."""
    letters = as_group_word(aut, w).letters
    _, order = _closure_scan(aut, letters, False)
    return tuple(GroupWord._reduced(ls) for ls in order)


def _identity_letters(aut, letters) -> tuple:
    """(is_identity, witness) with memoization on the reduced word."""
    memo = aut._cache.setdefault("wp", {})
    hit = memo.get(letters)
    if hit is None:
        witness, _ = _closure_scan(aut, letters, True)
        hit = (witness is None, witness)
        if len(memo) < MEMO_LIMIT:
            memo[letters] = hit
    return hit


def is_identity(aut: MealyAutomaton, w) -> WpVerdict:
    """Exact decision via the residual closure.

    Identity iff every residual fixes every single letter; otherwise a
    shortest moved word, found breadth-first over input prefixes, is
    reported as witness.
    """
    letters = as_group_word(aut, w).letters
    identity, witness = _identity_letters(aut, letters)
    if identity:
        cert = restriction_closure(aut, GroupWord._reduced(letters))
        return WpVerdict("Identity", None, cert, "closure")
    return WpVerdict("NonIdentity", witness, None, "closure")


def elements_equal(aut: MealyAutomaton, u, v) -> bool:
    """Equality in the generated group, decided by the closure engine."""
    a = as_group_word(aut, u)
    b = as_group_word(aut, v)
    return _identity_letters(aut, (a * b.inverse()).letters)[0]


# -- level-wise membership --------------------------------------------------

def fragile_member(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """w fixes level k and all its depth-k residuals reduce to the empty word.

    Checking depth exactly k suffices: residuals of freely trivial words are
    freely trivial.
    """
    if k < 1:
        raise LevelTooLarge("membership level must be >= 1")
    check_level_cap(aut, k, cap)
    letters = as_group_word(aut, w).letters
    return _level_walk(aut, letters, k, aut._cache.setdefault("fragile", {}), True)


def fragile_index(aut: MealyAutomaton, w, kmax: int, cap=None):
    """Least k <= kmax with fragile_member true, or None.

    Every positive answer is re-checked at k + 1 (memberships are nested),
    when k + 1 fits under the enumeration cap.
    """
    if kmax < 1:
        raise LevelTooLarge("kmax must be >= 1")
    for k in range(1, kmax + 1):
        if fragile_member(aut, w, k, cap=cap):
            try:
                monotone = fragile_member(aut, w, k + 1, cap=cap)
            except LevelTooLarge:
                monotone = True
            if not monotone:
                raise SelfSimError(
                    "membership at level %d did not persist at level %d" % (k, k + 1))
            return k
    return None


def wp_fragile(aut: MealyAutomaton, w, kmax: int, cap=None) -> WpVerdict:
    """Word problem via the level-wise route.

    Identity iff a membership level <= kmax exists.  A NonIdentity verdict
    carries a moved word when some level <= kmax is not stabilized; if all
    are, the verdict reports exhaustion without a witness.
    """
    k = fragile_index(aut, w, kmax, cap=cap)
    if k is not None:
        return WpVerdict("Identity", None, (k,), "fragile")
    letters = as_group_word(aut, w).letters
    for j in range(1, kmax + 1):
        if not stabilizes_level(aut, GroupWord._reduced(letters), j, cap=cap):
            witness = _moved_word_at_level(aut, letters, j)
            return WpVerdict("NonIdentity", witness, None, "fragile")
    return WpVerdict("NonIdentity", None, None, "fragile")


def _moved_word_at_level(aut, letters, k):
    """Lexicographically first word of length <= k moved by the word."""
    def rec(ls, prefix):
        if len(prefix) == k:
            return None
        for x in aut.alphabet:
            y, res = _step_word(aut, ls, x)
            if y != x:
                return prefix + (x,)
            found = rec(res, prefix + (x,))
            if found is not None:
                return found
        return None

    return rec(letters, ())


def virtual_endo(aut: MealyAutomaton, u, w) -> GroupWord:
    """Erased residual of w at the level word u; w must stabilize level |u|."""
    u = level_word(aut, u)
    word = as_group_word(aut, w)
    if not stabilizes_level(aut, word, len(u)):
        raise NotInStabilizer(
            "word does not stabilize level %d" % len(u))
    return restrict_word(aut, word, u)


def embed_in_product(aut: MealyAutomaton, w, k: int, cap=None):
    """All level-k residual components, as a dict keyed by the level word."""
    if k < 1:
        raise LevelTooLarge("embedding level must be >= 1")
    check_level_cap(aut, k, cap)
    word = as_group_word(aut, w)
    if not stabilizes_level(aut, word, k, cap=cap):
        raise NotInStabilizer("word does not stabilize level %d" % k)
    return {u: restrict_word(aut, word, u) for u in iter_level_words(aut, k, cap=cap)}


def is_identity_in_Gk(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """Identity in the level-k quotient group; equivalent to fragile_member."""
    return fragile_member(aut, w, k, cap=cap)


# -- abelianization ----------------------------------------------------------

def exponent_sums(w, generators):
    """Signed occurrence counts per generator, in the given order."""
    letters = w.letters if isinstance(w, GroupWord) else tuple(w)
    sums = {g: 0 for g in generators}
    for g, s in letters:
        if g in sums:
            sums[g] += s
    return tuple(sums[g] for g in generators)


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
        return word in self.perms

    def __repr__(self):
        return "Nucleus(%s)" % ", ".join(str(w) for w in self.elements)


def _lex_key(aut, letters):
    return tuple((aut.state_index(g), 0 if s > 0 else 1) for g, s in letters)


def shortest_representative(aut: MealyAutomaton, w, max_len: int):
    """First reduced word equal to w in the group, by length then letter order."""
    target = as_group_word(aut, w)
    gens = [s for s in aut.states if s != aut.sink]
    for ls in iter_reduced_words(gens, max_len):
        if _identity_letters(aut, (GroupWord._reduced(ls) * target.inverse()).letters)[0]:
            return GroupWord._reduced(ls)
    return None


def nucleus(aut: MealyAutomaton, depth_cap=None, size_cap=None) -> Nucleus:
    """Smallest restriction- and inverse-closed set the pair products fall back into.

    Seeded with the states and their inverses closed under residuals; then,
    for every pair product, residual chains are followed until they re-enter
    the set, and the recurring elements (those on or past a residual cycle)
    are adjoined.  Caps turn non-stabilization into an error instead of a
    hang.
    """
    if not aut.invertible:
        raise NotInvertible("nucleus needs an invertible automaton")
    depth_cap = DEFAULT_NUCLEUS_DEPTH if depth_cap is None else depth_cap
    size_cap = DEFAULT_NUCLEUS_SIZE if size_cap is None else size_cap

    reps = []
    rep_set = set()
    member_of = {}

    def find_rep(ls):
        if ls in rep_set:
            return ls
        hit = member_of.get(ls)
        if hit is None:
            hit = _find_in(aut, ls, reps)
            if hit is not None:
                member_of[ls] = hit
        return hit

    def add_word(ls):
        if find_rep(ls) is not None:
            return False
        reps.append(ls)
        rep_set.add(ls)
        if len(reps) > size_cap:
            raise NotContractingWithinCaps(
                "nucleus exceeded size cap %d" % size_cap)
        return True

    # seed: identity, states, inverses, closed under residuals
    add_word(())
    seeds = [((s, 1),) for s in aut.states if s != aut.sink]
    seeds += [((s, -1),) for s in aut.states if s != aut.sink]
    for seed in seeds:
        _, closure = _closure_scan(aut, seed, False)
        for ls in closure:
            add_word(ls)

    changed = True
    while changed:
        changed = False
        snapshot = list(reps)
        for g in snapshot:
            for h in snapshot:
                w0 = free_reduce(g + h)
                if find_rep(w0) is not None:
                    continue
                # residual graph of the product outside the current set
                nodes = [w0]
                node_set = {w0}
                succ = {}
                frontier = [w0]
                levels = 0
                while frontier:
                    levels += 1
                    if levels > depth_cap:
                        raise NotContractingWithinCaps(
                            "residual chains exceeded depth cap %d" % depth_cap)
                    nxt = []
                    for wl in frontier:
                        kids = []
                        for x in aut.alphabet:
                            _, r = _step_word(aut, wl, x)
                            kids.append(r)
                        succ[wl] = kids
                        for r in kids:
                            if r in node_set or find_rep(r) is not None:
                                continue
                            node_set.add(r)
                            nodes.append(r)
                            nxt.append(r)
                    frontier = nxt
                persistent = _cycle_reachable(nodes, node_set, succ)
                for wl in persistent:
                    if add_word(wl):
                        changed = True
                    inv = tuple((gg, -ss) for gg, ss in reversed(wl))
                    if add_word(inv):
                        changed = True

    reps_final = []
    for ls in reps:
        best = _improve_rep(aut, ls)
        reps_final.append(best)
    reps_final.sort(key=lambda ls: (len(ls), _lex_key(aut, ls)))

    perms, sections = {}, {}
    by_element = {ls: GroupWord._reduced(ls) for ls in reps_final}
    for ls in reps_final:
        rep = by_element[ls]
        perm, secs = {}, {}
        for x in aut.alphabet:
            y, res = _step_word(aut, ls, x)
            perm[x] = y
            target = res if res in by_element else _find_in(aut, res, reps_final)
            if target is None:
                raise NotContractingWithinCaps(
                    "residual left the computed set; raise the caps")
            secs[x] = by_element[target]
        perms[rep] = perm
        sections[rep] = secs
    return Nucleus([by_element[ls] for ls in reps_final], perms, sections)


def _find_in(aut, letters, reps):
    inv = tuple((g, -s) for g, s in reversed(letters))
    for r in reps:
        if _identity_letters(aut, free_reduce(r + inv))[0]:
            return r
    return None


def _improve_rep(aut, letters):
    """Shortest equal word when the search space is small; otherwise keep."""
    gens = [s for s in aut.states if s != aut.sink]
    space = sum((2 * len(gens)) ** n for n in range(len(letters) + 1))
    if space > 20000:
        return letters
    found = shortest_representative(aut, GroupWord._reduced(letters), len(letters))
    return found.letters if found is not None else letters


def _cycle_reachable(nodes, node_set, succ):
    """Words lying on a residual cycle or reachable from one, discovery order."""
    inner = {node: [r for r in succ[node] if r in node_set] for node in nodes}
    _, comps, cyclic = _cyclic_components(nodes, inner)
    persistent = {node for ci in cyclic for node in comps[ci]}
    queue = deque(persistent)
    while queue:
        for r in inner[queue.popleft()]:
            if r not in persistent:
                persistent.add(r)
                queue.append(r)
    return [node for node in nodes if node in persistent]


# -- reducibility scan ---------------------------------------------------------

@dataclass(frozen=True)
class ReducibilityReport:
    status: str                       # Pass | Counterexample | Inconclusive
    counterexample: Optional[tuple]   # (GroupWord, letter)
    unresolved: tuple
    words_scanned: int
    max_chain: int


def check_reducible(aut: MealyAutomaton, max_len: int, max_depth: int) -> ReducibilityReport:
    """Scan all reduced words that fix a letter for residual chains that never shorten.

    For each such word, residuals taken at fixed letters are followed while
    their length stays equal to the word's; a chain that revisits a word is
    a proof that shortening never happens along it (Counterexample), a chain
    that only ends in shorter words or in words fixing no letter is fine.
    Chains cut off by max_depth leave the word unresolved.
    """
    if not aut.invertible:
        raise NotInvertible("reducibility scan needs an invertible automaton")
    gens = [s for s in aut.states if s != aut.sink]
    alphabet = aut.alphabet
    unresolved = []
    scanned = 0
    max_chain = 0

    for ls in iter_reduced_words(gens, max_len, include_empty=False):
        scanned += 1
        target = len(ls)
        first_fixed = None
        for x in alphabet:
            if _step_word(aut, ls, x)[0] == x:
                first_fixed = x
                break
        if first_fixed is None:
            continue
        safe = set()
        deep = False

        def descend(wl, path, depth):
            nonlocal max_chain, deep
            if depth > max_chain:
                max_chain = depth
            if depth > max_depth:
                deep = True
                return True
            for x in alphabet:
                y, r = _step_word(aut, wl, x)
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
            return ReducibilityReport(
                "Counterexample", (GroupWord._reduced(ls), first_fixed),
                (), scanned, max_chain)
        if deep:
            unresolved.append(GroupWord._reduced(ls))

    if unresolved:
        return ReducibilityReport("Inconclusive", None, tuple(unresolved), scanned, max_chain)
    return ReducibilityReport("Pass", None, (), scanned, max_chain)


# -- symmetric quotient ----------------------------------------------------------

def sym_quotient_order(aut: MealyAutomaton, cap=None) -> int:
    """Order of the permutation group the states induce on single letters."""
    if not aut.invertible:
        raise NotInvertible("level-one quotient needs an invertible automaton")
    cap = DEFAULT_QUOTIENT_CAP if cap is None else cap
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
    identity = tuple(range(n))
    seen = {identity}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen)


# -- dichotomy ---------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyResult:
    kind: str                      # Abelian | FreePair
    component: Optional[int]       # index into the tuples
    pair: Optional[tuple]          # indices of the two witnesses

    def __str__(self):
        if self.kind == "Abelian":
            return "Abelian"
        return "FreePair(component=%d, pair=%r)" % (self.component, self.pair)


def dichotomy(tuples) -> DichotomyResult:
    """Abelian iff all tuples commute componentwise as free-group words.

    Two free-group elements commute iff their commutator freely reduces to
    the empty word, so no root extraction is needed.  A failing component
    exhibits a rank-two free subgroup.
    """
    rows = []
    for row in tuples:
        cooked = tuple(
            item if isinstance(item, GroupWord) else GroupWord(tuple(item))
            for item in row)
        rows.append(cooked)
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
