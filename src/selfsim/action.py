"""Group words and their action on the letter tree.

Words over the states act on finite words over the alphabet: the leftmost
letter of a word acts first.  Reading one input letter x through a word
w = s1 s2 ... sn produces the image letter and the residual word

    w(x)     = sn(...s2(s1(x)))
    w after x = (s1 after x)(s2 after s1(x)) ... (sn after (s1...sn-1)(x))

i.e. per-letter residuals concatenate left to right, each taken at the image
of x under the prefix before it.  Residuals are returned freely reduced with
sink letters deleted; the letter-exact output sequences needed by the dual
path combinatorics come from dual_path instead.

The walks run on code words (see mealy.Core): a public function encodes its
word once with _encode_word, steps codes with _step_word, and decodes only
what it returns.
"""

from collections import deque, namedtuple
import itertools
import operator

from .errors import (
    AlphabetMismatch,
    BadGraph,
    Disconnected,
    LevelTooLarge,
    NoSink,
    NotInvertible,
    UnknownGenerator,
)
from .limits import DEFAULT_LEVEL_CAP, MEMO_LIMIT, check_int, number_text, power_exceeds
from .mealy import MealyAutomaton, symbol_str


def free_reduce(letters):
    """Cancel adjacent (g, +1)(g, -1) pairs; returns a tuple.

    A letter that is not a (generator, +-1) pair, or a word that is not
    iterable, is an UnknownGenerator, as it is on a machine (_encode_word).
    """
    try:
        letters = iter(letters)
    except TypeError:
        raise UnknownGenerator("a word is a sequence of (generator, +-1) letters, not %r"
                               % (letters,)) from None
    stack = []
    for item in letters:
        try:
            gen, sign = item
        except (TypeError, ValueError):
            gen = sign = None
        if sign not in (1, -1):
            raise UnknownGenerator("unknown generator %r" % (item,))
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


class GroupWord:
    """Freely reduced word over signed generators; immutable."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", free_reduce(letters))

    @classmethod
    def _reduced(cls, letters):
        w = object.__new__(cls)
        object.__setattr__(w, "letters", tuple(letters))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("GroupWord is immutable")

    def __mul__(self, other):
        return GroupWord(self.letters + other.letters)

    def inverse(self):
        return GroupWord._reduced(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = GroupWord()
        for _ in range(n):
            out = out * self
        return out

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def is_empty(self):
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return "GroupWord(%s)" % format_word(self)


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    return u * v * u.inverse() * v.inverse()


def format_word(word) -> str:
    letters = word.letters if isinstance(word, GroupWord) else tuple(word)
    if not letters:
        return "1"
    return " ".join(
        symbol_str(g) + ("^-1" if s < 0 else "") for g, s in letters)


def parse_word(text, aut: MealyAutomaton = None) -> GroupWord:
    """Parse whitespace separated tokens, inverses marked with ^-1.

    With an automaton, tokens must name states and sink letters are deleted
    (the sink is the identity).  Without one, tokens are taken as given.
    """
    if aut is not None:
        return as_group_word(aut, text)
    letters = []
    for token in text.split():
        if token.endswith("^-1"):
            letters.append((token[:-3], -1))
        else:
            letters.append((token, 1))
    return GroupWord(letters)


def _encode_word(aut: MealyAutomaton, w):
    """The code word of w (see mealy.Core): validated, sink-free and freely reduced.

    Takes a string, a GroupWord, or a sequence of (state, +-1) letters and
    bare states, in one pass with one table lookup per letter.
    """
    core = aut.core()
    if isinstance(w, str):
        table, items = core.tokens, w.split()
    else:
        table, items = core.codes, w.letters if isinstance(w, GroupWord) else w
    stack = []
    try:
        for item in items:
            c = table.get(item)
            if c is None:
                if table is core.tokens:
                    raise UnknownGenerator("unknown generator %r"
                                           % (item[:-3] if item.endswith("^-1") else item))
                c = _bare_state_code(core, item)
            if c:
                if stack and stack[-1] == -c:
                    stack.pop()
                else:
                    stack.append(c)
    except TypeError:                    # not iterable, or a letter that is not hashable
        raise UnknownGenerator("a word is a string or a sequence of generators, not %r"
                               % (w,)) from None
    return tuple(stack)


def _bare_state_code(core, item):
    """Code of an item that is not a (state, +-1) letter: a bare state, or UnknownGenerator."""
    if isinstance(item, tuple) and len(item) == 2 and item[1] in (1, -1):
        raise UnknownGenerator("unknown generator %r" % (item[0],))
    c = core.codes.get((item, 1))
    if c is None:
        raise UnknownGenerator("unknown generator %r" % (item,))
    return c


def _decode_word(aut: MealyAutomaton, word) -> GroupWord:
    return GroupWord._reduced(tuple(map(aut.core().letters.__getitem__, word)))


def _inverse(word):
    return tuple(-c for c in reversed(word))


def _product(u, v):
    """Freely reduced product of two reduced code words."""
    if not u or not v or u[-1] != -v[0]:
        return u + v
    n = min(len(u), len(v))
    i = 1
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[:len(u) - i] + v[i:]


def as_group_word(aut: MealyAutomaton, w) -> GroupWord:
    """Coerce strings, token sequences or GroupWords; deletes sink letters."""
    return _decode_word(aut, _encode_word(aut, w))


def reduce_word(aut: MealyAutomaton, w) -> GroupWord:
    """Delete sink letters, then freely reduce."""
    return as_group_word(aut, w)


def _letter_indices(aut: MealyAutomaton, u):
    """Alphabet indices of an input word given as a string or a sequence of letters."""
    if isinstance(u, str):
        u = u.split()
    aidx = aut._aidx
    out = []
    try:
        for x in u:
            i = aidx.get(x)
            if i is None:
                raise AlphabetMismatch("letter %r is not in the alphabet" % (x,))
            out.append(i)
    except TypeError:                    # not iterable, or a letter that is not hashable
        raise AlphabetMismatch("an input word is a string or a sequence of letters, not %r"
                               % (u,)) from None
    return tuple(out)


def _require_invertible_for(aut, word):
    if not aut.invertible and any(c < 0 for c in word):
        raise NotInvertible("inverse letters need an invertible automaton")


def _step_word(rows, word, x):
    """One input letter through a reduced code word: (image letter, residual code word).

    `rows` are the tables of mealy.Core; letters are alphabet indices.
    """
    stack = []
    for c in word:
        x, r = rows[c][x]
        if r:
            if stack and stack[-1] == -r:
                stack.pop()
            else:
                stack.append(r)
    return x, tuple(stack)


def _restrict(rows, word, u):
    """Residual code word of `word` past the letter indices `u`."""
    for x in u:
        _, word = _step_word(rows, word, x)
    return word


def _public_word(aut, w):
    """Encode w and require an invertible machine for inverse letters."""
    word = _encode_word(aut, w)
    _require_invertible_for(aut, word)
    return word


def apply_word(aut: MealyAutomaton, w, u):
    """Image of the input word u under the action of w; same length as u."""
    word = _public_word(aut, w)
    rows, alphabet = aut.core().rows, aut.alphabet
    images = []
    for x in _letter_indices(aut, u):
        y, word = _step_word(rows, word, x)
        images.append(alphabet[y])
    return tuple(images)


def restrict_word(aut: MealyAutomaton, w, u) -> GroupWord:
    """Residual of w past the input word u, freely reduced and sink-free."""
    word = _public_word(aut, w)
    return _decode_word(aut, _restrict(aut.core().rows, word, _letter_indices(aut, u)))


# perm: letter -> image letter; sections: letter -> residual GroupWord (both dicts).
SelfSimilarRep = namedtuple("SelfSimilarRep", "perm sections")


def wreath(aut: MealyAutomaton, w) -> SelfSimilarRep:
    word = _public_word(aut, w)
    rows, alphabet = aut.core().rows, aut.alphabet
    perm, sections = {}, {}
    for x, letter in enumerate(alphabet):
        y, res = _step_word(rows, word, x)
        perm[letter] = alphabet[y]
        sections[letter] = _decode_word(aut, res)
    return SelfSimilarRep(perm, sections)


def level1_permutation(aut: MealyAutomaton, w) -> dict:
    word = _public_word(aut, w)
    rows, alphabet = aut.core().rows, aut.alphabet
    return {letter: alphabet[_step_word(rows, word, x)[0]] for x, letter in enumerate(alphabet)}


def check_level_cap(aut: MealyAutomaton, k: int, cap=None):
    """Raise LevelTooLarge unless k is an int >= 0 and neither |X|^k nor k passes the cap.

    The cap must be an int >= 1.
    """
    check_int(k, 0, "level", LevelTooLarge)
    if cap is None:
        cap = DEFAULT_LEVEL_CAP
    else:
        check_int(cap, 1, "level cap", LevelTooLarge)
    if power_exceeds(len(aut.alphabet), k, cap):
        raise LevelTooLarge(
            "level %s enumeration has %d^%s entries, cap is %s"
            % (number_text(k), len(aut.alphabet), number_text(k), number_text(cap)))
    if k > cap:                      # one letter: 1^k never passes the cap
        raise LevelTooLarge("level %s is deeper than the cap %s"
                            % (number_text(k), number_text(cap)))


def stabilizes_level(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """True iff w fixes every word of length k.

    Evaluated by the memoized wreath walk, which agrees with enumerating
    the level but shares repeated sections.
    """
    check_level_cap(aut, k, cap)
    return _level_walk(aut, _public_word(aut, w), k, False)


def _memo(aut, name):
    """The machine's memo `name`: a plain dict, made on first use."""
    memo = aut._cache.get(name)
    if memo is None:
        memo = aut._cache[name] = {}
    return memo


def _remember(memo, key, value, limit):
    """Store key -> value unless the memo already holds `limit` entries.

    Callers pass their module's MEMO_LIMIT, read at call time, so a test can
    lower the bound of one module's memos.
    """
    if len(memo) < limit:
        memo[key] = value


def _level_walk(aut, word, k, empty_leaves):
    """True iff the code word fixes every letter down to depth k, walked over residuals.

    With `empty_leaves` the depth-k residuals must also be empty.  Distinct
    residuals below one word are walked once, depth first in letter order,
    and the walk stops at the first failure.  The memo (`fragile` with
    `empty_leaves`, else `stab`) maps (code word, depth) to the answer.
    Iterative, so only the level cap bounds k.
    """
    if k == 0:
        return not word if empty_leaves else True
    memo = _memo(aut, "fragile" if empty_leaves else "stab")
    result = memo.get((word, k))
    if result is not None:
        return result
    rows, letters = aut.core().rows, range(len(aut.alphabet))
    # a frame's set only skips a residual already met at an earlier letter,
    # so a one-letter frame needs none; and only on one letter can k, and so
    # the stack, go deeper than log2 of the level cap
    many = len(letters) > 1
    stack = [(word, k, iter(letters), set() if many else None)]
    while stack:
        ls, depth, todo, seen = stack[-1]
        if result is not False:          # first visit, or the last child held
            result = True
            for x in todo:
                y, res = _step_word(rows, ls, x)
                if y != x:
                    result = False
                    break
                if seen is not None:
                    if res in seen:
                        continue
                    seen.add(res)
                if not res:                  # the empty word fixes every level
                    result = True
                elif depth == 1:
                    result = not empty_leaves
                else:
                    result = memo.get((res, depth - 1))
                    if result is None:
                        stack.append((res, depth - 1, iter(letters), set() if many else None))
                        break
                if not result:
                    break
            if result is None:
                continue
        _remember(memo, (ls, depth), result, MEMO_LIMIT)
        stack.pop()
    return result


def iter_level_words(aut: MealyAutomaton, k: int, cap=None):
    """All words of length k over the alphabet, in lexicographic letter order.

    The level is checked at the call, before anything is listed.
    """
    check_level_cap(aut, k, cap)
    return itertools.product(aut.alphabet, repeat=k)


def _hit_sweep(letters, inverse, max_len, start, step, hit):
    """(word, value) for the nonempty reduced words of length <= max_len whose value hits.

    Words come by length, within a length in the order of their prefixes,
    and then in the order of `letters`; `inverse` maps each letter to its
    inverse letter.  A word's value is step(value of the word without its
    last letter, last letter), and the empty word's value is `start`.
    What follows a word depends only on its state, the pair (value, last
    letter), and there are far fewer states than words.  One breadth-first
    walk numbers the states that words of length <= max_len reach,
    computing each state's step once per letter that may follow it, and
    asks `hit` once per state.  When no state hits (or max_len <= 0) the
    sweep ends there and lists no word.  When some states hit and others
    do not, one backward breadth-first walk from the hit states
    (_hit_distances) gives each state the fewest letters that still reach
    a hit; when every state but the root hits, each of those counts is 0
    and no backward walk is made.  The words are then listed level by
    level, and a prefix is kept only while a hit lies within the letters
    left.  Values must be hashable.  States are numbered in the order they
    are found and kept in lists, so the listing does not depend on hashing.
    """
    after = {lt: [c for c in letters if c != inverse[lt]] for lt in letters}
    after[None] = letters
    found = {lt: {} for lt in letters}   # found[lt][value]: the state (value, lt)
    values, lasts, hits = [start], [None], [False]
    succ = []                       # succ[i]: the states after state i, in the order of after[...]
    frontier = [0]
    for _ in range(max_len):
        fresh = []
        for i in frontier:
            value, kids = values[i], []
            for lt in after[lasts[i]]:
                nxt = step(value, lt)
                seen = found[lt]
                j = seen.get(nxt)
                if j is None:
                    j = seen[nxt] = len(values)
                    values.append(nxt)
                    lasts.append(lt)
                    hits.append(hit(nxt))
                    fresh.append(j)
                kids.append(j)
            succ.append(kids)
        frontier = fresh
    if not any(hits):
        return
    if all(itertools.islice(hits, 1, None)):
        dist = [0] * len(hits)
    else:
        dist = _hit_distances(succ, hits, max_len)
    # letters from each state with successors to the nearest hit past it;
    # states first reached at the last level have no entry
    ahead = [1 + min(map(dist.__getitem__, kids), default=max_len) for kids in succ]
    level = [((), 0)] if ahead[0] <= max_len else []
    for n in range(1, max_len + 1):
        left = max_len - n
        fresh = []
        for word, i in level:
            for lt, j in zip(after[lasts[i]], succ[i]):
                longer = word + (lt,)
                if hits[j]:
                    yield longer, values[j]
                if left and ahead[j] <= left:
                    fresh.append((longer, j))
        level = fresh


def _hit_distances(succ, hits, max_len):
    """Fewest letters from each state to a hit state, itself included.

    One backward breadth-first walk from the hit states over the successor
    lists of _hit_sweep's forward walk; a state with no hit within max_len
    letters gets max_len + 1.
    """
    far = max_len + 1
    dist = [0 if h else far for h in hits]
    preds = [[] for _ in hits]
    for i, kids in enumerate(succ):
        for j in kids:
            preds[j].append(i)
    queue = [j for j, h in enumerate(hits) if h]
    for j in queue:
        d = dist[j] + 1
        for i in preds[j]:
            if dist[i] == far:
                dist[i] = d
                queue.append(i)
    return dist


def _sweep_count(width, max_len):
    """Number of nonempty reduced words of length <= max_len over `width` letters.

    The letters are closed under inverses.  With a hit that is always true,
    this is the number of words _hit_sweep lists.
    """
    branching = width - 1
    if branching == 1:
        return width * max_len
    return width * (branching ** max_len - 1) // (branching - 1)


def _sweep_rank(letters, inverse, word):
    """1-based position of the nonempty reduced word in _hit_sweep's order.

    That is its place in the listing when the hit is always true.
    """
    width, index, options = len(letters), 0, letters
    for lt in word:
        index = index * (width - 1) + options.index(lt)
        options = [c for c in letters if c != inverse[lt]]
    return _sweep_count(width, len(word) - 1) + index + 1


def _gen_codes(aut):
    """Positive codes of the non-sink states, in state order."""
    return [i + 1 for i, s in enumerate(aut.states) if s != aut.sink]


def _signed_codes(codes):
    """Letters c1, -c1, c2, -c2, ... of positive codes, and their inverse map."""
    letters = [c for code in codes for c in (code, -code)]
    return letters, {c: -c for c in letters}


def _check_sweep_cap(width, branching, max_len, per_word, cap, what):
    """Raise LevelTooLarge when a sweep's work would pass `cap`.

    The sweep visits `width` words of length 1 and `branching` times as
    many at each further length, up to max_len, and does `per_word` units
    of work for each.  Freely reduced words over letters closed under
    inverses have branching width - 1; positive words have branching width.
    The count stops at the first length past the cap, so it never costs
    more than the sweep it guards, whatever max_len is.  A max_len that is
    not an int >= 0 is refused, as no sweep has a meaning for it, and so
    is a cap that is not an int >= 1.
    """
    check_int(max_len, 0, what + " length", LevelTooLarge)
    if cap is None:
        cap = DEFAULT_LEVEL_CAP
    else:
        check_int(cap, 1, "level cap", LevelTooLarge)
    total, count = 0, width
    for _ in range(max_len):
        if not count or total * per_word > cap:
            break
        total += count
        count *= branching
    if total * per_word > cap:
        raise LevelTooLarge("%s would walk at least %d words, cap is %d"
                            % (what, total * per_word, cap))


def iter_reduced_words(generators, max_len: int, include_empty: bool = True):
    """Freely reduced words over the generators, in _hit_sweep's order.

    That is by length, then prefix order, then letter order, and the letter
    order interleaves signs: g1, g1^-1, g2, g2^-1, ...  The listing is
    _hit_sweep with no value and a hit that is always true.  A negative
    max_len is refused, as for the sweeps.
    """
    check_int(max_len, 0, "reduced word length", LevelTooLarge)
    letters = [(g, s) for g in generators for s in (1, -1)]
    inverse = {(g, s): (g, -s) for g, s in letters}
    sweep = _hit_sweep(letters, inverse, max_len, None, lambda value, lt: None,
                       lambda value: True)
    words = map(operator.itemgetter(0), sweep)
    return itertools.chain([()], words) if include_empty else words


# -- dual path combinatorics ---------------------------------------------

class DualPath(namedtuple("DualPath", "start inputs outputs vertices")):
    """Trace of reading a positive state word from a letter of the alphabet.

    `vertices` has one more entry than `inputs`; `outputs` is the letter
    exact residual sequence, sink occurrences included.
    """
    __slots__ = ()

    @property
    def condensed(self):
        """Vertex sequence without consecutive repetitions."""
        out = [self.vertices[0]]
        for v in self.vertices[1:]:
            if v != out[-1]:
                out.append(v)
        return tuple(out)

    def full(self):
        """Alternating vertex, (input, output), vertex, ... sequence."""
        items = [self.vertices[0]]
        for i, (a, b) in enumerate(zip(self.inputs, self.outputs)):
            items.append((a, b))
            items.append(self.vertices[i + 1])
        return tuple(items)

    def __repr__(self):
        steps = "".join(
            " -(%s|%s)-> %s" % (a, b, v)
            for (a, b), v in zip(zip(self.inputs, self.outputs), self.vertices[1:]))
        return "DualPath(%s%s)" % (self.vertices[0], steps)


def positive_state_word(aut: MealyAutomaton, u):
    """Coerce a positive word over the states (sink allowed, kept)."""
    try:
        word = tuple(u.split() if isinstance(u, str) else u)
        for a in word:
            if a not in aut._sidx:
                raise UnknownGenerator("unknown state %r" % (a,))
    except TypeError:                    # not iterable, or a state that is not hashable
        raise UnknownGenerator("a positive word is a string or a sequence of states, not %r"
                               % (u,)) from None
    return word


def _require_letter(aut, x):
    """Refuse x unless it is a letter of the alphabet; an unhashable x is none."""
    try:
        known = x in aut._aidx
    except TypeError:
        known = False
    if not known:
        raise AlphabetMismatch("letter %r is not in the alphabet" % (x,))


def dual_path(aut: MealyAutomaton, x, u) -> DualPath:
    """Walk the dual machine from letter x reading the positive word u."""
    _require_letter(aut, x)
    u = positive_state_word(aut, u)
    vertices = [x]
    outputs = []
    v = x
    for a in u:
        outputs.append(aut.next(a, v))
        v = aut.out(a, v)
        vertices.append(v)
    return DualPath(x, u, tuple(outputs), tuple(vertices))


def loops_at(aut: MealyAutomaton, x):
    """States looping at letter x with sink output: the sink and the states not moving x."""
    if aut.sink is None:
        raise NoSink("loops_at needs a declared sink")
    _require_letter(aut, x)
    return tuple(s for s in aut.states
                 if aut.out(s, x) == x and aut.next(s, x) == aut.sink)


class Noose(namedtuple("Noose", "start stop letters outputs")):
    """First excursion of a dual path that leaves x and comes back to it.

    `start` and `stop` are slice indices into the input word.
    """
    __slots__ = ()

    def __repr__(self):
        return "Noose(%d:%d, %s)" % (self.start, self.stop, " ".join(map(str, self.letters)))


def find_noose(aut: MealyAutomaton, x, v):
    """First factor of v whose dual path leaves x and returns with no visit between."""
    path = dual_path(aut, x, v)
    verts = path.vertices
    depart = None
    for i in range(1, len(verts)):
        if verts[i] != x:
            depart = i
            break
    if depart is None:
        return None
    for j in range(depart + 1, len(verts)):
        if verts[j] == x:
            return Noose(depart - 1, j,
                         path.inputs[depart - 1:j], path.outputs[depart - 1:j])
    return None


def erase_id(word, sink="id"):
    """Drop sink letters (either sign); no free reduction, order preserved."""
    if isinstance(word, GroupWord):
        items = word.letters
    else:
        items = tuple(word)
    out = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2 and item[1] in (1, -1):
            if item[0] != sink:
                out.append(item)
        elif item != sink:
            out.append(item)
    return tuple(out)


def transposition_word(g, i, j) -> GroupWord:
    """Word acting on the vertex letters as the transposition (i, j).

    Built from an oriented path between the vertices: traverse the path,
    then undo all but its last edge.
    """
    if i not in g.vertices or j not in g.vertices:
        raise BadGraph("unknown vertex in transposition request")
    if i == j:
        raise BadGraph("transposition endpoints must differ")
    adj = g.adjacency()
    prev = {i: None}
    queue = deque([i])
    while queue and j not in prev:
        v = queue.popleft()
        for e, other in adj[v]:
            if other not in prev:
                prev[other] = (v, e)
                queue.append(other)
    if j not in prev:
        raise Disconnected("no path between %r and %r" % (i, j))
    hops = []
    v = j
    while prev[v] is not None:
        src, e = prev[v]
        hops.append((e.name, 1 if e.tail == src else -1))
        v = src
    hops.reverse()
    path = GroupWord(hops)
    return path * GroupWord(hops[:-1]).inverse()
