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
"""

from collections import deque

from .errors import (
    AlphabetMismatch,
    BadGraph,
    Disconnected,
    LevelTooLarge,
    NoSink,
    NotInvertible,
    UnknownGenerator,
)
from .limits import DEFAULT_LEVEL_CAP, MEMO_LIMIT
from .mealy import MealyAutomaton, symbol_str


def free_reduce(letters):
    """Cancel adjacent (g, +1)(g, -1) pairs; returns a tuple."""
    stack = []
    for gen, sign in letters:
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
    letters = []
    for token in text.split():
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        else:
            name, sign = token, 1
        if aut is not None:
            if name not in aut._sidx and token in aut._sidx:
                name, sign = token, 1
            if name not in aut._sidx:
                raise UnknownGenerator("unknown generator %r" % name)
            if name == aut.sink:
                continue
        letters.append((name, sign))
    return GroupWord(letters)


def as_group_word(aut: MealyAutomaton, w) -> GroupWord:
    """Coerce strings, token sequences or GroupWords; deletes sink letters."""
    if isinstance(w, str):
        return parse_word(w, aut)
    if isinstance(w, GroupWord):
        letters = w.letters
    else:
        letters = []
        for item in w:
            if isinstance(item, tuple) and len(item) == 2 and item[1] in (1, -1):
                letters.append(item)
            else:
                letters.append((item, 1))
    for g, _ in letters:
        if g not in aut._sidx:
            raise UnknownGenerator("unknown generator %r" % (g,))
    if aut.sink is not None:
        letters = [(g, s) for g, s in letters if g != aut.sink]
    return GroupWord(letters)


def reduce_word(aut: MealyAutomaton, w) -> GroupWord:
    """Delete sink letters, then freely reduce."""
    return as_group_word(aut, w)


def level_word(aut: MealyAutomaton, u):
    """Coerce an input word over the alphabet to a tuple of letters."""
    if isinstance(u, str):
        u = tuple(u.split())
    else:
        u = tuple(u)
    for x in u:
        if x not in aut._aidx:
            raise AlphabetMismatch("letter %r is not in the alphabet" % (x,))
    return u


def _require_invertible_for(aut, letters):
    if not aut.invertible and any(s < 0 for _, s in letters):
        raise NotInvertible("inverse letters need an invertible automaton")


def _step_word(aut, letters, x):
    """One input letter through a reduced word: (image letter, residual letters)."""
    sink = aut.sink
    nxt = aut._next
    out = aut._out
    y = x
    stack = []
    for g, s in letters:
        if s > 0:
            r = nxt[(g, y)]
            y = out[(g, y)]
        else:
            y = aut.out_inverse(g, y)
            r = nxt[(g, y)]
        if r == sink:
            continue
        if stack and stack[-1][0] == r and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((r, s))
    return y, tuple(stack)


def apply_word(aut: MealyAutomaton, w, u):
    """Image of the input word u under the action of w; same length as u."""
    letters = as_group_word(aut, w).letters
    _require_invertible_for(aut, letters)
    u = level_word(aut, u)
    images = []
    for x in u:
        y, letters = _step_word(aut, letters, x)
        images.append(y)
    return tuple(images)


def restrict_word(aut: MealyAutomaton, w, u) -> GroupWord:
    """Residual of w past the input word u, freely reduced and sink-free."""
    letters = as_group_word(aut, w).letters
    _require_invertible_for(aut, letters)
    for x in level_word(aut, u):
        _, letters = _step_word(aut, letters, x)
    return GroupWord._reduced(letters)


class SelfSimilarRep:
    """Level-one permutation together with the residual at each letter."""

    __slots__ = ("perm", "sections")

    def __init__(self, perm, sections):
        self.perm = dict(perm)
        self.sections = dict(sections)

    def __eq__(self, other):
        return (isinstance(other, SelfSimilarRep)
                and self.perm == other.perm and self.sections == other.sections)

    def __repr__(self):
        return "SelfSimilarRep(perm=%r, sections=%r)" % (self.perm, self.sections)


def wreath(aut: MealyAutomaton, w) -> SelfSimilarRep:
    letters = as_group_word(aut, w).letters
    _require_invertible_for(aut, letters)
    perm, sections = {}, {}
    for x in aut.alphabet:
        y, res = _step_word(aut, letters, x)
        perm[x] = y
        sections[x] = GroupWord._reduced(res)
    return SelfSimilarRep(perm, sections)


def level1_permutation(aut: MealyAutomaton, w) -> dict:
    letters = as_group_word(aut, w).letters
    _require_invertible_for(aut, letters)
    return {x: _step_word(aut, letters, x)[0] for x in aut.alphabet}


def check_level_cap(aut: MealyAutomaton, k: int, cap=None):
    cap = DEFAULT_LEVEL_CAP if cap is None else cap
    if len(aut.alphabet) ** k > cap:
        raise LevelTooLarge(
            "level %d enumeration has %d^%d entries, cap is %d"
            % (k, len(aut.alphabet), k, cap))


def stabilizes_level(aut: MealyAutomaton, w, k: int, cap=None) -> bool:
    """True iff w fixes every word of length k.

    Evaluated by the memoized wreath walk, which agrees with enumerating
    the level but shares repeated sections.
    """
    if k < 0:
        raise LevelTooLarge("level must be >= 0")
    check_level_cap(aut, k, cap)
    letters = as_group_word(aut, w).letters
    _require_invertible_for(aut, letters)
    return _level_walk(aut, letters, k, aut._cache.setdefault("stab", {}), False)


def _level_walk(aut, letters, k, memo, empty_leaves):
    """True iff the word fixes every letter down to depth k, walked over residuals.

    With `empty_leaves` the depth-k residuals must also be empty.  Distinct
    residuals below one word are walked once, depth first in letter order,
    and the walk stops at the first failure.  `memo` maps (letters, depth)
    to the answer; it stops growing at MEMO_LIMIT entries.  Iterative, so
    only the level cap bounds k.
    """
    if k == 0:
        return not letters if empty_leaves else True
    result = memo.get((letters, k))
    if result is not None:
        return result
    alphabet = aut.alphabet
    stack = [(letters, k, iter(alphabet), set())]
    while stack:
        ls, depth, todo, seen = stack[-1]
        if result is not False:          # first visit, or the last child held
            result = True
            for x in todo:
                y, res = _step_word(aut, ls, x)
                if y != x:
                    result = False
                    break
                if res in seen:
                    continue
                seen.add(res)
                if depth == 1:
                    result = not res if empty_leaves else True
                else:
                    result = memo.get((res, depth - 1))
                    if result is None:
                        stack.append((res, depth - 1, iter(alphabet), set()))
                        break
                if not result:
                    break
            if result is None:
                continue
        if len(memo) < MEMO_LIMIT:
            memo[(ls, depth)] = result
        stack.pop()
    return result


def iter_level_words(aut: MealyAutomaton, k: int, cap=None):
    """All words of length k over the alphabet, in lexicographic letter order."""
    check_level_cap(aut, k, cap)
    if k == 0:
        yield ()
        return
    alphabet = aut.alphabet
    word = [alphabet[0]] * k
    idx = [0] * k
    n = len(alphabet)
    while True:
        yield tuple(word)
        pos = k - 1
        while pos >= 0 and idx[pos] == n - 1:
            idx[pos] = 0
            word[pos] = alphabet[0]
            pos -= 1
        if pos < 0:
            return
        idx[pos] += 1
        word[pos] = alphabet[idx[pos]]


def iter_reduced_words(generators, max_len: int, include_empty: bool = True):
    """Freely reduced words over the generators, by length then construction order.

    The letter order interleaves signs: g1, g1^-1, g2, g2^-1, ...
    """
    letters = []
    for g in generators:
        letters.append((g, 1))
        letters.append((g, -1))
    if include_empty:
        yield ()
    level = [()]
    for _ in range(max_len):
        fresh = []
        for word in level:
            last = word[-1] if word else None
            for lt in letters:
                if last is not None and last[0] == lt[0] and last[1] == -lt[1]:
                    continue
                fresh.append(word + (lt,))
        for word in fresh:
            yield word
        level = fresh


# -- dual path combinatorics ---------------------------------------------

class DualPath:
    """Trace of reading a positive state word from a letter of the alphabet.

    `vertices` has one more entry than `inputs`; `outputs` is the letter
    exact residual sequence, sink occurrences included.
    """

    __slots__ = ("start", "inputs", "outputs", "vertices")

    def __init__(self, start, inputs, outputs, vertices):
        self.start = start
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.vertices = tuple(vertices)

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

    def __eq__(self, other):
        return (isinstance(other, DualPath)
                and self.full() == other.full())

    def __repr__(self):
        steps = "".join(
            " -(%s|%s)-> %s" % (a, b, v)
            for (a, b), v in zip(zip(self.inputs, self.outputs), self.vertices[1:]))
        return "DualPath(%s%s)" % (self.vertices[0], steps)


def positive_state_word(aut: MealyAutomaton, u):
    """Coerce a positive word over the states (sink allowed, kept)."""
    if isinstance(u, str):
        u = tuple(u.split())
    else:
        u = tuple(u)
    for a in u:
        if a not in aut._sidx:
            raise UnknownGenerator("unknown state %r" % (a,))
    return u


def dual_path(aut: MealyAutomaton, x, u) -> DualPath:
    """Walk the dual machine from letter x reading the positive word u."""
    if x not in aut._aidx:
        raise AlphabetMismatch("letter %r is not in the alphabet" % (x,))
    u = positive_state_word(aut, u)
    vertices = [x]
    outputs = []
    v = x
    for a in u:
        outputs.append(aut.next(a, v))
        v = aut.out(a, v)
        vertices.append(v)
    return DualPath(x, u, outputs, vertices)


def loops_at(aut: MealyAutomaton, x):
    """States looping at letter x with sink output: the sink and the states not moving x."""
    if aut.sink is None:
        raise NoSink("loops_at needs a declared sink")
    if x not in aut._aidx:
        raise AlphabetMismatch("letter %r is not in the alphabet" % (x,))
    return tuple(s for s in aut.states
                 if aut.out(s, x) == x and aut.next(s, x) == aut.sink)


class Noose:
    """First excursion of a dual path that leaves x and comes back to it."""

    __slots__ = ("start", "stop", "letters", "outputs")

    def __init__(self, start, stop, letters, outputs):
        self.start = start          # slice indices into the input word
        self.stop = stop
        self.letters = tuple(letters)
        self.outputs = tuple(outputs)

    def __eq__(self, other):
        return (isinstance(other, Noose) and self.start == other.start
                and self.stop == other.stop and self.letters == other.letters)

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
