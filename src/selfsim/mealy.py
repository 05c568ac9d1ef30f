"""Finite Mealy transducers and the constructions built on them.

A machine reads a letter x in state s, emits ``out(s, x)`` and moves to
``next(s, x)``; both maps are total on states x alphabet.  State and letter
identifiers are arbitrary hashable tokens (plain strings for user-facing
machines); all orderings are the declared insertion order, which keeps every
derived object and every textual export deterministic.

Formal inverses of tokens are tagged with a private sentinel rather than by
name mangling, so inverting twice gives back the original token and machines
stay exactly comparable.
"""

import itertools

from .errors import (
    AlphabetMismatch,
    BadPower,
    BadSink,
    DuplicateTransition,
    FormatError,
    MissingTransition,
    NoSink,
    NotInvertible,
)
from .limits import MAX_POWER_STATES, number_text, power_exceeds


class _Tag:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


INV = _Tag("INV")      # marks a formally inverted token
COPY = _Tag("COPY")    # marks the right copy in a disjoint union, on collision


def inverse_symbol(token):
    """Formal inverse of a state or letter token; an involution."""
    if isinstance(token, tuple) and len(token) == 2 and token[0] is INV:
        return token[1]
    return (INV, token)


def is_inverse_symbol(token):
    return isinstance(token, tuple) and len(token) == 2 and token[0] is INV


def symbol_str(token) -> str:
    """Readable form of a token: a, a^-1, (a,b), b'."""
    if is_inverse_symbol(token):
        return symbol_str(token[1]) + "^-1"
    if isinstance(token, tuple) and len(token) == 2 and token[0] is COPY:
        return symbol_str(token[1]) + "'"
    if isinstance(token, tuple):
        return "(" + ",".join(symbol_str(p) for p in token) + ")"
    return str(token)


class MealyAutomaton:
    """Immutable deterministic letter-to-letter transducer.

    `next_map` and `out_map` are dicts keyed by (state, letter).  A declared
    sink must copy every letter and absorb every transition.  Invertibility
    (every state's output row a permutation of the alphabet) is computed once
    at construction.
    """

    __slots__ = ("states", "alphabet", "sink", "invertible",
                 "_next", "_out", "_sidx", "_aidx", "_cache", "_hash", "_core")

    def __init__(self, states, alphabet, next_map, out_map, sink=None):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        if len(set(self.states)) != len(self.states):
            raise FormatError("duplicate state identifiers")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise FormatError("duplicate alphabet letters")
        if not self.states or not self.alphabet:
            raise FormatError("states and alphabet must be nonempty")
        self._next = dict(next_map)
        self._out = dict(out_map)
        sset, aset = set(self.states), set(self.alphabet)
        for s in self.states:
            for x in self.alphabet:
                key = (s, x)
                if key not in self._next or key not in self._out:
                    raise MissingTransition(
                        "no transition for state %s on letter %s"
                        % (symbol_str(s), symbol_str(x)))
                if self._next[key] not in sset:
                    raise FormatError(
                        "transition (%s, %s) targets undeclared state %s"
                        % (symbol_str(s), symbol_str(x), symbol_str(self._next[key])))
                if self._out[key] not in aset:
                    raise FormatError(
                        "transition (%s, %s) outputs undeclared letter %s"
                        % (symbol_str(s), symbol_str(x), symbol_str(self._out[key])))
        for table in (self._next, self._out):
            if len(table) != len(self.states) * len(self.alphabet):
                extra = set(table) - set(itertools.product(self.states, self.alphabet))
                raise FormatError("transitions outside states x alphabet: %r"
                                  % (sorted(map(str, extra)),))
        self.sink = sink
        if sink is not None:
            if sink not in sset:
                raise BadSink("declared sink %s is not a state" % symbol_str(sink))
            for x in self.alphabet:
                if self._out[(sink, x)] != x or self._next[(sink, x)] != sink:
                    raise BadSink(
                        "sink %s must copy and absorb every letter" % symbol_str(sink))
        self.invertible = all(
            set(self._out[(s, x)] for x in self.alphabet) == aset for s in self.states)
        self._sidx = {s: i for i, s in enumerate(self.states)}
        self._aidx = {x: i for i, x in enumerate(self.alphabet)}
        self._cache = {}
        self._hash = None
        self._core = None

    # -- raw access ---------------------------------------------------

    def next(self, state, letter):
        return self._next[(state, letter)]

    def out(self, state, letter):
        return self._out[(state, letter)]

    def core(self):
        """The integer transition tables of this machine, built on first use."""
        if self._core is None:
            self._core = Core(self)
        return self._core

    def transitions(self):
        """Yield (state, letter, next, out) in declaration order."""
        for s in self.states:
            for x in self.alphabet:
                yield s, x, self._next[(s, x)], self._out[(s, x)]

    # -- equality is exact table equality ------------------------------

    def __eq__(self, other):
        if not isinstance(other, MealyAutomaton):
            return NotImplemented
        return (self.states == other.states and self.alphabet == other.alphabet
                and self.sink == other.sink and self._next == other._next
                and self._out == other._out)

    def __hash__(self):
        if self._hash is None:
            table = tuple(
                (self._sidx[s], self._aidx[x],
                 self._sidx[self._next[(s, x)]], self._aidx[self._out[(s, x)]])
                for s in self.states for x in self.alphabet)
            self._hash = hash((self.states, self.alphabet, self.sink, table))
        return self._hash

    def __repr__(self):
        return "MealyAutomaton(%d states, %d letters%s)" % (
            len(self.states), len(self.alphabet),
            ", sink=%s" % symbol_str(self.sink) if self.sink is not None else "")


def code_table(positive, negative):
    """A list indexed by signed codes: positive[i] at i + 1, negative[i] at -(i + 1)."""
    return [None] + list(positive) + list(reversed(negative))


class _NoInverse:
    """Inverse row of a state whose outputs are not a permutation; reading it raises."""

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def __getitem__(self, letter):
        raise NotInvertible("state %s does not act by a permutation" % symbol_str(self.state))


class Core:
    """A machine compiled to integer tables, for stepping code words.

    The letter (i-th state, +1) is the code i + 1 and (i-th state, -1) is
    -(i + 1); the sink is 0 and never occurs in a code word.  Input letters
    are alphabet indices.  ``rows[c][x]`` is (image letter, residual code)
    of the code c at the letter x; negative codes index the inverse rows
    from the end of the list.  Only a state whose output row is a
    permutation has an inverse row: reading the inverse row of any other
    state raises NotInvertible.

    ``letters`` decodes a code to its (state, sign) letter, ``codes`` maps a
    (state, sign) letter to its code and ``tokens`` a word-syntax token
    ('s' or 's^-1', string states only) to its code.
    """

    __slots__ = ("rows", "letters", "codes", "tokens")

    def __init__(self, aut):
        m = len(aut.alphabet)
        codes = {}
        for i, s in enumerate(aut.states):
            code = 0 if s == aut.sink else i + 1
            codes[(s, 1)], codes[(s, -1)] = code, -code
        forward, backward = [], []
        for s in aut.states:
            row = tuple((aut._aidx[aut._out[(s, x)]], codes[(aut._next[(s, x)], 1)])
                        for x in aut.alphabet)
            back = {y: (x, -r) for x, (y, r) in enumerate(row)}
            forward.append(row)
            backward.append(tuple(back[y] for y in range(m)) if len(back) == m
                            else _NoInverse(s))
        # a token 'a^-1' means a inverse when a is a state, else the state 'a^-1'
        named = [s for s in aut.states if isinstance(s, str)]
        tokens = {s: codes[(s, 1)] for s in named}
        tokens.update((s + "^-1", codes[(s, -1)]) for s in named)
        self.rows = code_table(forward, backward)
        self.letters = code_table([(s, 1) for s in aut.states], [(s, -1) for s in aut.states])
        self.codes = codes
        self.tokens = tokens


def make_automaton(states, alphabet, transitions, sink=None) -> MealyAutomaton:
    """Build a machine from (state, letter, next, out) records.

    The records must cover states x alphabet exactly once; a declared sink
    has to satisfy the sink laws.
    """
    next_map, out_map = {}, {}
    for rec in transitions:
        s, x, t, y = rec
        if (s, x) in next_map:
            raise DuplicateTransition(
                "duplicate transition for state %s on letter %s"
                % (symbol_str(s), symbol_str(x)))
        next_map[(s, x)] = t
        out_map[(s, x)] = y
    return MealyAutomaton(states, alphabet, next_map, out_map, sink=sink)


def is_invertible(aut: MealyAutomaton) -> bool:
    """True iff every state's output map is a bijection on the alphabet."""
    return aut.invertible


def inverse(aut: MealyAutomaton) -> MealyAutomaton:
    """The machine of formal inverses: each s -(x|y)-> t becomes s' -(y|x)-> t'."""
    if not aut.invertible:
        raise NotInvertible("cannot invert a non-invertible automaton")
    next_map, out_map = {}, {}
    for s, x, t, y in aut.transitions():
        si = inverse_symbol(s)
        next_map[(si, y)] = inverse_symbol(t)
        out_map[(si, y)] = x
    states = tuple(inverse_symbol(s) for s in aut.states)
    sink = inverse_symbol(aut.sink) if aut.sink is not None else None
    return MealyAutomaton(states, aut.alphabet, next_map, out_map, sink=sink)


def disjoint_union(a: MealyAutomaton, b: MealyAutomaton) -> MealyAutomaton:
    """Tagged union of two machines over the same (identically ordered) alphabet.

    State names are kept; colliding states of `b` get a copy tag.  The sinks
    are not merged; the declared sink of the union is `a`'s when present.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("disjoint union requires the same alphabet")
    taken = set(a.states)
    rename = {s: ((COPY, s) if s in taken else s) for s in b.states}
    next_map, out_map = {}, {}
    for s, x, t, y in a.transitions():
        next_map[(s, x)] = t
        out_map[(s, x)] = y
    for s, x, t, y in b.transitions():
        next_map[(rename[s], x)] = rename[t]
        out_map[(rename[s], x)] = y
    states = a.states + tuple(rename[s] for s in b.states)
    if a.sink is not None:
        sink = a.sink
    elif b.sink is not None:
        sink = rename[b.sink]
    else:
        sink = None
    return MealyAutomaton(states, a.alphabet, next_map, out_map, sink=sink)


def dual(aut: MealyAutomaton) -> MealyAutomaton:
    """Swap states and letters: x -(s|t)-> y here iff s -(x|y)-> t there.

    The dual of a sink is not a sink, so no sink is declared on the result.
    Applying dual twice returns a machine equal to the original.
    """
    next_map, out_map = {}, {}
    for s, x, t, y in aut.transitions():
        next_map[(x, s)] = y
        out_map[(x, s)] = t
    return MealyAutomaton(aut.alphabet, aut.states, next_map, out_map, sink=None)


def enriched_dual(aut: MealyAutomaton) -> MealyAutomaton:
    """Dual of aut joined with its inverse; input letters are states and formal inverses."""
    if not aut.invertible:
        raise NotInvertible("enriched dual requires an invertible automaton")
    return dual(disjoint_union(aut, inverse(aut)))


def power(aut: MealyAutomaton, n: int) -> MealyAutomaton:
    """n-th power: states are n-tuples, the first coordinate consumes the input first."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise BadPower("power requires an integer n >= 1, got %s" % number_text(n))
    if power_exceeds(len(aut.states), n, MAX_POWER_STATES):
        raise BadPower("power automaton would have %d^%s states"
                       % (len(aut.states), number_text(n)))
    if n > MAX_POWER_STATES:         # one state: a single n-tuple, still capped
        raise BadPower("power %s is larger than the cap %d" % (number_text(n), MAX_POWER_STATES))
    states = tuple(itertools.product(aut.states, repeat=n))
    next_map, out_map = {}, {}
    for tup in states:
        for x in aut.alphabet:
            y = x
            parts = []
            for s in tup:
                parts.append(aut.next(s, y))
                y = aut.out(s, y)
            next_map[(tup, x)] = tuple(parts)
            out_map[(tup, x)] = y
    return MealyAutomaton(states, aut.alphabet, next_map, out_map, sink=None)


def _trim(nodes, succ, both=False):
    """The nodes on or below a cycle of `succ`, in input order.

    Deletes, while there is one, a node with no arc in from a node still
    left.  With `both`, the same trim then runs on the reversed arcs among
    the nodes left, so that those left are also on or above a cycle.  Arcs
    count with multiplicity, so a self-loop keeps its node.  Every arc must
    lead to one of `nodes`.
    """
    arcs_in = dict.fromkeys(nodes, 0)
    for v in nodes:
        for t in succ[v]:
            arcs_in[t] += 1
    doomed = [v for v in nodes if not arcs_in[v]]
    while doomed:                        # a count reaches 0 once, so no node twice
        for t in succ[doomed.pop()]:
            arcs_in[t] -= 1
            if not arcs_in[t]:
                doomed.append(t)
    left = [v for v in nodes if arcs_in[v]]
    if both:
        pred = {v: [] for v in left}
        for v in left:
            for t in succ[v]:
                if t in pred:
                    pred[t].append(v)
        left = _trim(left, pred)
    return left


def is_bounded(aut: MealyAutomaton) -> bool:
    """Sink-avoiding path counts stay bounded.

    Sidki's circuit criterion: in the transition multigraph restricted to
    non-sink states, the cycles are disjoint and no path joins one cycle to
    another.  The states both below and above a cycle are left by the
    two-sided trim; the criterion holds iff each of them has exactly one
    transition to a state that is left.  Those states then make disjoint
    simple cycles, and a path from one cycle to another would give a state
    on the first a second such transition.
    """
    if aut.sink is None:
        raise NoSink("boundedness is defined relative to a declared sink")
    sink = aut.sink
    succ = {s: [aut.next(s, x) for x in aut.alphabet if aut.next(s, x) != sink]
            for s in aut.states if s != sink}
    left = set(_trim(list(succ), succ, both=True))
    return all(sum(t in left for t in succ[v]) == 1 for v in left)


def bisimulation_classes(aut: MealyAutomaton):
    """Coarsest partition with equal output rows and equivalent successors.

    Returned as a tuple of tuples of states; classes and members follow the
    state declaration order.
    """
    idx = aut._sidx
    block = _refine_partition(
        [tuple(aut.out(s, x) for x in aut.alphabet) for s in aut.states],
        [[idx[aut.next(s, x)] for x in aut.alphabet] for s in aut.states])
    groups = {}
    for s, b in zip(aut.states, block):
        groups.setdefault(b, []).append(s)
    return tuple(tuple(g) for g in groups.values())


def _refine_partition(outputs, succ):
    """Coarsest partition of 0..n-1 with equal outputs and equal successor blocks.

    Moore refinement (1956): the blocks start as the classes of equal
    `outputs[i]`, and each pass splits every block of two or more states
    by the blocks of its members' successors `succ[i]`, as the pass has
    left them so far; equal states are never parted.  A one-state block
    cannot split, so it leaves the passes.  The loop stops after a pass
    that splits nothing.  A split block's first part keeps its id, the
    other parts take new ones, and the blocks are returned as the block of
    each index, numbered in order of first occurrence.
    """
    ids = {}
    block = [ids.setdefault(out, len(ids)) for out in outputs]
    count, members = len(ids), {}
    for i, b in enumerate(block):
        members.setdefault(b, []).append(i)
    live = [group for group in members.values() if len(group) > 1]
    at, split = block.__getitem__, True
    while split:
        split, kept = False, []
        for group in live:
            parts = {}
            for i in group:
                parts.setdefault(tuple(map(at, succ[i])), []).append(i)
            parts = list(parts.values())
            for part in parts[1:]:
                for i in part:
                    block[i] = count
                count += 1
            split = split or len(parts) > 1
            kept += [part for part in parts if len(part) > 1]
        live = kept
    ids = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def bisimulation_quotient(aut: MealyAutomaton) -> MealyAutomaton:
    """Quotient by bisimulation; representatives are the first members of each class."""
    classes = bisimulation_classes(aut)
    rep = {}
    for cls in classes:
        for s in cls:
            rep[s] = cls[0]
    states = tuple(cls[0] for cls in classes)
    next_map, out_map = {}, {}
    for s in states:
        for x in aut.alphabet:
            next_map[(s, x)] = rep[aut.next(s, x)]
            out_map[(s, x)] = aut.out(s, x)
    sink = rep[aut.sink] if aut.sink is not None else None
    return MealyAutomaton(states, aut.alphabet, next_map, out_map, sink=sink)


def is_reduced(aut: MealyAutomaton) -> bool:
    """True iff no two distinct states are bisimilar."""
    return all(len(cls) == 1 for cls in bisimulation_classes(aut))


# -- DOT export ------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(aut: MealyAutomaton) -> str:
    """DOT rendering of the transition diagram; output is deterministic."""
    lines = ["digraph mealy {", "  rankdir=LR;"]
    for s in aut.states:
        shape = "doublecircle" if s == aut.sink else "circle"
        lines.append("  %s [shape=%s];" % (_dot_quote(symbol_str(s)), shape))
    for s, x, t, y in aut.transitions():
        lines.append("  %s -> %s [label=%s];" % (
            _dot_quote(symbol_str(s)), _dot_quote(symbol_str(t)),
            _dot_quote("%s|%s" % (symbol_str(x), symbol_str(y)))))
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- textual format ---------------------------------------------------------
#
# states: a b c id
# alphabet: 0 1 2 3
# sink: id
# transition: a 0 a 1        (state input next output)
#
# '#' starts a comment; unknown fields are rejected.

def content_lines(text: str):
    """(line number, stripped text) of each line that is not blank or a comment.

    The one tokenizer of the text formats: '#' starts a comment anywhere on a
    line.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def load_automaton(text: str) -> MealyAutomaton:
    states = alphabet = None
    sink = None
    sink_seen = False
    records = []
    for lineno, line in content_lines(text):
        key, sep, rest = line.partition(":")
        if not sep:
            raise FormatError("line %d: expected 'field: ...'" % lineno)
        key = key.strip()
        fields = rest.split()
        if key == "states":
            if states is not None:
                raise FormatError("line %d: duplicate states field" % lineno)
            states = fields
        elif key == "alphabet":
            if alphabet is not None:
                raise FormatError("line %d: duplicate alphabet field" % lineno)
            alphabet = fields
        elif key == "sink":
            if sink_seen:
                raise FormatError("line %d: duplicate sink field" % lineno)
            if len(fields) != 1:
                raise FormatError("line %d: sink takes exactly one state" % lineno)
            sink = fields[0]
            sink_seen = True
        elif key == "transition":
            if len(fields) != 4:
                raise FormatError(
                    "line %d: transition takes 'state input next output'" % lineno)
            records.append(tuple(fields))
        else:
            raise FormatError("line %d: unknown field %r" % (lineno, key))
    if states is None or alphabet is None:
        raise FormatError("automaton file needs both states and alphabet fields")
    return make_automaton(states, alphabet, records, sink=sink)


def dump_automaton(aut: MealyAutomaton) -> str:
    names = {}
    for tok in list(aut.states) + list(aut.alphabet):
        name = symbol_str(tok)
        if any(c.isspace() for c in name) or "#" in name:
            raise FormatError("token %r cannot be serialized" % name)
        names[tok] = name
    lines = ["states: " + " ".join(names[s] for s in aut.states),
             "alphabet: " + " ".join(names[x] for x in aut.alphabet)]
    if aut.sink is not None:
        lines.append("sink: " + names[aut.sink])
    for s, x, t, y in aut.transitions():
        lines.append("transition: %s %s %s %s" % (names[s], names[x], names[t], names[y]))
    return "\n".join(lines) + "\n"
