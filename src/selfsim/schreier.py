"""Coset machines from finite permutation actions.

A finite-index subgroup is given as the stabilizer of a basepoint under a
permutation action of the generators.  The coset graph gets outputs: arcs
of a breadth-first spanning tree carry an assigned generator, all other
arcs carry the identity, reverse arcs carry formal inverses.  Reading that
decorated graph as the enriched dual of a machine over the generator set
yields an invertible transducer whose state g maps coset p to p.g.
"""

from collections import deque, namedtuple
import operator

from .action import _check_sweep_cap, _gen_codes, _hit_sweep, _signed_codes, _sweep_count
from .errors import BadAction, BadAssignment, FormatError, NotInvertible
from .graphgroup import SINK_NAME
from .limits import check_int
from .mealy import MealyAutomaton, content_lines, inverse_symbol


class FiniteAction:
    """Permutations of {0..degree-1}, one per generator, plus a basepoint.

    A generator named like the sink must act trivially; it is dropped from
    the stored generator list and re-added as the sink of built machines.
    """

    __slots__ = ("generators", "degree", "perms", "basepoint")

    def __init__(self, generators, degree, perms, basepoint=0):
        check_int(degree, 1, "degree", BadAction)
        check_int(basepoint, None, "basepoint", BadAction)
        if not 0 <= basepoint < degree:
            raise BadAction("basepoint %d outside 0..%d" % (basepoint, degree - 1))
        names = []
        cooked = {}
        for g in generators:
            try:
                perm = tuple(perms[g])
            except (KeyError, TypeError):    # no images, or images that are no sequence
                raise BadAction("generator %r needs a sequence of images" % (g,)) from None
            for p in perm:
                check_int(p, None, "an image of %r" % (g,), BadAction)
            if sorted(perm) != list(range(degree)):
                raise BadAction("images of %r are not a permutation of 0..%d"
                                % (g, degree - 1))
            if g == SINK_NAME:
                if perm != tuple(range(degree)):
                    raise BadAction("the identity generator must act trivially")
                continue
            if g in names:
                raise BadAction("duplicate generator %r" % g)
            names.append(g)
            cooked[g] = perm
        if not names:
            raise BadAction("need at least one non-identity generator")
        self.generators = tuple(names)
        self.degree = degree
        self.perms = cooked
        self.basepoint = basepoint

    def act(self, point: int, gen: str) -> int:
        return self.perms[gen][point]

    def __repr__(self):
        return "FiniteAction(%s on %d points, basepoint %d)" % (
            " ".join(self.generators), self.degree, self.basepoint)


# The orbit of the basepoint, and one positive arc (p, gen, q) with q = p.gen
# per point and generator.
SchreierGraph = namedtuple("SchreierGraph", "action vertices arcs")


def schreier_graph(action: FiniteAction) -> SchreierGraph:
    """Coset graph on the basepoint orbit, vertices in discovery order.

    Forward arcs alone reach the whole orbit: the generators permute a
    finite set, so their positive powers already contain their inverses.
    """
    seen = {action.basepoint}
    order = [action.basepoint]
    queue = deque([action.basepoint])
    while queue:
        p = queue.popleft()
        for g in action.generators:
            q = action.act(p, g)
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    arcs = tuple((p, g, action.act(p, g))
                 for p in order for g in action.generators)
    return SchreierGraph(action, tuple(order), arcs)


def spanning_tree(sch: SchreierGraph):
    """Breadth-first spanning tree from the basepoint, as a tuple of positive arcs.

    The arcs are listed in breadth-first vertex order and declared generator
    order, so the first arc into each vertex other than the basepoint is its
    tree arc.
    """
    seen = {sch.action.basepoint}
    tree = []
    for arc in sch.arcs:
        if arc[2] not in seen:
            seen.add(arc[2])
            tree.append(arc)
    return tuple(tree)


def _arc_decorations(action, assignment):
    """Output decoration for every positive arc of the coset graph.

    Spanning tree arcs carry an assigned generator (their own label by
    default), all other arcs the sink.  The degenerate single-coset graph
    has an empty tree; there every loop keeps its own label, so the
    construction stays visibly non-shortening instead of collapsing to the
    trivial machine.
    """
    sch = schreier_graph(action)
    tree = spanning_tree(sch)
    assignable = set(tree)
    if len(sch.vertices) == 1:
        assignable = set(sch.arcs)
    states = set(action.generators) | {SINK_NAME}
    decoration = {}
    for arc in sch.arcs:
        decoration[arc] = arc[1] if arc in assignable else SINK_NAME
    if assignment:
        by_key = {(p, g): (p, g, q) for p, g, q in assignable}
        for key, out in assignment.items():
            if key not in by_key:
                raise BadAssignment("(%r, %r) is not an assignable arc" % key)
            if out not in states:
                raise BadAssignment("output %r is not a state" % (out,))
            decoration[by_key[key]] = out
    return sch, decoration


def build_reducible_automaton(action: FiniteAction, assignment=None) -> MealyAutomaton:
    """Transducer over the generators acting on the cosets.

    State g sends coset p to p.g and restricts to the output decorating the
    arc (p, g): the assigned generator on spanning tree arcs, the sink
    elsewhere.  `assignment` optionally maps (tail, generator) pairs of tree
    arcs to output states.
    """
    sch, decoration = _arc_decorations(action, assignment)
    alphabet = tuple(str(p) for p in sch.vertices)
    states = action.generators + (SINK_NAME,)
    next_map, out_map = {}, {}
    for p, g, q in sch.arcs:
        out_map[(g, str(p))] = str(q)
        next_map[(g, str(p))] = decoration[(p, g, q)]
    for p in sch.vertices:
        next_map[(SINK_NAME, str(p))] = SINK_NAME
        out_map[(SINK_NAME, str(p))] = str(p)
    return MealyAutomaton(states, alphabet, next_map, out_map, sink=SINK_NAME)


def decorated_schreier_graph(action: FiniteAction, assignment=None) -> MealyAutomaton:
    """The decorated coset graph itself, keyed like the enriched dual of the machine.

    States are the cosets; input letters are the generators, the sink and
    their formal inverses; outputs are the arc decorations, with reverse
    arcs carrying the formal inverse of the forward decoration.
    """
    sch, decoration = _arc_decorations(action, assignment)
    states = tuple(str(p) for p in sch.vertices)
    gens = action.generators + (SINK_NAME,)
    letters = gens + tuple(inverse_symbol(g) for g in gens)
    next_map, out_map = {}, {}
    for p, g, q in sch.arcs:
        dec = decoration[(p, g, q)]
        next_map[(str(p), g)] = str(q)
        out_map[(str(p), g)] = dec
        next_map[(str(q), inverse_symbol(g))] = str(p)
        out_map[(str(q), inverse_symbol(g))] = inverse_symbol(dec)
    for p in sch.vertices:
        next_map[(str(p), SINK_NAME)] = str(p)
        out_map[(str(p), SINK_NAME)] = SINK_NAME
        next_map[(str(p), inverse_symbol(SINK_NAME))] = str(p)
        out_map[(str(p), inverse_symbol(SINK_NAME))] = inverse_symbol(SINK_NAME)
    return MealyAutomaton(states, letters, next_map, out_map, sink=None)


# status is Pass or Violations; violations are (vertex, word letters) pairs.
LoopReport = namedtuple("LoopReport", "status violations words_checked")


def verify_loop_shortening(aut: MealyAutomaton, max_len: int, cap=None) -> LoopReport:
    """Every reduced word labeling a closed walk must shorten after erasing sinks.

    Walks every reduced word over the generators from every vertex of the
    enriched dual; when the walk closes, the output word with identity
    letters erased has to be strictly shorter than the input.  The walks,
    reduced words times vertices, must fit under the level cap.

    The enriched dual is read off the machine's own tables: its vertices
    are the letters, and the generator g (or g^-1) goes from letter x to
    g's image of x (or preimage), erasing its output when the residual
    there is the sink.  A word's value carries, for each start vertex, the
    end of the word's walk, or 0 once the walk erased an output letter.
    action._hit_sweep lists only the words whose walk closes at some
    vertex, in sweep order, from the finite graph of (value, last letter)
    states; words_checked still counts every walk of the sweep.  The
    sweep's forward walk always runs, and its backward walk only when some
    states hit and others do not: a Pass costs one forward walk.
    """
    if not aut.invertible:
        raise NotInvertible("enriched dual requires an invertible automaton")
    codes = _gen_codes(aut)
    width = 2 * len(codes)
    _check_sweep_cap(width, width - 1, max_len, len(aut.alphabet), cap, "loop sweep")
    core = aut.core()

    def ends(c):
        """End vertex of each one-letter walk along code c, 0 when it erases; 0 stays 0."""
        return [0] + [y + 1 if r else 0 for y, r in core.rows[c]]

    signed, inverse = _signed_codes(codes)
    moves = {c: ends(c).__getitem__ for c in signed}
    start = tuple(range(1, len(aut.alphabet) + 1))
    violations = []
    for word, walk in _hit_sweep(signed, inverse, max_len, start,
                                 lambda walk, c: tuple(map(moves[c], walk)),
                                 lambda walk: any(map(operator.eq, walk, start))):
        violations.extend((aut.alphabet[q - 1], tuple(map(core.letters.__getitem__, word)))
                          for q, end in zip(start, walk) if end == q)
    status = "Pass" if not violations else "Violations"
    return LoopReport(status, tuple(violations), len(start) * _sweep_count(width, max_len))


# -- textual format -------------------------------------------------------------
#
# degree 3
# basepoint 0
# a: 1 2 0          (images of 0..degree-1)

def load_action(text: str) -> FiniteAction:
    header = {}
    order = []
    perms = {}
    for lineno, line in content_lines(text):
        fields = line.split()
        keyword = fields[0]
        if keyword in ("degree", "basepoint"):
            if keyword in header:
                raise FormatError("line %d: duplicate %s line" % (lineno, keyword))
            try:
                value, = map(int, fields[1:])
            except ValueError:
                raise FormatError("line %d: %s takes one integer" % (lineno, keyword))
            header[keyword] = value
            continue
        name, sep, rest = line.partition(":")
        if not sep:
            raise FormatError("line %d: expected 'name: images'" % lineno)
        name = name.strip()
        try:
            images = tuple(int(tok) for tok in rest.split())
        except ValueError:
            raise FormatError("line %d: images must be integers" % lineno)
        if name in perms:
            raise FormatError("line %d: duplicate generator %r" % (lineno, name))
        order.append(name)
        perms[name] = images
    degree = header.get("degree")
    if degree is None:
        raise FormatError("action file needs a degree line")
    for name, images in perms.items():
        if len(images) != degree:
            raise FormatError("generator %r lists %d images for degree %d"
                              % (name, len(images), degree))
    return FiniteAction(order, degree, perms, basepoint=header.get("basepoint", 0))


def dump_action(action: FiniteAction) -> str:
    lines = ["degree %d" % action.degree, "basepoint %d" % action.basepoint]
    for g in action.generators:
        lines.append("%s: %s" % (g, " ".join(str(i) for i in action.perms[g])))
    return "\n".join(lines) + "\n"


def load_assignment(text: str) -> dict:
    """Lines of 'tail generator output' keyed by spanning tree arcs."""
    out = {}
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3:
            raise FormatError("line %d: expected 'tail generator output'" % lineno)
        try:
            tail = int(fields[0])
        except ValueError:
            raise FormatError("line %d: tail must be an integer coset" % lineno)
        if (tail, fields[1]) in out:
            raise FormatError("line %d: duplicate arc (%d, %r)" % (lineno, tail, fields[1]))
        out[(tail, fields[1])] = fields[2]
    return out
