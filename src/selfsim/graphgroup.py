"""Oriented simple graphs and the transducers they generate.

Each oriented edge e = (tail, head) becomes a state that swaps its two
endpoint letters, restricts to itself on the tail and to the sink elsewhere.
Also holds the fixture menagerie used across the test suite and the CLI.
"""

from collections import namedtuple
import re

from .errors import BadGraph, EmptyGraph, FormatError, UnknownFixture
from .mealy import MealyAutomaton, content_lines, make_automaton

SINK_NAME = "id"


class Edge(namedtuple("Edge", "name tail head")):
    __slots__ = ()

    def endpoints(self):
        return frozenset((self.tail, self.head))


def _check_token(kind, token):
    if not isinstance(token, str) or not token:
        raise BadGraph("%s identifiers must be nonempty strings, got %r" % (kind, token))
    if any(c.isspace() for c in token) or "#" in token:
        raise BadGraph("%s identifier %r contains forbidden characters" % (kind, token))


class OrientedGraph:
    """Simple finite graph with an orientation on every edge.

    No self loops and no repeated unordered pairs; edge names are unique.
    `vertices` may list extra isolated vertices, which are legal here but
    rejected when building an automaton.
    """

    def __init__(self, edges, vertices=()):
        seen_vertices = []
        for v in vertices:
            _check_token("vertex", v)
            if v not in seen_vertices:
                seen_vertices.append(v)
        named = {}
        pairs = set()
        cooked = []
        for item in edges:
            e = Edge(*item)
            _check_token("edge", e.name)
            _check_token("vertex", e.tail)
            _check_token("vertex", e.head)
            if e.tail == e.head:
                raise BadGraph("self loop on vertex %r" % e.tail)
            if e.name in named:
                raise BadGraph("duplicate edge name %r" % e.name)
            pair = e.endpoints()
            if pair in pairs:
                raise BadGraph("duplicate edge between %r and %r" % (e.tail, e.head))
            named[e.name] = e
            pairs.add(pair)
            cooked.append(e)
            for v in (e.tail, e.head):
                if v not in seen_vertices:
                    seen_vertices.append(v)
        self.vertices = tuple(seen_vertices)
        self.edges = tuple(cooked)
        self._by_name = named

    def edge(self, name) -> Edge:
        try:
            return self._by_name[name]
        except KeyError:
            raise BadGraph("no edge named %r" % name)

    def edge_names(self):
        return tuple(e.name for e in self.edges)

    def incident(self, name_a, name_b) -> bool:
        return bool(self.edge(name_a).endpoints() & self.edge(name_b).endpoints())

    def isolated_vertices(self):
        touched = set()
        for e in self.edges:
            touched |= e.endpoints()
        return tuple(v for v in self.vertices if v not in touched)

    def adjacency(self):
        """vertex -> tuple of (edge, other endpoint), in edge declaration order."""
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append((e, e.head))
            adj[e.head].append((e, e.tail))
        return adj

    def __eq__(self, other):
        return (isinstance(other, OrientedGraph)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "OrientedGraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


def is_tree(g: OrientedGraph) -> bool:
    """Connected with exactly |V| - 1 edges."""
    if not g.vertices:
        return False
    if len(g.edges) != len(g.vertices) - 1:
        return False
    return _is_connected(g)


def _is_connected(g: OrientedGraph) -> bool:
    adj = g.adjacency()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for _, other in adj[v]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(g.vertices)


def line_graph_complement(g: OrientedGraph):
    """Pairs of edge names that share no endpoint, in declaration order."""
    names = g.edge_names()
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not g.incident(a, b):
                pairs.append((a, b))
    return tuple(pairs)


def build_graph_automaton(g: OrientedGraph) -> MealyAutomaton:
    """One state per oriented edge plus a sink.

    An edge e = (x, y) swaps the letters x and y and fixes the rest; it
    restricts to itself on x and to the sink everywhere else.
    """
    if not g.edges:
        raise EmptyGraph("graph automaton needs at least one edge")
    isolated = g.isolated_vertices()
    if isolated:
        raise BadGraph("isolated vertices %r cannot enter the automaton" % (isolated,))
    for e in g.edges:
        if e.name == SINK_NAME:
            raise BadGraph("edge name %r is reserved for the sink" % SINK_NAME)
    states = g.edge_names() + (SINK_NAME,)
    records = []
    for e in g.edges:
        for z in g.vertices:
            if z == e.tail:
                records.append((e.name, z, e.name, e.head))
            elif z == e.head:
                records.append((e.name, z, SINK_NAME, e.tail))
            else:
                records.append((e.name, z, SINK_NAME, z))
    for z in g.vertices:
        records.append((SINK_NAME, z, SINK_NAME, z))
    return make_automaton(states, g.vertices, records, sink=SINK_NAME)


# -- fixtures ----------------------------------------------------------------

def _star3():
    return OrientedGraph([("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")])


def _fig5_tree():
    return OrientedGraph([
        ("e1", "1", "2"),
        ("e2", "2", "3"),
        ("e3", "2", "4"),
        ("e4", "1", "5"),
        ("e5", "5", "6"),
    ])


def _path(n):
    if n < 2:
        raise UnknownFixture("path_n needs n >= 2 vertices")
    return OrientedGraph([("e%d" % i, str(i), str(i + 1)) for i in range(1, n)])


def _cycle(n):
    if n < 3:
        raise UnknownFixture("cycle_n needs n >= 3 vertices")
    edges = [("a%d" % i, str(i), str(i + 1)) for i in range(1, n)]
    edges.append(("a%d" % n, str(n), "1"))
    return OrientedGraph(edges)


def _triangle_acyclic():
    return OrientedGraph([("a1", "1", "2"), ("a2", "2", "3"), ("a3", "1", "3")])


def _adding_machine():
    return make_automaton(
        ("e", SINK_NAME), ("0", "1"),
        [("e", "0", "e", "1"),
         ("e", "1", SINK_NAME, "0"),
         (SINK_NAME, "0", SINK_NAME, "0"),
         (SINK_NAME, "1", SINK_NAME, "1")],
        sink=SINK_NAME)


def _basilica():
    # a = (b, id) followed by the swap, b = (a, id) with no swap
    return make_automaton(
        ("a", "b", SINK_NAME), ("0", "1"),
        [("a", "0", "b", "1"),
         ("a", "1", SINK_NAME, "0"),
         ("b", "0", "a", "0"),
         ("b", "1", SINK_NAME, "1"),
         (SINK_NAME, "0", SINK_NAME, "0"),
         (SINK_NAME, "1", SINK_NAME, "1")],
        sink=SINK_NAME)


def _non_reducible_demo():
    # s swaps 0 and 1, fixes 2 and restricts to itself there
    return make_automaton(
        ("s", SINK_NAME), ("0", "1", "2"),
        [("s", "0", SINK_NAME, "1"),
         ("s", "1", SINK_NAME, "0"),
         ("s", "2", "s", "2"),
         (SINK_NAME, "0", SINK_NAME, "0"),
         (SINK_NAME, "1", SINK_NAME, "1"),
         (SINK_NAME, "2", SINK_NAME, "2")],
        sink=SINK_NAME)


def _aleshin():
    # a = (c, b) and b = (b, c) followed by the swap, c = (a, a) with no swap;
    # free of rank 3 and not contracting (Vorobets & Vorobets, Geom. Dedicata 2007)
    return make_automaton(
        ("a", "b", "c"), ("0", "1"),
        [("a", "0", "c", "1"),
         ("a", "1", "b", "0"),
         ("b", "0", "b", "1"),
         ("b", "1", "c", "0"),
         ("c", "0", "a", "0"),
         ("c", "1", "a", "1")])


BUILTIN_NAMES = (
    "star3", "fig5_tree", "path_<n>", "cycle_<n>", "triangle_acyclic",
    "triangle_cyclic", "adding_machine", "basilica", "non_reducible_demo", "aleshin",
)


_FIXTURES = {
    "star3": _star3,
    "fig5_tree": _fig5_tree,
    "triangle_acyclic": _triangle_acyclic,
    "triangle_cyclic": lambda: _cycle(3),
    "adding_machine": _adding_machine,
    "basilica": _basilica,
    "non_reducible_demo": _non_reducible_demo,
    "aleshin": _aleshin,
}


def builtin(name: str):
    """Named fixture: an OrientedGraph or a MealyAutomaton."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    m = re.fullmatch(r"path_(\d+)", name)
    if m:
        return _path(int(m.group(1)))
    m = re.fullmatch(r"cycle_(\d+)", name)
    if m:
        return _cycle(int(m.group(1)))
    raise UnknownFixture("no builtin named %r (known: %s)" % (name, ", ".join(BUILTIN_NAMES)))


def builtin_automaton(name: str) -> MealyAutomaton:
    """The fixture as an automaton, building graph fixtures on the fly."""
    obj = builtin(name)
    if isinstance(obj, OrientedGraph):
        return build_graph_automaton(obj)
    return obj


# -- textual format -----------------------------------------------------------
#
# one edge per line: "name tail head"; optional "vertices: ..." header adds
# isolated vertices; '#' starts a comment.

def load_graph(text: str) -> OrientedGraph:
    vertices = []
    vertices_seen = False
    edges = []
    for lineno, line in content_lines(text):
        if line.startswith("vertices:"):
            if vertices_seen:
                raise FormatError("line %d: duplicate vertices header" % lineno)
            vertices = line.partition(":")[2].split()
            vertices_seen = True
            continue
        fields = line.split()
        if len(fields) != 3:
            raise FormatError("line %d: expected 'name tail head'" % lineno)
        edges.append(tuple(fields))
    return OrientedGraph(edges, vertices=vertices)


def dump_graph(g: OrientedGraph) -> str:
    lines = []
    isolated = g.isolated_vertices()
    if isolated:
        lines.append("vertices: " + " ".join(g.vertices))
    lines.extend("%s %s %s" % (e.name, e.tail, e.head) for e in g.edges)
    return "\n".join(lines) + "\n"
