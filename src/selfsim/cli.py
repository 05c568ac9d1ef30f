"""Command line interface.

Every subcommand reads its automaton, graph or action from a file or from
the builtin fixture menagerie, runs one library operation and prints a
report of "key: value" lines (repeated keys form sections).  With
``--format structured`` the same pairs are emitted as JSON.  Reports are
byte-reproducible; wall-clock timing is only added on request.  COMMANDS
declares each subcommand once; the parser and the dispatch are built from it.
A call builds only its own subcommand's parser.  The modules every call
loads (action, mealy) are imported here; the graph, word problem, trace and
coset engines are imported by the code that calls them, so a call loads only
those it uses.

Exit status: 0 success, 1 domain error (the error class name is in the
report), 2 usage error.
"""

import argparse
import sys
import time

from . import __version__
from .action import (
    GroupWord,
    dual_path,
    erase_id,
    format_word,
    parse_word,
)
from .errors import BadGraph, FormatError, SelfSimError
from .limits import caps_from_env, positive_int
from .mealy import (
    bisimulation_classes,
    content_lines,
    dual,
    dump_automaton,
    enriched_dual,
    is_reduced,
    load_automaton,
    power,
    symbol_str,
    to_dot,
)

_CERT_LINES = 64


class Report:
    """Ordered key/value pairs with a text and a JSON rendering."""

    def __init__(self):
        self.items = []
        self.raw = None          # verbatim payload (DOT export) bypassing the pairs

    def add(self, key, value):
        self.items.append((key, _plain(value)))

    def render(self, fmt):
        if fmt == "structured":
            import json
            return json.dumps({"report": self.items}, indent=2) + "\n"
        return "".join("%s: %s\n" % (k, v) for k, v in self.items)


def _plain(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, GroupWord):
        return format_word(value)
    if isinstance(value, (list, tuple)):
        return " ".join(symbol_str(v) for v in value)
    return symbol_str(value)


class _Inputs:
    """Resolves --builtin / --automaton / --graph / --action / --tuples into objects."""

    def __init__(self, args, report):
        self.args = args
        self.report = report

    def _read(self, path):
        """Text of an input file; its name and digest go into the report."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as err:
            raise FormatError("cannot read %s: %s" % (path, err.strerror)) from None
        import hashlib
        self.report.add("input", "file:%s" % path)
        self.report.add("input-sha256", hashlib.sha256(data).hexdigest())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError("%s is not UTF-8 text (bad byte at offset %d)"
                              % (path, err.start)) from None

    def graph(self):
        from .graphgroup import OrientedGraph, builtin, load_graph
        args = self.args
        if args.builtin:
            obj = builtin(args.builtin)
            if not isinstance(obj, OrientedGraph):
                raise BadGraph("builtin %r is not a graph" % args.builtin)
            self.report.add("input", "builtin:%s" % args.builtin)
            return obj
        if args.graph:
            return load_graph(self._read(args.graph))
        raise BadGraph("this command needs --builtin or --graph")

    def automaton(self):
        args = self.args
        if args.automaton:
            return load_automaton(self._read(args.automaton))
        from .graphgroup import OrientedGraph, build_graph_automaton, builtin, load_graph
        if args.graph:
            return build_graph_automaton(load_graph(self._read(args.graph)))
        if args.builtin:
            obj = builtin(args.builtin)
            self.report.add("input", "builtin:%s" % args.builtin)
            return build_graph_automaton(obj) if isinstance(obj, OrientedGraph) else obj
        if args.action:
            from .schreier import build_reducible_automaton
            return build_reducible_automaton(self.action(), self.assignment())
        raise BadGraph("this command needs an automaton source")

    def action(self):
        if not self.args.action:
            raise BadGraph("this command needs --action FILE")
        from .schreier import load_action
        return load_action(self._read(self.args.action))

    def assignment(self):
        if self.args.assignment:
            from .schreier import load_assignment
            return load_assignment(self._read(self.args.assignment))
        return None

    def tuples(self):
        return [tuple(parse_word(part) for part in line.split(","))
                for _, line in content_lines(self._read(self.args.tuples))]


def _write(report, path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise FormatError("cannot write %s: %s" % (path, err.strerror)) from None
    report.add("written", path)


def _emit_automaton(report, aut, out_path):
    text = dump_automaton(aut)
    report.add("states", len(aut.states))
    report.add("letters", len(aut.alphabet))
    report.add("invertible", aut.invertible)
    if out_path:
        _write(report, out_path, text)
    for line in text.splitlines():
        report.add("automaton", line)


# -- handlers: each fills the report of one subcommand -----------------------

def _build_graph_automaton(args, inputs, report, caps):
    from .graphgroup import build_graph_automaton
    _emit_automaton(report, build_graph_automaton(inputs.graph()), args.out)


def _dual(args, inputs, report, caps):
    _emit_automaton(report, dual(inputs.automaton()), args.out)


def _enriched_dual(args, inputs, report, caps):
    _emit_automaton(report, enriched_dual(inputs.automaton()), args.out)


def _power(args, inputs, report, caps):
    _emit_automaton(report, power(inputs.automaton(), args.n), args.out)


def _export_dot(args, inputs, report, caps):
    text = to_dot(inputs.automaton())
    if args.out:
        _write(report, args.out, text)
    else:
        report.raw = text


def _wp(args, inputs, report, caps):
    from .wordproblem import is_identity, wp_fragile
    aut = inputs.automaton()
    report.add("word", args.word)
    report.add("method", args.method)
    if args.method == "closure":
        verdict = is_identity(aut, args.word)
    else:
        report.add("kmax", args.kmax)
        verdict = wp_fragile(aut, args.word, args.kmax, cap=caps.get("level_cap"))
    report.add("decision", verdict.decision)
    if verdict.witness is not None:
        report.add("witness", verdict.witness)
    elif verdict.decision == "NonIdentity":
        report.add("witness", "-")
        report.add("kmax-exhausted", True)
    if verdict.decision == "Identity":
        if verdict.method == "closure":
            report.add("certificate-size", len(verdict.certificate))
            for word in verdict.certificate[:_CERT_LINES]:
                report.add("certificate", format_word(word))
            if len(verdict.certificate) > _CERT_LINES:
                report.add("certificate-truncated", True)
        else:
            report.add("fragile-index", verdict.certificate[0])


def _nucleus(args, inputs, report, caps):
    from .wordproblem import nucleus
    aut = inputs.automaton()
    nuc = nucleus(
        aut,
        depth_cap=caps.get("nucleus_depth") if args.depth_cap is None else args.depth_cap,
        size_cap=caps.get("nucleus_size") if args.size_cap is None else args.size_cap)
    report.add("size", len(nuc))
    for rep in nuc.elements:
        report.add("element", format_word(rep))
        secs = nuc.sections[rep]
        report.add("sections", " ".join(
            "%s:%s" % (symbol_str(x), format_word(secs[x])) for x in aut.alphabet))


def _level_query(key, name):
    """Handler reporting `wordproblem.<name>(aut, word, k, cap=level cap)` under `key`."""
    def handler(args, inputs, report, caps):
        from . import wordproblem
        decide = getattr(wordproblem, name)
        aut = inputs.automaton()
        report.add("word", args.word)
        report.add("k", args.k)
        report.add(key, decide(aut, args.word, args.k, cap=caps.get("level_cap")))
    return handler


def _embed(args, inputs, report, caps):
    from .wordproblem import embed_in_product
    aut = inputs.automaton()
    report.add("word", args.word)
    report.add("k", args.k)
    components = embed_in_product(aut, args.word, args.k, cap=caps.get("level_cap"))
    report.add("all-trivial", all(w.is_empty() for w in components.values()))
    for u, w in components.items():
        report.add("component %s" % " ".join(u), format_word(w))


def _exponent_sums(args, inputs, report, caps):
    from .wordproblem import exponent_sums
    aut = inputs.automaton()
    gens = [s for s in aut.states if s != aut.sink]
    sums = exponent_sums(parse_word(args.word, aut), gens)
    report.add("word", args.word)
    report.add("sums", " ".join("%s=%d" % (symbol_str(g), v) for g, v in zip(gens, sums)))


def _check_reducible(args, inputs, report, caps):
    from .wordproblem import check_reducible
    rep = check_reducible(inputs.automaton(), args.max_len, args.max_depth,
                          cap=caps.get("level_cap"))
    report.add("result", rep.status)
    report.add("words-scanned", rep.words_scanned)
    report.add("max-chain", rep.max_chain)
    if rep.counterexample:
        word, letter = rep.counterexample
        report.add("counterexample-word", format_word(word))
        report.add("counterexample-letter", letter)
    for word in rep.unresolved:
        report.add("unresolved", format_word(word))


def _sym_quotient(args, inputs, report, caps):
    from .wordproblem import sym_quotient_order
    report.add("order", sym_quotient_order(inputs.automaton(), cap=caps.get("quotient_cap")))


def _dichotomy(args, inputs, report, caps):
    from .wordproblem import dichotomy
    rows = inputs.tuples()
    result = dichotomy(rows)
    report.add("tuples", len(rows))
    report.add("result", result.kind)
    if result.kind == "FreePair":
        report.add("component-index", result.component)
        report.add("pair-indices", "%d %d" % result.pair)


def _trace_nf(args, inputs, report, caps):
    from .tracemonoid import normal_form, presentation_from_tree, trace_word
    word = trace_word(presentation_from_tree(inputs.graph()), args.u)
    report.add("word", args.u)
    report.add("normal-form", str(normal_form(word)))


def _trace_eq(args, inputs, report, caps):
    from .graphgroup import build_graph_automaton
    from .tracemonoid import (equivalent, presentation_from_tree, projections_equal,
                              semigroup_eq_via_action, trace_word)
    graph = inputs.graph()
    pres = presentation_from_tree(graph)
    u = trace_word(pres, args.u)
    v = trace_word(pres, args.v)
    report.add("u", args.u)
    report.add("v", args.v)
    if args.oracle is None:
        report.add("oracle", "normal-form")
        report.add("equal", equivalent(u, v))
    elif args.oracle == "projection":
        report.add("oracle", "projection")
        report.add("equal", projections_equal(u, v))
    else:
        report.add("oracle", "action")
        result = semigroup_eq_via_action(build_graph_automaton(graph), u.letters, v.letters)
        report.add("equal", result.equal)
        if result.witness is not None:
            report.add("witness-prefix", result.witness)


def _dual_path(args, inputs, report, caps):
    aut = inputs.automaton()
    path = dual_path(aut, args.x, args.u)
    report.add("x", args.x)
    report.add("u", args.u)
    report.add("full", " ".join(
        "(%s|%s)" % (symbol_str(item[0]), symbol_str(item[1]))
        if isinstance(item, tuple) else symbol_str(item)
        for item in path.full()))
    report.add("outputs", path.outputs)
    report.add("outputs-erased", erase_id(path.outputs, aut.sink))
    report.add("p", path.condensed)


def _check_acyclic(args, inputs, report, caps):
    from .tracemonoid import check_acyclic_no_positive_identity
    rep = check_acyclic_no_positive_identity(
        inputs.automaton(), args.max_len, cap=caps.get("level_cap"))
    report.add("result", rep.status)
    report.add("words-checked", rep.words_checked)
    for word in rep.violations:
        report.add("violation", word)


def _cycle_torsion(args, inputs, report, caps):
    from .tracemonoid import check_cycle_torsion
    aut = inputs.automaton()
    report.add("word", args.word)
    report.add("k", args.k)
    report.add("torsion-identity", check_cycle_torsion(aut, args.word, args.k))


def _schreier_gen(args, inputs, report, caps):
    from .schreier import build_reducible_automaton, decorated_schreier_graph
    action = inputs.action()
    assignment = inputs.assignment()
    aut = build_reducible_automaton(action, assignment)
    decorated = decorated_schreier_graph(action, assignment)
    report.add("cosets", len(aut.alphabet))
    report.add("degenerate", len(aut.alphabet) == 1)
    report.add("bisimulation-minimal", is_reduced(aut))
    report.add("classes", len(bisimulation_classes(aut)))
    report.add("roundtrip-enriched-dual",
               "exact" if enriched_dual(aut) == decorated else "MISMATCH")
    _emit_automaton(report, aut, args.out)


def _verify_loops(args, inputs, report, caps):
    from .schreier import verify_loop_shortening
    rep = verify_loop_shortening(inputs.automaton(), args.max_len, cap=caps.get("level_cap"))
    report.add("result", rep.status)
    report.add("words-checked", rep.words_checked)
    for vertex, word in rep.violations:
        report.add("violation", "%s : %s" % (symbol_str(vertex), format_word(word)))


# -- the subcommand table -----------------------------------------------------

def _arg(*flags, **options):
    return flags, options


_SOURCE_HELP = {
    "builtin": "fixture name, e.g. star3 or fig5_tree",
    "graph": "graph file (name tail head lines)",
    "automaton": "automaton file",
    "action": "permutation action file",
    "assignment": "spanning tree output assignment file",
}
_GRAPH = ("builtin", "graph")
_MACHINE = ("builtin", "graph", "automaton")
_ACTION = ("action", "assignment")

_WORD_HELP = "whitespace separated letters, inverses as g^-1"
_WORD = _arg("-w", "--word", dest="word", required=True, help=_WORD_HELP)
_U = _arg("-u", "--u", dest="u", required=True, help=_WORD_HELP)
_V = _arg("-v", "--v", dest="v", required=True, help=_WORD_HELP)
_K = _arg("-k", type=int, required=True)
_MAX_LEN = _arg("--max-len", type=int, required=True)
_OUT = _arg("--out")

# (name, help, input sources, further arguments, handler), in --help order.
COMMANDS = (
    ("build-graph-automaton", "graph automaton of an oriented graph", _GRAPH,
     [_arg("--out", help="write the automaton file here as well")], _build_graph_automaton),
    ("dual", "swap states and letters", _MACHINE, [_OUT], _dual),
    ("enriched-dual", "dual of the machine joined with its inverse", _MACHINE, [_OUT],
     _enriched_dual),
    ("power", "n-th power automaton", _MACHINE,
     [_arg("-n", type=int, required=True), _OUT], _power),
    ("export-dot", "DOT rendering of the transition diagram", _MACHINE, [_OUT], _export_dot),
    ("wp", "word problem", _MACHINE,
     [_WORD, _arg("--method", choices=("closure", "fragile"), default="closure"),
      _arg("--kmax", type=int, default=8)], _wp),
    ("nucleus", "nucleus of the generated group", _MACHINE,
     [_arg("--depth-cap", type=positive_int, default=None),
      _arg("--size-cap", type=positive_int, default=None)], _nucleus),
    ("fragile", None, _MACHINE, [_WORD, _K], _level_query("member", "fragile_member")),
    ("gk-identity", None, _MACHINE, [_WORD, _K],
     _level_query("identity-in-Gk", "is_identity_in_Gk")),
    ("embed", "level-k residual components", _MACHINE, [_WORD, _K], _embed),
    ("exponent-sums", None, _MACHINE, [_WORD], _exponent_sums),
    ("check-reducible", None, _MACHINE,
     [_MAX_LEN, _arg("--max-depth", type=int, required=True)], _check_reducible),
    ("sym-quotient", "order of the level-one permutation group", _MACHINE, [], _sym_quotient),
    ("dichotomy", "abelian or contains a free pair", (),
     [_arg("--tuples", required=True,
           help="file, one tuple per line, components comma separated")], _dichotomy),
    ("trace-nf", "trace monoid normal form", _GRAPH, [_U], _trace_nf),
    ("trace-eq", "equality of positive words", _GRAPH,
     [_U, _V, _arg("--oracle", choices=("action", "projection"), default=None)], _trace_eq),
    ("dual-path", "dual walk of a positive word from a letter", _MACHINE,
     [_arg("-x", required=True), _U], _dual_path),
    ("check-acyclic", None, _MACHINE, [_MAX_LEN], _check_acyclic),
    ("cycle-torsion", None, _MACHINE, [_WORD, _K], _cycle_torsion),
    ("schreier-gen", "build the coset machine of an action", ("builtin",) + _ACTION, [_OUT],
     _schreier_gen),
    ("verify-loops", "closed walks must shorten their outputs", _MACHINE + _ACTION, [_MAX_LEN],
     _verify_loops),
)


class _Subcommand(argparse.ArgumentParser):
    """Parser of one COMMANDS row, built when argparse dispatches to it.

    The top parser lists every subcommand's name and help line, so its help,
    usage and errors need no subcommand parser.  Only the invoked subcommand
    builds its parser and arguments, when argparse hands it its arguments
    through parse_known_args(arg_strings, None).
    """

    def __init__(self, row, **options):
        self._row, self._options = row, options

    def parse_known_args(self, args=None, namespace=None):
        if self._row is not None:
            _, _, sources, arguments, handler = self._row
            self._row = None
            super().__init__(**self._options)
            for source in sources:
                self.add_argument("--" + source, help=_SOURCE_HELP[source])
            for flags, options in arguments:
                self.add_argument(*flags, **options)
            self.set_defaults(handler=handler)
        return super().parse_known_args(args, namespace)


def _parser():
    top = argparse.ArgumentParser(
        prog="selfsim",
        description="automaton groups and semigroups: exact decisions and constructions")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    top.add_argument("--timing", action="store_true",
                     help="append elapsed milliseconds (breaks reproducibility)")
    top.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; sweeps run sequentially")
    top.set_defaults(**dict.fromkeys(_SOURCE_HELP))
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for row in COMMANDS:
        name, help_text = row[:2]
        sub.add_parser(name, row=row, **({"help": help_text} if help_text else {}))
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = Report()
    report.add("tool", "selfsim")
    report.add("version", __version__)
    report.add("command", args.command)
    started = time.monotonic()
    try:
        caps = caps_from_env()
        args.handler(args, _Inputs(args, report), report, caps)
    except SelfSimError as err:
        report.add("status", "error")
        report.add("error", type(err).__name__)
        report.add("message", str(err))
        sys.stdout.write(report.render(args.format))
        return 1
    report.add("status", "ok")
    if args.timing:
        report.add("timing-ms", "%d" % int((time.monotonic() - started) * 1000))
    if report.raw is not None:
        sys.stdout.write(report.raw)
    else:
        sys.stdout.write(report.render(args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
