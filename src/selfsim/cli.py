"""Command line interface.

Every subcommand reads its automaton, graph or action from a file or from
the builtin fixture menagerie, runs one library operation and prints a
report of "key: value" lines (repeated keys form sections).  With
``--format structured`` the same pairs are emitted as JSON.  Reports are
byte-reproducible; wall-clock timing is only added on request.

Exit status: 0 success, 1 domain error (the error class name is in the
report), 2 usage error.
"""

import argparse
import hashlib
import json
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
from .errors import BadGraph, SelfSimError
from .graphgroup import (
    OrientedGraph,
    build_graph_automaton,
    builtin,
    load_graph,
)
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
from .schreier import (
    build_reducible_automaton,
    decorated_schreier_graph,
    load_action,
    load_assignment,
    verify_loop_shortening,
)
from .tracemonoid import (
    check_acyclic_no_positive_identity,
    check_cycle_torsion,
    equivalent,
    normal_form,
    presentation_from_tree,
    projections_equal,
    semigroup_eq_via_action,
    trace_word,
)
from .wordproblem import (
    check_reducible,
    dichotomy,
    embed_in_product,
    exponent_sums,
    fragile_member,
    is_identity,
    is_identity_in_Gk,
    nucleus,
    sym_quotient_order,
    wp_fragile,
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Inputs:
    """Resolves --builtin / --automaton / --graph / --action into objects."""

    def __init__(self, args, report):
        self.args = args
        self.report = report
        self._graph = None
        self._automaton = None

    def _read(self, path, kind):
        with open(path, "rb") as handle:
            data = handle.read()
        self.report.add("input", "file:%s" % path)
        self.report.add("input-sha256", _digest(data))
        return data.decode("utf-8")

    def graph(self) -> OrientedGraph:
        if self._graph is not None:
            return self._graph
        if getattr(self.args, "builtin", None):
            obj = builtin(self.args.builtin)
            if not isinstance(obj, OrientedGraph):
                raise BadGraph("builtin %r is not a graph" % self.args.builtin)
            self.report.add("input", "builtin:%s" % self.args.builtin)
            self._graph = obj
            return obj
        if getattr(self.args, "graph", None):
            self._graph = load_graph(self._read(self.args.graph, "graph"))
            return self._graph
        raise BadGraph("this command needs --builtin or --graph")

    def automaton(self):
        if self._automaton is not None:
            return self._automaton
        args = self.args
        if getattr(args, "automaton", None):
            self._automaton = load_automaton(self._read(args.automaton, "automaton"))
        elif getattr(args, "graph", None):
            self._automaton = build_graph_automaton(
                load_graph(self._read(args.graph, "graph")))
        elif getattr(args, "builtin", None):
            obj = builtin(args.builtin)
            self.report.add("input", "builtin:%s" % args.builtin)
            if isinstance(obj, OrientedGraph):
                obj = build_graph_automaton(obj)
            self._automaton = obj
        elif getattr(args, "action", None):
            self._automaton = build_reducible_automaton(
                load_action(self._read(args.action, "action")),
                self._assignment())
        else:
            raise BadGraph("this command needs an automaton source")
        return self._automaton

    def action(self):
        if not getattr(self.args, "action", None):
            raise BadGraph("this command needs --action FILE")
        return load_action(self._read(self.args.action, "action"))

    def _assignment(self):
        if getattr(self.args, "assignment", None):
            return load_assignment(self._read(self.args.assignment, "assignment"))
        return None


def _emit_automaton(report, aut, out_path=None):
    text = dump_automaton(aut)
    report.add("states", len(aut.states))
    report.add("letters", len(aut.alphabet))
    report.add("invertible", aut.invertible)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        report.add("written", out_path)
    for line in text.splitlines():
        report.add("automaton", line)


def _word_arg(parser, flag="-w", name="word"):
    parser.add_argument(flag, "--" + name, dest=name, required=True,
                        help="whitespace separated letters, inverses as g^-1")


def _add_sources(parser, automaton=True, graph=True, action=False):
    parser.add_argument("--builtin", help="fixture name, e.g. star3 or fig5_tree")
    if graph:
        parser.add_argument("--graph", help="graph file (name tail head lines)")
    if automaton:
        parser.add_argument("--automaton", help="automaton file")
    if action:
        parser.add_argument("--action", help="permutation action file")
        parser.add_argument("--assignment", help="spanning tree output assignment file")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="selfsim",
        description="automaton groups and semigroups: exact decisions and constructions")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    top.add_argument("--timing", action="store_true",
                     help="append elapsed milliseconds (breaks reproducibility)")
    top.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; sweeps run sequentially")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph-automaton", help="graph automaton of an oriented graph")
    _add_sources(p, automaton=False)
    p.add_argument("--out", help="write the automaton file here as well")

    for name, help_text in (("dual", "swap states and letters"),
                            ("enriched-dual", "dual of the machine joined with its inverse")):
        p = sub.add_parser(name, help=help_text)
        _add_sources(p)
        p.add_argument("--out")

    p = sub.add_parser("power", help="n-th power automaton")
    _add_sources(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("export-dot", help="DOT rendering of the transition diagram")
    _add_sources(p)
    p.add_argument("--out")

    p = sub.add_parser("wp", help="word problem")
    _add_sources(p)
    _word_arg(p)
    p.add_argument("--method", choices=("closure", "fragile"), default="closure")
    p.add_argument("--kmax", type=int, default=8)

    p = sub.add_parser("nucleus", help="nucleus of the generated group")
    _add_sources(p)
    p.add_argument("--depth-cap", type=positive_int, default=None)
    p.add_argument("--size-cap", type=positive_int, default=None)

    for name in ("fragile", "gk-identity"):
        p = sub.add_parser(name)
        _add_sources(p)
        _word_arg(p)
        p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("embed", help="level-k residual components")
    _add_sources(p)
    _word_arg(p)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("exponent-sums")
    _add_sources(p)
    _word_arg(p)

    p = sub.add_parser("check-reducible")
    _add_sources(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-depth", type=int, required=True)

    p = sub.add_parser("sym-quotient", help="order of the level-one permutation group")
    _add_sources(p)

    p = sub.add_parser("dichotomy", help="abelian or contains a free pair")
    p.add_argument("--tuples", required=True,
                   help="file, one tuple per line, components comma separated")

    p = sub.add_parser("trace-nf", help="trace monoid normal form")
    _add_sources(p, automaton=False)
    _word_arg(p, "-u", "u")

    p = sub.add_parser("trace-eq", help="equality of positive words")
    _add_sources(p, automaton=False)
    _word_arg(p, "-u", "u")
    _word_arg(p, "-v", "v")
    p.add_argument("--oracle", choices=("action", "projection"), default=None)

    p = sub.add_parser("dual-path", help="dual walk of a positive word from a letter")
    _add_sources(p)
    p.add_argument("-x", required=True)
    _word_arg(p, "-u", "u")

    p = sub.add_parser("check-acyclic")
    _add_sources(p)
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("cycle-torsion")
    _add_sources(p)
    _word_arg(p)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("schreier-gen", help="build the coset machine of an action")
    _add_sources(p, automaton=False, graph=False, action=True)
    p.add_argument("--out")

    p = sub.add_parser("verify-loops", help="closed walks must shorten their outputs")
    _add_sources(p, action=True)
    p.add_argument("--max-len", type=int, required=True)

    return top


def _run(args, report):
    caps = caps_from_env()
    level_cap = caps.get("level_cap")
    inputs = _Inputs(args, report)
    cmd = args.command

    if cmd == "build-graph-automaton":
        _emit_automaton(report, build_graph_automaton(inputs.graph()), args.out)
        return

    if cmd in ("dual", "enriched-dual"):
        aut = inputs.automaton()
        result = dual(aut) if cmd == "dual" else enriched_dual(aut)
        _emit_automaton(report, result, args.out)
        return

    if cmd == "power":
        _emit_automaton(report, power(inputs.automaton(), args.n), args.out)
        return

    if cmd == "export-dot":
        text = to_dot(inputs.automaton())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            report.add("written", args.out)
            return
        report.raw = text
        return

    if cmd == "wp":
        aut = inputs.automaton()
        report.add("word", args.word)
        report.add("method", args.method)
        if args.method == "closure":
            verdict = is_identity(aut, args.word)
        else:
            report.add("kmax", args.kmax)
            verdict = wp_fragile(aut, args.word, args.kmax, cap=level_cap)
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
        return

    if cmd == "nucleus":
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
        return

    if cmd in ("fragile", "gk-identity"):
        aut = inputs.automaton()
        report.add("word", args.word)
        report.add("k", args.k)
        if cmd == "fragile":
            report.add("member", fragile_member(aut, args.word, args.k, cap=level_cap))
        else:
            report.add("identity-in-Gk",
                       is_identity_in_Gk(aut, args.word, args.k, cap=level_cap))
        return

    if cmd == "embed":
        aut = inputs.automaton()
        report.add("word", args.word)
        report.add("k", args.k)
        components = embed_in_product(aut, args.word, args.k, cap=level_cap)
        report.add("all-trivial", all(w.is_empty() for w in components.values()))
        for u, w in components.items():
            report.add("component %s" % " ".join(u), format_word(w))
        return

    if cmd == "exponent-sums":
        aut = inputs.automaton()
        gens = [s for s in aut.states if s != aut.sink]
        sums = exponent_sums(parse_word(args.word, aut), gens)
        report.add("word", args.word)
        report.add("sums", " ".join(
            "%s=%d" % (symbol_str(g), v) for g, v in zip(gens, sums)))
        return

    if cmd == "check-reducible":
        rep = check_reducible(inputs.automaton(), args.max_len, args.max_depth)
        report.add("result", rep.status)
        report.add("words-scanned", rep.words_scanned)
        report.add("max-chain", rep.max_chain)
        if rep.counterexample:
            word, letter = rep.counterexample
            report.add("counterexample-word", format_word(word))
            report.add("counterexample-letter", letter)
        for word in rep.unresolved:
            report.add("unresolved", format_word(word))
        return

    if cmd == "sym-quotient":
        cap = caps.get("quotient_cap")
        report.add("order", sym_quotient_order(inputs.automaton(), cap=cap))
        return

    if cmd == "dichotomy":
        with open(args.tuples, "rb") as handle:
            data = handle.read()
        report.add("input", "file:%s" % args.tuples)
        report.add("input-sha256", _digest(data))
        rows = [tuple(parse_word(part) for part in line.split(","))
                for _, line in content_lines(data.decode("utf-8"))]
        result = dichotomy(rows)
        report.add("tuples", len(rows))
        report.add("result", result.kind)
        if result.kind == "FreePair":
            report.add("component-index", result.component)
            report.add("pair-indices", "%d %d" % result.pair)
        return

    if cmd == "trace-nf":
        pres = presentation_from_tree(inputs.graph())
        word = trace_word(pres, args.u)
        report.add("word", args.u)
        report.add("normal-form", str(normal_form(word)))
        return

    if cmd == "trace-eq":
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
            aut = build_graph_automaton(graph)
            result = semigroup_eq_via_action(aut, u.letters, v.letters)
            report.add("equal", result.equal)
            if result.witness is not None:
                report.add("witness-prefix", result.witness)
        return

    if cmd == "dual-path":
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
        return

    if cmd == "check-acyclic":
        rep = check_acyclic_no_positive_identity(
            inputs.automaton(), args.max_len, cap=level_cap)
        report.add("result", rep.status)
        report.add("words-checked", rep.words_checked)
        for word in rep.violations:
            report.add("violation", word)
        return

    if cmd == "cycle-torsion":
        aut = inputs.automaton()
        report.add("word", args.word)
        report.add("k", args.k)
        report.add("torsion-identity",
                   check_cycle_torsion(aut, args.word, args.k))
        return

    if cmd == "schreier-gen":
        action = inputs.action()
        assignment = inputs._assignment()
        aut = build_reducible_automaton(action, assignment)
        decorated = decorated_schreier_graph(action, assignment)
        report.add("cosets", len(aut.alphabet))
        report.add("degenerate", len(aut.alphabet) == 1)
        report.add("bisimulation-minimal", is_reduced(aut))
        report.add("classes", len(bisimulation_classes(aut)))
        report.add("roundtrip-enriched-dual",
                   "exact" if enriched_dual(aut) == decorated else "MISMATCH")
        _emit_automaton(report, aut, args.out)
        return

    if cmd == "verify-loops":
        rep = verify_loop_shortening(inputs.automaton(), args.max_len, cap=level_cap)
        report.add("result", rep.status)
        report.add("words-checked", rep.words_checked)
        for vertex, word in rep.violations:
            report.add("violation", "%s : %s" % (symbol_str(vertex), format_word(word)))
        return

    raise SelfSimError("unhandled command %r" % cmd)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = Report()
    report.add("tool", "selfsim")
    report.add("version", __version__)
    report.add("command", args.command)
    started = time.monotonic()
    try:
        _run(args, report)
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
