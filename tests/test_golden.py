"""Full CLI reports compared byte for byte with stored reference output.

Each case runs one subcommand from inside tests/golden, so file inputs are
named by relative paths, and compares the exit status and the whole stdout
with tests/golden/<case>.out.
"""

import contextlib
import io
import pathlib

import pytest

from selfsim.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

FIG5_COMM = "e2 e4 e2^-1 e4^-1"
STAR_COMM = "a b a^-1 b^-1"
FIG5_TRACE = ("e3 e3 e5 e2 e3 e2 e4 e4 e3 e1 e1 id e2 e2 e4 e1 e2 id e1 e4 id e2 e2 e3 "
              "e5 id id e2 e5 e5 e5 e5 e1 e5 e5 e1 e3 e2 e1 e5 e2 e3 e2 e5 e3 e1 e2 e2 "
              "id e3 e2 id e2 e5 id e1 e5 e3 e4 e3 e4 e1 e5 id")

CASES = [
    ("nucleus-basilica", ["nucleus", "--builtin", "basilica"], 0),
    ("nucleus-star3", ["nucleus", "--builtin", "star3"], 0),
    ("nucleus-adding-file", ["nucleus", "--automaton", "adding.aut"], 0),
    ("nucleus-star3-structured",
     ["--format", "structured", "nucleus", "--builtin", "star3"], 0),
    ("trace-eq-action-equal",
     ["trace-eq", "--builtin", "fig5_tree", "-u", "e2 e4 e1", "-v", "e4 e2 e1",
      "--oracle", "action"], 0),
    ("trace-eq-action-unequal",
     ["trace-eq", "--builtin", "star3", "-u", "a b", "-v", "b a", "--oracle", "action"], 0),
    ("trace-eq-action-long-witness",
     ["trace-eq", "--builtin", "star3", "-u", "a a b", "-v", "b a a", "--oracle", "action"], 0),
    ("trace-eq-action-graph-file",
     ["trace-eq", "--graph", "path4.graph", "-u", "e1 e3 id", "-v", "e3 e1",
      "--oracle", "action"], 0),
    ("trace-nf-graph-file", ["trace-nf", "--graph", "path4.graph", "-u", "e3 e1 e2 id"], 0),
    ("check-acyclic-pass",
     ["check-acyclic", "--builtin", "triangle_acyclic", "--max-len", "3"], 0),
    ("check-acyclic-cyclic",
     ["check-acyclic", "--builtin", "triangle_cyclic", "--max-len", "3"], 1),
    ("check-acyclic-self-loop",
     ["check-acyclic", "--builtin", "non_reducible_demo", "--max-len", "2"], 1),
    ("schreier-gen-action", ["schreier-gen", "--action", "action4.txt"], 0),
    ("schreier-gen-assignment",
     ["schreier-gen", "--action", "action4.txt", "--assignment", "assignment4.txt"], 0),
    ("verify-loops-action", ["verify-loops", "--action", "action4.txt", "--max-len", "3"], 0),
    ("verify-loops-assignment",
     ["verify-loops", "--action", "action4.txt", "--assignment", "assignment4.txt",
      "--max-len", "3"], 0),
    ("verify-loops-assignment-duplicate",
     ["verify-loops", "--action", "action4.txt", "--assignment", "assignment4-dup.txt",
      "--max-len", "3"], 1),
    ("wp-fragile-identity",
     ["wp", "--builtin", "fig5_tree", "-w", FIG5_COMM, "--method", "fragile", "--kmax", "4"], 0),
    ("wp-fragile-nonidentity",
     ["wp", "--builtin", "star3", "-w", STAR_COMM, "--method", "fragile", "--kmax", "3"], 0),
    ("wp-closure-file", ["wp", "--automaton", "adding.aut", "-w", "a a"], 0),
    ("fragile-member", ["fragile", "--builtin", "fig5_tree", "-w", FIG5_COMM, "-k", "2"], 0),
    ("fragile-nonmember", ["fragile", "--builtin", "star3", "-w", STAR_COMM, "-k", "2"], 0),
    ("gk-identity", ["gk-identity", "--builtin", "fig5_tree", "-w", FIG5_COMM, "-k", "3"], 0),
    ("embed", ["embed", "--builtin", "fig5_tree", "-w", FIG5_COMM, "-k", "2"], 0),
    ("dichotomy-abelian", ["dichotomy", "--tuples", "abelian.tuples"], 0),
    ("dichotomy-free", ["dichotomy", "--tuples", "free.tuples"], 0),
    ("wp-closure-identity", ["wp", "--builtin", "fig5_tree", "-w", FIG5_COMM], 0),
    ("wp-closure-nonidentity", ["wp", "--builtin", "star3", "-w", STAR_COMM], 0),
    ("check-reducible-pass",
     ["check-reducible", "--builtin", "star3", "--max-len", "3", "--max-depth", "8"], 0),
    ("check-reducible-counterexample",
     ["check-reducible", "--builtin", "non_reducible_demo", "--max-len", "3",
      "--max-depth", "6"], 0),
    ("nucleus-fig5", ["nucleus", "--builtin", "fig5_tree"], 0),
    ("sym-quotient-fig5", ["sym-quotient", "--builtin", "fig5_tree"], 0),
    ("sym-quotient-cycle8", ["sym-quotient", "--builtin", "cycle_8"], 0),
    ("sym-quotient-cycle9-cap", ["sym-quotient", "--builtin", "cycle_9"], 1),
    ("trace-nf-fig5-long", ["trace-nf", "--builtin", "fig5_tree", "-u", FIG5_TRACE], 0),
    ("nucleus-cycle5", ["nucleus", "--builtin", "cycle_5"], 0),
    ("nucleus-path5", ["nucleus", "--builtin", "path_5"], 0),
    ("nucleus-fig5-size-cap", ["nucleus", "--builtin", "fig5_tree", "--size-cap", "10"], 1),
    ("build-graph-automaton-star3", ["build-graph-automaton", "--builtin", "star3"], 0),
    ("dual-basilica", ["dual", "--builtin", "basilica"], 0),
    ("enriched-dual-adding", ["enriched-dual", "--builtin", "adding_machine"], 0),
    ("power-adding-2", ["power", "--builtin", "adding_machine", "-n", "2"], 0),
    ("export-dot-basilica", ["export-dot", "--builtin", "basilica"], 0),
    ("exponent-sums",
     ["exponent-sums", "--builtin", "fig5_tree", "-w", "e2 e4 e2^-1 e2^-1 e1"], 0),
    ("dual-path", ["dual-path", "--builtin", "fig5_tree", "-x", "1", "-u", "e2 e1 e1 e4"], 0),
    ("cycle-torsion",
     ["cycle-torsion", "--builtin", "triangle_cyclic", "-w", "a1 a2 a3", "-k", "3"], 0),
    ("trace-eq-normal-form",
     ["trace-eq", "--builtin", "fig5_tree", "-u", "e2 e4 e1", "-v", "e4 e2 e1"], 0),
    ("trace-eq-projection",
     ["trace-eq", "--builtin", "fig5_tree", "-u", "e2 e1 e4", "-v", "e4 e2 e1",
      "--oracle", "projection"], 0),
    ("wp-unknown-generator", ["wp", "--builtin", "star3", "-w", "a zz"], 1),
    ("wp-unknown-generator-structured",
     ["--format", "structured", "wp", "--builtin", "star3", "-w", "a zz"], 1),
    ("exponent-sums-unknown-generator", ["exponent-sums", "--builtin", "star3", "-w", "a q"], 1),
    ("trace-nf-unknown-letter", ["trace-nf", "--builtin", "fig5_tree", "-u", "e1 e9"], 1),
    ("power-zero", ["power", "--builtin", "star3", "-n", "0"], 1),
    ("dual-path-bad-letter",
     ["dual-path", "--builtin", "fig5_tree", "-x", "9", "-u", "e2 e1"], 1),
    ("builtin-unknown", ["nucleus", "--builtin", "nope"], 1),
    ("wp-missing-file", ["wp", "--automaton", "missing.aut", "-w", "a"], 1),
    ("dichotomy-missing-file", ["dichotomy", "--tuples", "missing.tuples"], 1),
    ("dichotomy-not-utf8", ["dichotomy", "--tuples", "not-utf8.tuples"], 1),
    ("wp-fragile-kmax-exhausted",
     ["wp", "--builtin", "adding_machine", "-w", "e e e e", "--method", "fragile",
      "--kmax", "2"], 0),
    ("wp-closure-certificate-truncated", ["wp", "--automaton", "trivial4.aut", "-w", "p q r s"], 0),
    ("check-reducible-inconclusive",
     ["check-reducible", "--builtin", "basilica", "--max-len", "2", "--max-depth", "0"], 0),
    ("verify-loops-violations", ["verify-loops", "--action", "action1.txt", "--max-len", "2"], 0),
    ("dual-out-unwritable", ["dual", "--builtin", "star3", "--out", "missing-dir/x.aut"], 1),
    ("check-reducible-level-cap",
     ["check-reducible", "--builtin", "fig5_tree", "--max-len", "12", "--max-depth", "8"], 1),
    ("check-acyclic-level-cap",
     ["check-acyclic", "--builtin", "triangle_acyclic", "--max-len", "10000"], 1),
    ("nucleus-cycle6", ["nucleus", "--builtin", "cycle_6"], 0),
    ("check-reducible-negative-length",
     ["check-reducible", "--builtin", "star3", "--max-len", "-1", "--max-depth", "8"], 1),
    ("wp-fragile-level-cap",
     ["wp", "--builtin", "fig5_tree", "-w", "e1 e2", "--method", "fragile", "--kmax", "8"], 1),
    ("wp-fragile-before-cap",
     ["wp", "--builtin", "fig5_tree", "-w", FIG5_COMM, "--method", "fragile", "--kmax", "8"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[case[0] for case in CASES])
def test_golden_report(name, argv, code, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("SELFSIM_CAPS", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(list(argv))
    expected = (GOLDEN / (name + ".out")).read_bytes().decode("utf-8")
    assert (got, buf.getvalue()) == (code, expected)
