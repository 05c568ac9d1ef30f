"""The engine's records: repr, str, hash, immutability and tuple behaviour."""

import os
import pathlib
import subprocess
import sys

import pytest

from selfsim import (
    build_reducible_automaton,
    check_acyclic_no_positive_identity,
    check_reducible,
    dichotomy,
    dual_path,
    find_noose,
    is_identity,
    load_action,
    presentation_from_tree,
    schreier_graph,
    semigroup_eq_via_action,
    trace_word,
    verify_loop_shortening,
    wp_fragile,
    wreath,
)
from selfsim.action import Noose
from selfsim.errors import UnknownGenerator
from selfsim.tracemonoid import TraceWord

SRC = pathlib.Path(__file__).parents[1] / "src"
A, B = (("a", 1),), (("b", 1),)
STAR_PRES = "TracePresentation(a b c id; 0 commuting pairs)"

# (record built by the engine, its field names in order, its repr)
RECORDS = [
    (lambda f: wp_fragile(f["adding"], "e e^-1", 3),
     "decision witness certificate method",
     "WpVerdict(decision='Identity', witness=None, certificate=(1,), method='fragile')"),
    (lambda f: is_identity(f["adding"], "e"),
     "decision witness certificate method",
     "WpVerdict(decision='NonIdentity', witness=('0',), certificate=None, method='closure')"),
    (lambda f: check_reducible(f["star"], 1, 8),
     "status counterexample unresolved words_scanned max_chain",
     "ReducibilityReport(status='Pass', counterexample=None, unresolved=(), "
     "words_scanned=6, max_chain=0)"),
    (lambda f: check_reducible(f["basilica"], 1, 0),
     "status counterexample unresolved words_scanned max_chain",
     "ReducibilityReport(status='Inconclusive', counterexample=None, "
     "unresolved=(GroupWord(b), GroupWord(b^-1)), words_scanned=4, max_chain=1)"),
    (lambda f: semigroup_eq_via_action(f["star"], ["a", "b"], ["b", "a"]),
     "equal witness",
     "ActionEq(equal=False, witness=('0',))"),
    (lambda f: check_acyclic_no_positive_identity(f["triangle_acyclic"], 2),
     "status violations words_checked",
     "PositiveIdentityReport(status='Pass', violations=(), words_checked=12)"),
    (lambda f: verify_loop_shortening(build_reducible_automaton(load_action("degree 1\na: 0\n")), 1),
     "status violations words_checked",
     "LoopReport(status='Violations', violations=(('0', (('a', 1),)), ('0', (('a', -1),))), "
     "words_checked=2)"),
    (lambda f: trace_word(presentation_from_tree(f["star_graph"]), "a b"),
     "pres letters",
     "TraceWord(pres=%s, letters=('a', 'b'))" % STAR_PRES),
    (lambda f: dichotomy([[A], [B]]),
     "kind component pair",
     "DichotomyResult(kind='FreePair', component=0, pair=(0, 1))"),
    (lambda f: dichotomy([[A], [A]]),
     "kind component pair",
     "DichotomyResult(kind='Abelian', component=None, pair=None)"),
    (lambda f: dual_path(f["star"], "0", "a a"),
     "start inputs outputs vertices",
     "DualPath(0 -(a|a)-> 1 -(a|id)-> 0)"),
    (lambda f: find_noose(f["star"], "0", "a a"),
     "start stop letters outputs",
     "Noose(0:2, a a)"),
    (lambda f: f["star_graph"].edges[0],
     "name tail head",
     "Edge(name='a', tail='0', head='1')"),
    (lambda f: schreier_graph(load_action("degree 1\na: 0\n")),
     "action vertices arcs",
     "SchreierGraph(action=FiniteAction(a on 1 points, basepoint 0), vertices=(0,), "
     "arcs=((0, 'a', 0),))"),
]


@pytest.fixture(scope="module")
def fixtures(adding, star, basilica, triangle_acyclic, star_graph):
    return {"adding": adding, "star": star, "basilica": basilica,
            "triangle_acyclic": triangle_acyclic, "star_graph": star_graph}


@pytest.mark.parametrize("make,fields,text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_repr_hash_and_immutability(make, fields, text, fixtures):
    record = make(fixtures)
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields.split())
    assert hash(record) == hash(values)
    with pytest.raises(AttributeError):
        setattr(record, fields.split()[0], None)


def test_records_are_tuples(fixtures):
    verdict = is_identity(fixtures["adding"], "e")
    decision, witness, certificate, method = verdict
    assert (decision, witness, certificate, method) == ("NonIdentity", ("0",), None, "closure")
    assert verdict == ("NonIdentity", ("0",), None, "closure")
    assert not verdict.identity


@pytest.mark.parametrize("make,fields,text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_records_unpack_and_equal_plain_tuples(make, fields, text, fixtures):
    record = make(fixtures)
    assert record._fields == tuple(fields.split())
    values = tuple(getattr(record, name) for name in fields.split())
    assert tuple(record) == values
    assert record == values


def test_wreath_record_holds_dicts(fixtures):
    rep = wreath(fixtures["adding"], "e")
    assert rep._fields == ("perm", "sections")
    assert repr(rep) == ("SelfSimilarRep(perm={'0': '1', '1': '0'}, "
                         "sections={'0': GroupWord(e), '1': GroupWord(1)})")
    perm, sections = rep
    assert rep == (perm, sections)
    with pytest.raises(TypeError):        # its fields are dicts
        hash(rep)
    with pytest.raises(AttributeError):
        rep.perm = {}


def test_noose_equality_compares_outputs():
    noose = Noose(0, 2, ("a", "a"), ("a", "id"))
    assert noose == Noose(0, 2, ("a", "a"), ("a", "id"))
    assert noose != Noose(0, 2, ("a", "a"), ("id", "id"))


def test_record_str():
    assert str(dichotomy([[A], [B]])) == "FreePair(component=0, pair=(0, 1))"
    assert str(dichotomy([[A], [A]])) == "Abelian"


def test_trace_word_checks_its_letters(star_graph):
    pres = presentation_from_tree(star_graph)
    assert str(TraceWord(pres, ())) == "1"
    assert TraceWord(pres, ("a", "id")).erased() == ("a",)
    with pytest.raises(UnknownGenerator):
        TraceWord(pres, ("a", "zz"))
    with pytest.raises(UnknownGenerator):
        TraceWord(pres, ("a",))._replace(letters=("zz",))


def test_cli_import_pulls_in_no_dataclasses_or_typing():
    code = ("import sys, selfsim.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == []
