"""Outside inputs: positive caps and the one comment-and-blank-line tokenizer."""

import contextlib
import io

import pytest

from selfsim.cli import main
from selfsim.errors import FormatError
from selfsim.graphgroup import load_graph
from selfsim.limits import caps_from_env, positive_int
from selfsim.mealy import content_lines, load_automaton
from selfsim.schreier import load_action, load_assignment


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("flag", ["--size-cap", "--depth-cap"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_non_positive_cap_flag_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nucleus", "--builtin", "basilica", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cap_flag_wins_over_environment(monkeypatch):
    monkeypatch.setenv("SELFSIM_CAPS", "nucleus-size=1")
    code, out = run_cli("nucleus", "--builtin", "basilica")
    assert code == 1
    assert "error: NotContractingWithinCaps" in out
    code, out = run_cli("nucleus", "--builtin", "basilica", "--size-cap", "7")
    assert code == 0
    assert "size: 7" in out.splitlines()


@pytest.mark.parametrize("raw", ["0", "-5", "level=0", "nucleus-size=-1",
                                 "quotient=9,nucleus-depth=0", "level=x"])
def test_env_caps_must_be_positive(raw):
    with pytest.raises(FormatError):
        caps_from_env({"SELFSIM_CAPS": raw})


@pytest.mark.parametrize("raw", ["level=5,level=7", "quotient=9, nucleus-size=4,quotient=9"])
def test_env_caps_reject_a_repeated_key(raw):
    key = raw.partition("=")[0]
    with pytest.raises(FormatError, match="duplicate SELFSIM_CAPS key %r" % key):
        caps_from_env({"SELFSIM_CAPS": raw})


def test_env_caps_accepts_positive_values():
    assert caps_from_env({"SELFSIM_CAPS": "7"}) == {"level_cap": 7}
    assert caps_from_env({"SELFSIM_CAPS": "quotient=9, nucleus-depth=1"}) == {
        "quotient_cap": 9, "nucleus_depth": 1}
    assert positive_int("3") == 3
    with pytest.raises(ValueError):
        positive_int("0")


def test_non_positive_env_cap_is_a_domain_error(monkeypatch):
    monkeypatch.setenv("SELFSIM_CAPS", "0")
    code, out = run_cli("fragile", "--builtin", "star3", "-w", "a", "-k", "1")
    assert code == 1
    assert "error: FormatError" in out


def test_content_lines_drops_comments_and_blanks():
    text = "# header\n\n  a b  # tail\n\t\n#\nc#d\n"
    assert list(content_lines(text)) == [(3, "a b"), (6, "c")]


def test_action_keywords_are_whole_tokens():
    action = load_action(
        "degree 2\n"
        "# prefixes of the keywords are generator names\n"
        "\n"
        "degreeA: 1 0\n"
        "basepointer: 1 0  # not a basepoint line\n")
    assert action.degree == 2
    assert action.basepoint == 0
    assert action.generators == ("degreeA", "basepointer")
    assert action.perms == {"degreeA": (1, 0), "basepointer": (1, 0)}


def test_action_keyword_needs_its_integer():
    with pytest.raises(FormatError):
        load_action("degree 2\nbasepoint\na: 1 0\n")


def test_loaders_share_the_tokenizer():
    aut = load_automaton(
        "# adding machine\nstates: a id\n\nalphabet: 0 1  # binary\nsink: id\n"
        "transition: a 0 id 1\ntransition: a 1 a 0\n"
        "transition: id 0 id 0\ntransition: id 1 id 1\n")
    assert aut.states == ("a", "id")
    graph = load_graph("# path\n\nvertices: 1 2 3 # all\ne1 1 2\n  \ne2 2 3 # last\n")
    assert [e.name for e in graph.edges] == ["e1", "e2"]
    assert load_assignment("\n# tree arcs\n0 a a  # keep\n\n") == {(0, "a"): "a"}


def test_assignment_arc_appears_once():
    # a repeated arc would silently replace the earlier output
    with pytest.raises(FormatError, match=r"^line 2: duplicate arc \(0, 'a'\)$"):
        load_assignment("0 a id\n0 a b\n")
    with pytest.raises(FormatError, match=r"^line 4: duplicate arc \(1, 'b'\)$"):
        load_assignment("# arcs\n1 b a\n0 b b\n1 b a  # same output again\n")
    assert load_assignment("0 a id\n0 b b\n1 a b\n") == {
        (0, "a"): "id", (0, "b"): "b", (1, "a"): "b"}


@pytest.mark.parametrize("text", [
    "degree 2\nbasepoint 1\ndegree 3 7\nbasepoint 0\na: 1 2 0\n",
    "degree 3\ndegree 3\na: 1 2 0\n",
    "degree 3\nbasepoint 1\nbasepoint 0\na: 1 2 0\n",
], ids=["degree-twice-with-extra-token", "degree-twice", "basepoint-twice"])
def test_action_header_lines_appear_once(text):
    with pytest.raises(FormatError, match="duplicate"):
        load_action(text)


@pytest.mark.parametrize("text", [
    "degree 3 7\na: 1 2 0\n",
    "degree 3\nbasepoint 1 2\na: 1 2 0\n",
], ids=["degree", "basepoint"])
def test_action_header_lines_take_exactly_one_integer(text):
    with pytest.raises(FormatError, match="takes one integer"):
        load_action(text)


def test_action_header_lines_in_any_order():
    action = load_action("basepoint 2  # first\ndegree 3\na: 1 2 0\n")
    assert (action.degree, action.basepoint) == (3, 2)
