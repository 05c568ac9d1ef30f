import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from selfsim.cli import _SOURCE_HELP, COMMANDS, main

SRC = pathlib.Path(__file__).parents[1] / "src"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def get(output, key):
    values = [line.partition(": ")[2] for line in output.splitlines()
              if line.startswith(key + ":")]
    return values[0] if len(values) == 1 else values


def test_wp_commutator():
    code, out = run_cli("wp", "--builtin", "star3", "-w", "a b a^-1 b^-1")
    assert code == 0
    assert get(out, "decision") == "NonIdentity"
    assert get(out, "witness") == "0"


def test_wp_empty_word_identity():
    code, out = run_cli("wp", "--builtin", "star3", "-w", "")
    assert code == 0
    assert get(out, "decision") == "Identity"


def test_wp_fragile_method():
    code, out = run_cli("wp", "--builtin", "fig5_tree", "-w", "e2 e4 e2^-1 e4^-1",
                        "--method", "fragile", "--kmax", "4")
    assert code == 0
    assert get(out, "decision") == "Identity"
    assert get(out, "fragile-index") == "1"


def test_trace_eq_commuting_pair():
    code, out = run_cli("trace-eq", "--builtin", "fig5_tree", "-u", "e2 e4", "-v", "e4 e2")
    assert code == 0
    assert get(out, "equal") == "true"


def test_trace_eq_oracles_agree():
    for oracle in ("action", "projection"):
        code, out = run_cli("trace-eq", "--builtin", "star3",
                            "-u", "a b", "-v", "b a", "--oracle", oracle)
        assert code == 0
        assert get(out, "equal") == "false"


def test_trace_nf():
    code, out = run_cli("trace-nf", "--builtin", "fig5_tree", "-u", "e4 id e2")
    assert code == 0
    assert get(out, "normal-form") == "e2 e4"


def test_dual_path_report():
    code, out = run_cli("dual-path", "--builtin", "fig5_tree", "-x", "1",
                        "-u", "e2 e1 e1 e4")
    assert code == 0
    assert get(out, "p") == "1 2 1 5"


def test_reports_are_reproducible():
    args = ("wp", "--builtin", "star3", "-w", "a b a^-1 b^-1")
    assert run_cli(*args) == run_cli(*args)


def test_unknown_builtin_is_domain_error():
    code, out = run_cli("wp", "--builtin", "nope", "-w", "a")
    assert code == 1
    assert get(out, "error") == "UnknownFixture"
    assert get(out, "status") == "error"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["wp", "--builtin", "star3"])      # missing -w
    assert err.value.code == 2


def test_export_dot_is_raw():
    code, out = run_cli("export-dot", "--builtin", "adding_machine")
    assert code == 0
    assert out.startswith("digraph mealy {")
    assert '"e" -> "e" [label="0|1"];' in out


def test_dual_emits_automaton_section():
    code, out = run_cli("dual", "--builtin", "star3")
    assert code == 0
    assert "transition: 0 a 1 a" in out


def test_enriched_dual_counts():
    code, out = run_cli("enriched-dual", "--builtin", "star3")
    assert code == 0
    assert get(out, "states") == "4"
    assert get(out, "letters") == "8"


def test_power_subcommand():
    code, out = run_cli("power", "--builtin", "adding_machine", "-n", "2")
    assert code == 0
    assert get(out, "states") == "4"


def test_structured_format_round_trips():
    code, out = run_cli("--format", "structured", "wp", "--builtin", "star3", "-w", "a")
    assert code == 0
    data = json.loads(out)
    pairs = dict()
    for key, value in data["report"]:
        pairs.setdefault(key, value)
    assert pairs["decision"] == "NonIdentity"
    assert pairs["status"] == "ok"


def test_nucleus_subcommand():
    code, out = run_cli("nucleus", "--builtin", "adding_machine")
    assert code == 0
    assert get(out, "size") == "3"
    assert get(out, "element") == ["1", "e", "e^-1"]


def test_exponent_sums_subcommand():
    code, out = run_cli("exponent-sums", "--builtin", "star3", "-w", "a a b^-1")
    assert code == 0
    assert get(out, "sums") == "a=2 b=-1 c=0"


def test_check_reducible_subcommand():
    code, out = run_cli("check-reducible", "--builtin", "non_reducible_demo",
                        "--max-len", "2", "--max-depth", "4")
    assert code == 0
    assert get(out, "result") == "Counterexample"
    assert get(out, "counterexample-word") == "s"
    assert get(out, "counterexample-letter") == "2"


def test_sym_quotient_subcommand():
    code, out = run_cli("sym-quotient", "--builtin", "star3")
    assert code == 0
    assert get(out, "order") == "24"


def test_embed_and_gk(tmp_path):
    code, out = run_cli("embed", "--builtin", "adding_machine", "-w", "e e", "-k", "1")
    assert code == 0
    assert get(out, "component 0") == "e"
    assert get(out, "component 1") == "e"
    assert get(out, "all-trivial") == "false"
    code, out = run_cli("gk-identity", "--builtin", "fig5_tree",
                        "-w", "e2 e4 e2^-1 e4^-1", "-k", "1")
    assert code == 0
    assert get(out, "identity-in-Gk") == "true"


def test_fragile_subcommand():
    code, out = run_cli("fragile", "--builtin", "star3", "-w", "a", "-k", "2")
    assert code == 0
    assert get(out, "member") == "false"


def test_cycle_torsion_subcommand():
    code, out = run_cli("cycle-torsion", "--builtin", "triangle_cyclic",
                        "-w", "a1 a2 a3", "-k", "3")
    assert code == 0
    assert get(out, "torsion-identity") == "true"


def test_check_acyclic_subcommand():
    code, out = run_cli("check-acyclic", "--builtin", "triangle_acyclic", "--max-len", "4")
    assert code == 0
    assert get(out, "result") == "Pass"


def test_dichotomy_subcommand(tmp_path):
    path = tmp_path / "tuples.txt"
    path.write_text("a, \nb, \n")
    code, out = run_cli("dichotomy", "--tuples", str(path))
    assert code == 0
    assert get(out, "result") == "FreePair"
    assert get(out, "component-index") == "0"
    assert get(out, "pair-indices") == "0 1"


def test_schreier_pipeline(tmp_path):
    action = tmp_path / "triangle.action"
    action.write_text("degree 3\nbasepoint 0\na: 1 2 0\n")
    code, out = run_cli("schreier-gen", "--action", str(action))
    assert code == 0
    assert get(out, "cosets") == "3"
    assert get(out, "degenerate") == "false"
    assert get(out, "roundtrip-enriched-dual") == "exact"
    assert get(out, "bisimulation-minimal") == "true"
    assert "transition: a 0 a 1" in out
    code, out = run_cli("verify-loops", "--action", str(action), "--max-len", "5")
    assert code == 0
    assert get(out, "result") == "Pass"


def test_graph_file_input(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text("e 0 1\n")
    code, out = run_cli("build-graph-automaton", "--graph", str(path))
    assert code == 0
    assert get(out, "states") == "2"
    assert "input-sha256" in out


def test_automaton_file_input(tmp_path):
    from selfsim import builtin_automaton, dump_automaton
    path = tmp_path / "star.aut"
    path.write_text(dump_automaton(builtin_automaton("star3")))
    code, out = run_cli("wp", "--automaton", str(path), "-w", "a")
    assert code == 0
    assert get(out, "decision") == "NonIdentity"


def test_out_file_written(tmp_path):
    target = tmp_path / "dual.aut"
    code, out = run_cli("dual", "--builtin", "adding_machine", "--out", str(target))
    assert code == 0
    assert target.exists()
    from selfsim import dual, builtin_automaton, load_automaton
    assert load_automaton(target.read_text()) == dual(builtin_automaton("adding_machine"))


def test_caps_env_raises_level_cap(monkeypatch):
    monkeypatch.setenv("SELFSIM_CAPS", "10")
    code, out = run_cli("fragile", "--builtin", "star3", "-w", "a", "-k", "3")
    assert code == 1
    assert get(out, "error") == "LevelTooLarge"
    monkeypatch.setenv("SELFSIM_CAPS", "level=1000000")
    code, out = run_cli("fragile", "--builtin", "star3", "-w", "a", "-k", "3")
    assert code == 0


def loaded_after(code, modules):
    """Which of `modules` a new interpreter has loaded after running `code`."""
    probe = "%s; import sys; print(' '.join(m for m in %r if m in sys.modules), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", probe % (code, modules)],
                            capture_output=True, text=True, env=env, check=True)
    return result.stderr.split()


def test_cli_import_loads_no_json_or_hashlib():
    assert loaded_after("import selfsim.cli", ("json", "hashlib")) == []


ENGINE = ("selfsim.wordproblem", "selfsim.tracemonoid", "selfsim.schreier")


def test_cli_import_loads_no_engine_module():
    assert loaded_after("import selfsim.cli", ENGINE) == []


def test_cli_call_loads_only_the_modules_it_uses():
    call = "import selfsim.cli; selfsim.cli.main(['nucleus', '--builtin', 'basilica'])"
    assert loaded_after(call, ENGINE) == ["selfsim.wordproblem"]


def test_jobs_flag_does_not_change_output():
    base = run_cli("check-reducible", "--builtin", "star3",
                   "--max-len", "3", "--max-depth", "6")
    jobs = run_cli("--jobs", "4", "check-reducible", "--builtin", "star3",
                   "--max-len", "3", "--max-depth", "6")
    assert base == jobs


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "selfsim.cli", "wp", "--builtin", "star3", "-w", "a"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "decision: NonIdentity" in result.stdout


def test_readme_lists_the_subcommand_table():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Subcommands:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == [entry[0] for entry in COMMANDS]


# -- help and usage bytes -----------------------------------------------------

def _reference_parser():
    """The eager parser: every subcommand parser and argument built up front.

    Built from the same COMMANDS table, so the CLI's help and usage bytes are
    compared with this on whatever argparse runs the tests.
    """
    import argparse
    top = argparse.ArgumentParser(
        prog="selfsim",
        description="automaton groups and semigroups: exact decisions and constructions")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    top.add_argument("--timing", action="store_true",
                     help="append elapsed milliseconds (breaks reproducibility)")
    top.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; sweeps run sequentially")
    top.set_defaults(**dict.fromkeys(_SOURCE_HELP))
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, sources, arguments, handler in COMMANDS:
        p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
        for source in sources:
            p.add_argument("--" + source, help=_SOURCE_HELP[source])
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return top


PARSER_CASES = (
    [["--help"], ["-h"]]
    + [[row[0], "--help"] for row in COMMANDS]
    + [[], ["bogus"], ["nuc"], ["--format", "bogus", "nucleus"], ["--jobs", "x", "wp"],
       ["wp", "--builtin", "star3"], ["wp"], ["wp", "-w", "a", "--method", "bogus"],
       ["power", "--builtin", "star3", "-n", "x"], ["nucleus", "--size-cap", "0"],
       ["nucleus", "--builtin", "basilica", "--bogus"], ["--bogus", "wp"],
       ["--help", "wp"], ["wp", "--help", "nucleus"], ["dichotomy"]])


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(a) or "-" for a in PARSER_CASES])
def test_help_and_usage_match_the_eager_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            _reference_parser().parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    result = subprocess.run([sys.executable, "-m", "selfsim.cli"] + argv,
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (
        stop.value.code, out.getvalue(), err.getvalue())
