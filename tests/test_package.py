"""The package namespace: every public name, loaded from its submodule on first use.

The import-footprint checks run in fresh interpreters (``-S``, so no site
hook imports anything), because the test process has loaded every module.
Every public function with a cap or a depth refuses one that is not an int.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import selfsim

SRC = pathlib.Path(__file__).parents[1] / "src"

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "errors": ["SelfSimError"],
    "mealy": ["MealyAutomaton", "bisimulation_classes", "bisimulation_quotient",
              "disjoint_union", "dual", "dump_automaton", "enriched_dual", "inverse",
              "inverse_symbol", "is_bounded", "is_invertible", "is_reduced", "load_automaton",
              "make_automaton", "power", "symbol_str", "to_dot"],
    "graphgroup": ["OrientedGraph", "build_graph_automaton", "builtin", "builtin_automaton",
                   "dump_graph", "is_tree", "line_graph_complement", "load_graph"],
    "action": ["DualPath", "GroupWord", "SelfSimilarRep", "apply_word", "commutator",
               "dual_path", "erase_id", "find_noose", "format_word", "level1_permutation",
               "loops_at", "parse_word", "reduce_word", "restrict_word", "stabilizes_level",
               "transposition_word", "wreath"],
    "wordproblem": ["Nucleus", "WpVerdict", "check_reducible", "dichotomy", "elements_equal",
                    "embed_in_product", "exponent_sums", "fragile_index", "fragile_member",
                    "is_identity", "is_identity_in_Gk", "nucleus", "restriction_closure",
                    "shortest_representative", "sym_quotient_order", "virtual_endo",
                    "wp_fragile"],
    "tracemonoid": ["TracePresentation", "TraceWord", "check_acyclic_no_positive_identity",
                    "check_cycle_torsion", "equivalent", "normal_form",
                    "presentation_from_tree", "projections_equal", "rewrite_step",
                    "semigroup_eq_via_action", "trace_word"],
    "schreier": ["FiniteAction", "SchreierGraph", "build_reducible_automaton",
                 "decorated_schreier_graph", "dump_action", "load_action", "schreier_graph",
                 "spanning_tree", "verify_loop_shortening"],
}
SUBMODULES = ["action", "errors", "graphgroup", "limits", "mealy", "schreier", "tracemonoid",
              "wordproblem"]


def fresh(code):
    """Stdout of `code` run in a new interpreter that has the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_public_names_are_the_submodule_objects():
    assert sum(len(names) for names in PUBLIC.values()) == 80
    for module, names in PUBLIC.items():
        home = importlib.import_module("selfsim." + module)
        for name in names:
            assert getattr(selfsim, name) is getattr(home, name), name


def test_star_import_binds_every_public_name_and_submodule():
    namespace = {}
    exec("from selfsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(
        [name for names in PUBLIC.values() for name in names] + SUBMODULES)
    assert all(namespace[name] is getattr(selfsim, name) for name in namespace)
    assert set(dir(selfsim)) >= set(namespace)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(selfsim, "no_such_name")


def test_package_import_loads_no_engine_module():
    loaded = fresh("import sys, selfsim; "
                   "print(' '.join(m for m in sys.modules if m.startswith('selfsim.')))")
    assert loaded.split() == ["selfsim.errors"]


def test_submodules_resolve_after_a_bare_import():
    # tests patch selfsim.action.MEMO_LIMIT and selfsim.wordproblem.MEMO_LIMIT
    out = fresh("import sys, selfsim; "
                "print(selfsim.action is sys.modules['selfsim.action'], "
                "selfsim.wordproblem.MEMO_LIMIT == selfsim.limits.MEMO_LIMIT, "
                "selfsim.nucleus is sys.modules['selfsim.wordproblem'].nucleus)")
    assert out.split() == ["True", "True", "True"]


def unused_imports(source):
    """Names a module imports but never reads, by walking its syntax tree."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used():
    # the package imports SelfSimError only to re-export it
    assert unused_imports("from .errors import A, B\nimport os.path\nB\n") == {"A", "os"}
    for path in sorted((SRC / "selfsim").glob("*.py")):
        exempt = {"SelfSimError"} if path.name == "__init__.py" else set()
        assert unused_imports(path.read_text()) - exempt == set(), path.name


# valid arguments of every public entry point that takes a cap or a depth; each
# such parameter in turn gets a value that is not an int, and each cap one below 1
CAPPED = {
    "stabilizes_level": ("star3", {"w": "a", "k": 2}),
    "check_reducible": ("star3", {"max_len": 2, "max_depth": 8}),
    "embed_in_product": ("star3", {"w": "a a^-1", "k": 1}),
    "fragile_index": ("star3", {"w": "a", "kmax": 3}),
    "fragile_member": ("star3", {"w": "a", "k": 2}),
    "is_identity_in_Gk": ("star3", {"w": "a", "k": 2}),
    "nucleus": ("star3", {}),
    "shortest_representative": ("star3", {"w": "a b", "max_len": 3}),
    "sym_quotient_order": ("star3", {}),
    "wp_fragile": ("star3", {"w": "a", "kmax": 3}),
    "check_acyclic_no_positive_identity": ("triangle_acyclic", {"max_len": 2}),
    "verify_loop_shortening": ("star3", {"max_len": 3}),
}


def cap_parameters(fn):
    return [name for name in inspect.signature(fn).parameters
            if name == "cap" or name.endswith("_cap") or name == "max_depth"]


def test_every_cap_and_depth_must_be_an_int():
    # a new entry point with a cap has to join CAPPED on purpose; the public
    # classes take no cap, and some have no signature to read
    functions = [name for name in selfsim.__all__ if inspect.isfunction(getattr(selfsim, name))]
    capped = {name for name in functions if cap_parameters(getattr(selfsim, name))}
    assert capped == set(CAPPED)
    for name, (machine, args) in CAPPED.items():
        fn = getattr(selfsim, name)
        fn(selfsim.builtin_automaton(machine), **args)
        for param in cap_parameters(fn):
            bad_values = [(bad, "must be an integer, got ") for bad in (2.0, "8", True)]
            if param != "max_depth":     # a negative chain depth means "walk no chain"
                bad_values += [(0, "must be >= 1"), (-5, "must be >= 1")]
            for bad, message in bad_values:
                aut = selfsim.builtin_automaton(machine)
                with pytest.raises(selfsim.SelfSimError, match=message):
                    fn(aut, **dict(args, **{param: bad}))
                assert aut._cache == {}, (name, param, bad)
