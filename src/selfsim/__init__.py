"""Automaton groups and semigroups generated by Mealy transducers.

Each public name is loaded from its submodule on first use (PEP 562), so
``import selfsim`` imports no engine module; ``selfsim.<submodule>`` and
``from selfsim import *`` work as if every submodule were imported.
"""

__version__ = "0.1.0"

from .errors import SelfSimError

_EXPORTS = {
    "mealy": """MealyAutomaton bisimulation_classes bisimulation_quotient disjoint_union dual
        dump_automaton enriched_dual inverse inverse_symbol is_bounded is_invertible
        is_reduced load_automaton make_automaton power symbol_str to_dot""",
    "graphgroup": """OrientedGraph build_graph_automaton builtin builtin_automaton dump_graph
        is_tree line_graph_complement load_graph""",
    "action": """DualPath GroupWord SelfSimilarRep apply_word commutator dual_path erase_id
        find_noose format_word level1_permutation loops_at parse_word reduce_word
        restrict_word stabilizes_level transposition_word wreath""",
    "wordproblem": """Nucleus WpVerdict check_reducible dichotomy elements_equal
        embed_in_product exponent_sums fragile_index fragile_member is_identity
        is_identity_in_Gk nucleus restriction_closure shortest_representative
        sym_quotient_order virtual_endo wp_fragile""",
    "tracemonoid": """TracePresentation TraceWord check_acyclic_no_positive_identity
        check_cycle_torsion equivalent normal_form presentation_from_tree projections_equal
        rewrite_step semigroup_eq_via_action trace_word""",
    "schreier": """FiniteAction SchreierGraph build_reducible_automaton
        decorated_schreier_graph dump_action load_action schreier_graph spanning_tree
        verify_loop_shortening""",
}
_SUBMODULES = ("action", "errors", "graphgroup", "limits", "mealy", "schreier",
               "tracemonoid", "wordproblem")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["SelfSimError", *_HOME, *_SUBMODULES]


def __getattr__(name):
    """Import the submodule that defines `name`, and keep the name here."""
    if name in _HOME or name in _SUBMODULES:
        from importlib import import_module
        module = import_module("." + _HOME.get(name, name), __name__)
        value = module if name in _SUBMODULES else getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
