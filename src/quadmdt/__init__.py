"""Mod-2 cycle calculus and MDT partition engine for quadrics in characteristic 2.

Every public name lives in one layer module, listed in _EXPORTS.  The
package resolves a name from its home module on first access (PEP 562), so
``import quadmdt`` loads no layer and a caller pays only for the layers it
uses.  Resolved names are not stored here: a module attribute swapped after
the first lookup (a tracing wrapper, say) is what the next lookup returns.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chow": (
        "Cycle", "FactorSymbol", "cycle_from_text", "cycle_to_text", "degree",
        "external_product", "mul", "mul_factor", "steenrod",
    ),
    "corr": (
        "Correspondence", "cap", "compose", "contains", "derivative",
        "diagonal_class", "diagonal_mult", "essential", "reduce_f", "reduce_g",
        "reduction_correspondence", "transpose",
    ),
    "errors": ("QuadmdtError",),
    "mdt": (
        "RULES", "LambdaSymbol", "MdtPartition", "Rule", "RuleSet",
        "ShellDiagram", "ShellPattern", "Violation", "alpha_cycle",
        "check_partition", "enumerate_mdt", "forced_connections", "lambda_set",
        "mdt_height_one", "mdt_isotropic_lift", "mdt_pfister_neighbour",
        "mdt_strongly_excellent", "render_ascii", "render_svg", "shell_diagram",
    ),
    "profile": (
        "AlternatingExpansion", "ExcellentPair", "QuadricProfile",
        "alternating_2adic", "excellent_pairs", "i1_admissible_set",
        "i1_max_by_theorem", "izhboldin_dim", "mk_profile", "pattern_enumerate",
        "pfister_neighbour_invariants", "strongly_excellent_profile",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
