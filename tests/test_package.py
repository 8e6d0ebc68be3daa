"""The package API and which modules each CLI request loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import quadmdt

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EXPORTED = [
    "AlternatingExpansion", "Correspondence", "Cycle", "ExcellentPair",
    "FactorSymbol", "LambdaSymbol", "MdtPartition", "QuadmdtError",
    "QuadricProfile", "RULES", "Rule", "RuleSet", "ShellDiagram", "ShellPattern",
    "Violation", "alpha_cycle", "alternating_2adic", "cap", "check_partition",
    "compose", "contains", "cycle_from_text", "cycle_to_text", "degree",
    "derivative", "diagonal_class", "diagonal_mult", "enumerate_mdt", "essential",
    "excellent_pairs", "external_product", "forced_connections",
    "i1_admissible_set", "i1_max_by_theorem", "izhboldin_dim", "lambda_set",
    "mdt_height_one", "mdt_isotropic_lift", "mdt_pfister_neighbour",
    "mdt_strongly_excellent", "mk_profile", "mul", "mul_factor",
    "pattern_enumerate", "pfister_neighbour_invariants", "reduce_f", "reduce_g",
    "reduction_correspondence", "render_ascii", "render_svg", "shell_diagram",
    "steenrod", "strongly_excellent_profile", "transpose",
]

LAYERS = {"quadmdt.chow", "quadmdt.corr", "quadmdt.mdt", "quadmdt.profile"}


def test_all_is_the_pinned_export_list():
    assert quadmdt.__all__ == EXPORTED


def test_every_export_is_its_home_modules_object():
    for home, names in quadmdt._EXPORTS.items():
        module = importlib.import_module("quadmdt." + home)
        for name in names:
            value = getattr(quadmdt, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__
    assert sorted(n for names in quadmdt._EXPORTS.values() for n in names) == EXPORTED


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quadmdt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(quadmdt.__all__)


def test_dir_and_unknown_names():
    listed = dir(quadmdt)
    assert "__all__" in listed
    assert set(quadmdt.__all__) <= set(listed)
    with pytest.raises(AttributeError):
        quadmdt.nope
    assert quadmdt.chow is importlib.import_module("quadmdt.chow")


def _loaded(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


def test_bare_import_loads_no_layer():
    modules = _loaded(
        "import json, sys, quadmdt\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('quadmdt'))))"
    )
    assert not LAYERS & set(modules)


RUN_CLI = """
import contextlib, io, json, sys
from quadmdt import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("quadmdt."))]))
"""

PROFILE_22 = '{"dim": 6, "r": 2, "s": 2, "pattern": [0, 2]}'
PARTITION_22 = json.dumps(
    {"blocks": [[{"kind": "lo", "i": 0}, {"kind": "up", "i": 3}],
                [{"kind": "lo", "i": 1}, {"kind": "up", "i": 4}]]}
)
PROFILE_5 = {"dim": 5, "r": 2, "s": 1, "pattern": [0, 1, 2]}
CORR_5 = json.dumps(
    {"context": [PROFILE_5, PROFILE_5],
     "support": [[{"kind": "H", "i": 0}, {"kind": "L", "i": 1}]], "split": 1}
)

PROFILE_ONLY = {"quadmdt.cli", "quadmdt.errors", "quadmdt.profile"}


CASES = [
    (["pattern-enum", "-r", "3", "-s", "0"], PROFILE_ONLY),
    (["pattern-enum", "-r", "3", "-s", "0", "--count"], PROFILE_ONLY),
    (["i1-bounds", "-r", "4", "-s", "0"], PROFILE_ONLY),
    (["excellent-pairs", PROFILE_22], PROFILE_ONLY),
    (["steenrod", "-j", "1", "h0", "--profile", PROFILE_22], PROFILE_ONLY | {"quadmdt.chow"}),
    (["compose", CORR_5, CORR_5], PROFILE_ONLY | {"quadmdt.chow", "quadmdt.corr"}),
    (["mdt-solve", PROFILE_22], PROFILE_ONLY | {"quadmdt.mdt"}),
    (["check", PROFILE_22, PARTITION_22], PROFILE_ONLY | {"quadmdt.mdt"}),
    (["diagram", PROFILE_22], PROFILE_ONLY | {"quadmdt.mdt"}),
]


@pytest.mark.parametrize(
    "argv, modules", CASES, ids=[argv[0] + "-count" * ("--count" in argv) for argv, _ in CASES]
)
def test_cli_loads_only_the_layers_its_command_uses(argv, modules):
    code, loaded = _loaded(RUN_CLI, *argv)
    assert code == 0
    assert set(loaded) == modules
