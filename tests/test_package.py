"""The package API and which modules each CLI request loads."""

import copy
import importlib
import json
import os
import pickle
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


def _loaded(code, *argv, flags=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


def test_layer_attribute_imports_the_layer():
    # a fresh interpreter: the attribute, not an earlier import, loads the module
    assert _loaded(
        "import json, sys, quadmdt\n"
        "before = 'quadmdt.mdt' in sys.modules\n"
        "print(json.dumps([before, quadmdt.mdt is sys.modules['quadmdt.mdt']]))"
    ) == [False, True]


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
print(json.dumps([code, sorted(sys.modules)]))
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


CASE_IDS = [argv[0] + "-count" * ("--count" in argv) for argv, _ in CASES]


@pytest.mark.parametrize("argv, modules", CASES, ids=CASE_IDS)
def test_cli_loads_only_the_layers_its_command_uses(argv, modules):
    code, loaded = _loaded(RUN_CLI, *argv)
    assert code == 0
    assert {m for m in loaded if m.startswith("quadmdt.")} == modules


@pytest.mark.parametrize(
    "argv",
    [
        ["mdt-solve", '{"dim": 6, "r": 2,'],
        ["check", '{"dim": 6, "r": 2,', PARTITION_22],
        ["diagram", '{"r": 2, "pattern": [0, 2]'],
    ],
    ids=["mdt-solve", "check", "diagram"],
)
def test_cli_malformed_profile_loads_no_mdt(argv):
    # mdt is imported only once the profile JSON parses: a malformed request
    # exits 2 without compiling it
    code, loaded = _loaded(RUN_CLI, *argv)
    assert code == 2
    assert "quadmdt.mdt" not in loaded


@pytest.mark.parametrize("argv", [argv for argv, _ in CASES], ids=CASE_IDS)
def test_cli_loads_no_dataclasses_or_inspect(argv):
    # -S: no site hook imports any of them first; dataclasses, which loads
    # inspect, cost each request about 15 ms, and typing about 3 ms
    code, loaded = _loaded(RUN_CLI, *argv, flags=("-S",))
    assert code == 0
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)


def _records():
    from quadmdt.chow import Cycle, h, l
    from quadmdt.corr import Correspondence
    from quadmdt.mdt import (
        Rule, RuleSet, ShellDiagram, ShellPattern, Violation, mdt_height_one,
    )
    from quadmdt.profile import (
        ExcellentPair, QuadricProfile, alternating_2adic, pfister_neighbour_invariants,
    )

    p = QuadricProfile(6, 2, 2, (0, 2))
    rp = "QuadricProfile(dim=6, r=2, s=2, pattern=(0, 2))"
    lo0, lo1 = "LambdaSymbol(kind='lo', index=0)", "LambdaSymbol(kind='lo', index=1)"
    up3, up4 = "LambdaSymbol(kind='up', index=3)", "LambdaSymbol(kind='up', index=4)"
    h0, l0 = "FactorSymbol(kind='h', index=0)", "FactorSymbol(kind='l', index=0)"
    cycle = Cycle.of_basis((p, p), (h(0), l(0)))
    rc = "Cycle(context=(%s, %s), support=frozenset({(%s, %s)}))" % (rp, rp, h0, l0)
    # (record, its repr, the plain tuple of its fields)
    return [
        (p, rp, (6, 2, 2, (0, 2))),
        (alternating_2adic(6), "AlternatingExpansion(value=6, n=(3, 1), m=(2, 1), j=2, "
         "j_prime=2)", (6, (3, 1), (2, 1), 2, 2)),
        (ExcellentPair(0, 3, 1), "ExcellentPair(a=0, b=3, k=1)", (0, 3, 1)),
        (pfister_neighbour_invariants(6, 2), "PfisterNeighbourInvariants(n=2, m=2, "
         "complementary_dim=2, close_neighbour=True)", (2, 2, 2, True)),
        (Rule("R-X", "proven", "summary", len, "block"), "Rule(id='R-X', provenance="
         "'proven', summary='summary', check=<built-in function len>, scope='block')",
         ("R-X", "proven", "summary", len, "block")),
        (mdt_height_one(p), "MdtPartition(blocks=((%s, %s), (%s, %s)), r=2, d_x=4)"
         % (lo0, up3, lo1, up4), (mdt_height_one(p).blocks, 2, 4)),
        (RuleSet(frozenset({"R-DUAL"})), "RuleSet(enabled=frozenset({'R-DUAL'}), "
         "assumed=frozenset())", (frozenset({"R-DUAL"}), frozenset())),
        (Violation("R-PARITY", "odd"), "Violation(rule='R-PARITY', witness='odd')",
         ("R-PARITY", "odd")),
        (ShellPattern(4, (0, 2, 4)), "ShellPattern(r=4, pattern=(0, 2, 4))", (4, (0, 2, 4))),
        (ShellDiagram(4, (0, 2, 4)), "ShellDiagram(r=4, pattern=(0, 2, 4))", (4, (0, 2, 4))),
        (cycle, rc, (cycle.context, cycle.support)),
        (Correspondence(cycle, 1), "Correspondence(cycle=%s, split=1)" % rc, (cycle, 1)),
    ]


def test_records_behave_as_frozen_values():
    records = _records()
    assert len({type(record) for record, _, _ in records}) == 12
    for record, text, fields in records:
        assert repr(record) == text
        assert record != fields and fields != record
        for rebuilt in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert rebuilt == record and rebuilt is not record
            assert hash(rebuilt) == hash(record) == hash(record)
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        # the constructor takes the fields by position or by name
        cls, names = type(record), type(record).__slots__
        named = dict(zip(names, fields))
        assert cls(**named) == cls(*fields) == record
        bad = [(fields + (None,), {}), (fields, {"extra": None}), (fields[:1], named)]
        if cls.__name__ != "RuleSet":  # whose fields have defaults
            bad.append((fields[:-1], {}))
        # a plain record's error, from the base constructor, names its fields
        message = None if "__init__" in vars(cls) else ", ".join(names)
        for args, kwargs in bad:  # extra, unknown, doubled, missing
            with pytest.raises(TypeError, match=message):
                cls(*args, **kwargs)
    # only the records that validate their fields write their own constructor
    own = {type(record).__name__ for record, _, _ in records if "__init__" in vars(type(record))}
    assert own == {
        "QuadricProfile", "MdtPartition", "RuleSet", "ShellPattern", "ShellDiagram", "Cycle",
        "Correspondence",
    }
    # equality stays within one class, even over equal fields
    shell_pattern, shell_diagram = records[8][0], records[9][0]
    assert shell_pattern != shell_diagram


def test_profile_memo_is_not_a_field():
    # a profile keeps the tables derived from it in its private memo: filling
    # the memo changes nothing that equality, hash, repr or the answers see,
    # and a pickled or copied profile starts with an empty one
    from quadmdt import chow, corr, mdt
    from quadmdt.profile import QuadricProfile

    used, unused = QuadricProfile(10, 3, 4, (0, 1, 3)), QuadricProfile(10, 3, 4, (0, 1, 3))
    listed = mdt.enumerate_mdt(used)
    full = chow.Cycle.of_basis((used, used), *chow.basis_tuples((used, used)))
    chow.mul(full, full)
    chow.steenrod(1, full)
    corr.compose(corr.diagonal_class(used), corr.Correspondence(full, 1))
    # mul, steenrod and compose read their laws in closed form and keep nothing
    assert {key[0].__name__ for key in used._memo} == {"_compile", "_state_graph"}
    assert unused._memo == {}
    assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
    for rebuilt in (pickle.loads(pickle.dumps(used)), copy.copy(used)):
        assert rebuilt == used and rebuilt is not used and rebuilt._memo == {}
    for name in ("dim", "r", "s", "pattern", "_memo"):
        with pytest.raises(AttributeError):
            setattr(used, name, None)
        with pytest.raises(AttributeError):
            delattr(used, name)
    wide = mdt.RuleSet.proven().enable("R-EXC", "R-VPN", "R-VISHIK")
    parts = listed + (mdt.MdtPartition.of(used, [[x] for x in mdt.lambda_set(used)]),)
    for rules in (mdt.RuleSet.proven(), wide):
        assert mdt._compile(used) is mdt._compile(used)
        assert mdt._state_graph(used, rules) is mdt._state_graph(used, rules)
        # an equal profile built apart compiles its own form, to the same reports
        assert mdt._compile(unused) is not mdt._compile(used)
        assert mdt._state_graph(unused, rules) is not mdt._state_graph(used, rules)
        assert [mdt.check_partition(unused, part, rules) for part in parts] == [
            mdt.check_partition(used, part, rules) for part in parts
        ]
    # on a fresh profile, mul over X and X^2, steenrod and compose leave the
    # memo empty
    alone = QuadricProfile(10, 3, 4, (0, 1, 3))
    single = chow.Cycle.of_basis((alone,), *chow.basis_tuples((alone,)))
    pair = chow.Cycle.of_basis((alone, alone), *chow.basis_tuples((alone, alone)))
    assert chow.mul(single, single) and chow.mul(pair, pair) and chow.steenrod(1, pair)
    assert corr.compose(corr.diagonal_class(alone), corr.Correspondence(pair, 1))
    assert alone._memo == {}


def _int_parameters() -> set:
    """(entry, name) for every parameter annotated int of an exported
    function, or of the __init__, __new__ or a public method of an exported
    class; an entry is the function's name, or Class.method."""
    import inspect

    found = set()
    for names in quadmdt._EXPORTS.values():
        for name in names:
            obj = getattr(quadmdt, name)
            if inspect.isclass(obj):
                calls = [
                    ("%s.%s" % (name, attr), value) for attr, value in vars(obj).items()
                    if attr in ("__init__", "__new__") or not attr.startswith("_")
                ]
            else:
                calls = [(name, obj)]
            for entry, call in calls:
                call = getattr(call, "__func__", call)  # a staticmethod's or classmethod's
                if inspect.isfunction(call):
                    for param in inspect.signature(call).parameters.values():
                        if param.annotation in (int, "int"):
                            found.add((entry, param.name))
    return found


def _int_parameter_calls() -> dict:
    """(entry, name) -> a call passing its argument to that parameter, with
    valid other arguments."""
    from quadmdt.chow import Cycle, FactorSymbol, h, steenrod
    from quadmdt.corr import (
        Correspondence, derivative, diagonal_class, reduce_f, reduce_g, reduction_correspondence,
    )
    from quadmdt.mdt import (
        LambdaSymbol, MdtPartition, ShellDiagram, ShellPattern, enumerate_mdt, lo,
        mdt_height_one, mdt_isotropic_lift, mdt_strongly_excellent,
    )
    from quadmdt.profile import (
        QuadricProfile, alternating_2adic, i1_admissible_set, i1_max_by_theorem, mk_profile,
        pattern_enumerate, pfister_neighbour_invariants, strongly_excellent_profile,
    )

    profile, tower = QuadricProfile(6, 2, 2, (0, 2)), QuadricProfile(8, 3, 2, (0, 1, 2, 3))
    cycle, inner = Cycle.of_basis((tower,), (h(1),)), mdt_height_one(profile)
    diagonal = diagonal_class(profile)
    return {
        ("FactorSymbol.__new__", "index"): lambda x: FactorSymbol("h", x),
        ("steenrod", "j"): lambda x: steenrod(x, cycle),
        ("Correspondence.__init__", "split"): lambda x: Correspondence(cycle, x),
        ("derivative", "k1"): lambda x: derivative(x, 0, diagonal),
        ("derivative", "k2"): lambda x: derivative(0, x, diagonal),
        ("reduce_f", "t"): lambda x: reduce_f(tower, x, cycle),
        ("reduce_g", "t"): lambda x: reduce_g(tower, x, cycle),
        ("reduction_correspondence", "t"): lambda x: reduction_correspondence(tower, x),
        ("LambdaSymbol.__new__", "index"): lambda x: LambdaSymbol("lo", x),
        ("LambdaSymbol.shift", "j"): lambda x: lo(0).shift(x),
        ("MdtPartition.__init__", "r"): lambda x: MdtPartition(inner.blocks, x, 4),
        ("MdtPartition.__init__", "d_x"): lambda x: MdtPartition(inner.blocks, 2, x),
        ("ShellPattern.__init__", "r"): lambda x: ShellPattern(x, (0, 1)),
        ("ShellDiagram.__init__", "r"): lambda x: ShellDiagram(x, (0, 1)),
        ("enumerate_mdt", "max_r"): lambda x: enumerate_mdt(profile, None, x),
        ("mdt_isotropic_lift", "w"): lambda x: mdt_isotropic_lift(x, inner, profile),
        ("mdt_strongly_excellent", "s"): lambda x: mdt_strongly_excellent((3,), x),
        ("QuadricProfile.__init__", "dim"): lambda x: QuadricProfile(x, 2, 2, (0, 2)),
        ("QuadricProfile.__init__", "r"): lambda x: QuadricProfile(6, x, 2, (0, 2)),
        ("QuadricProfile.__init__", "s"): lambda x: QuadricProfile(6, 2, x, (0, 2)),
        ("QuadricProfile.kernel", "t"): lambda x: tower.kernel(x),
        ("QuadricProfile.shell_of", "i"): lambda x: tower.shell_of(x),
        ("alternating_2adic", "value"): lambda x: alternating_2adic(x),
        ("i1_admissible_set", "r"): lambda x: i1_admissible_set(x, 0),
        ("i1_admissible_set", "s"): lambda x: i1_admissible_set(4, x),
        ("i1_max_by_theorem", "dim"): lambda x: i1_max_by_theorem(x),
        ("mk_profile", "dim"): lambda x: mk_profile(x, 2, 2, [0, 2]),
        ("mk_profile", "r"): lambda x: mk_profile(6, x, 2, [0, 2]),
        ("mk_profile", "s"): lambda x: mk_profile(6, 2, x, [0, 2]),
        ("pattern_enumerate", "r"): lambda x: pattern_enumerate(x, 0),
        ("pattern_enumerate", "s"): lambda x: pattern_enumerate(4, x),
        ("pfister_neighbour_invariants", "dim"): lambda x: pfister_neighbour_invariants(x, 0),
        ("pfister_neighbour_invariants", "s"): lambda x: pfister_neighbour_invariants(8, x),
        ("strongly_excellent_profile", "s"): lambda x: strongly_excellent_profile((3,), x),
    }


# the s of a strongly excellent form is documented to raise ConstraintViolated
CONSTRAINED = {("strongly_excellent_profile", "s"), ("mdt_strongly_excellent", "s")}


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_every_exported_int_parameter_rejects_non_ints(bad):
    # every parameter annotated int of the public names refuses a float, a
    # bool and a string by name, rather than reading 1.0 or True as 1 or
    # failing bare inside a comparison; an exact int passes its check
    from quadmdt.errors import ConstraintViolated, QuadmdtError

    calls = _int_parameter_calls()
    assert calls.keys() == _int_parameters()
    for (entry, name), call in calls.items():
        if (entry, name) in CONSTRAINED:
            with pytest.raises(ConstraintViolated, match="must be ints"):
                call(bad)
        else:
            with pytest.raises(TypeError) as exc:
                call(bad)
            assert str(exc.value) == "%s must be an int, not %s" % (name, type(bad).__name__), entry
        try:
            call(1)
        except (QuadmdtError, ValueError):  # 1 may lie outside the parameter's range
            pass
