"""CLI behaviour: outputs, exit codes, determinism, error objects."""

import json
import time

import pytest

from quadmdt import mdt
from quadmdt.cli import _MAX_PATTERN_LISTING, _MAX_SCAN_R, main
from quadmdt.profile import _count_patterns, i1_admissible_set

PROFILE_22 = '{"dim": 6, "r": 2, "s": 2, "pattern": [0, 2]}'
PROFILE_PFISTER = '{"dim": 8, "r": 4, "s": 0, "pattern": [0, 4]}'
PROFILE_DIM10 = '{"dim": 10, "r": 3, "s": 4, "pattern": [0, 1, 3]}'
# valid, with r = 2^30 far past _MAX_SCAN_R; every a < r is in an excellent pair
PROFILE_2_30 = '{"dim": 2147483648, "r": 1073741824, "s": 0, "pattern": [0, 1073741824]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_enum_default(capsys):
    code, out, _ = run(capsys, "pattern-enum", "-r", "2", "-s", "2")
    assert code == 0
    assert json.loads(out) == [[0, 1, 2], [0, 2]]


def test_pattern_enum_r1(capsys):
    code, out, _ = run(capsys, "pattern-enum", "-r", "1", "-s", "7")
    assert code == 0
    assert json.loads(out) == [[0, 1]]


def test_pattern_enum_rules(capsys):
    code, out, _ = run(
        capsys, "pattern-enum", "-r", "3", "-s", "2", "--rules", "base,singular"
    )
    assert code == 0
    assert json.loads(out) == [[0, 1, 2, 3], [0, 1, 3]]


def test_pattern_enum_rejects_bad_type(capsys):
    code, _, err = run(capsys, "pattern-enum", "-r", "0", "-s", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_pattern_enum_count(capsys):
    code, out, _ = run(capsys, "pattern-enum", "-r", "2", "-s", "2", "--count")
    assert code == 0
    assert out == "2\n"
    code, full, _ = run(capsys, "pattern-enum", "-r", "8", "-s", "3")
    code, out, _ = run(capsys, "pattern-enum", "-r", "8", "-s", "3", "--count")
    assert code == 0
    assert json.loads(out) == len(json.loads(full))


def test_pattern_enum_limit(capsys):
    # exactly at the limit: the listing is the one printed without --limit
    _, full, _ = run(capsys, "pattern-enum", "-r", "2", "-s", "2")
    code, out, _ = run(capsys, "pattern-enum", "-r", "2", "-s", "2", "--limit", "2")
    assert (code, out) == (0, full)
    code, out, err = run(capsys, "pattern-enum", "-r", "2", "-s", "2", "--limit", "1")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"
    # a listing far too large to build ends at the limit instead
    code, out, err = run(capsys, "pattern-enum", "-r", "60", "-s", "0", "--limit", "5")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"
    code, out, err = run(
        capsys, "pattern-enum", "-r", "60", "-s", "0", "--limit", "5", "--count"
    )
    assert (code, out) == (3, "")
    # a type above the bound on r ends at exit 3 as well
    code, out, err = run(capsys, "pattern-enum", "-r", "1200", "-s", "0", "--limit", "1")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"
    code, _, err = run(capsys, "pattern-enum", "-r", "2", "-s", "2", "--limit", "-1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"
    code, out, err = run(
        capsys, "pattern-enum", "-r", "2", "-s", "2", "--limit", "-1", "--count"
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_pattern_enum_bounds_r(capsys):
    # r above the bound ends at once with exit 3, before any step table
    for extra in (["--count"], ["--limit", "1"], []):
        code, out, err = run(capsys, "pattern-enum", "-r", "100000", "-s", "0", *extra)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "BoundExceeded"
    # malformed input is still reported as such
    code, _, err = run(capsys, "pattern-enum", "-r", "100000", "-s", "-1", "--count")
    assert (code, json.loads(err)["error"]["type"]) == (2, "ValueError")
    code, _, err = run(capsys, "pattern-enum", "-r", "100000", "-s", "0", "--limit", "-1")
    assert (code, json.loads(err)["error"]["type"]) == (2, "ValueError")
    code, out, _ = run(capsys, "pattern-enum", "-r", "1000", "-s", "0", "--count")
    assert (code, out) == (0, "%d\n" % _count_patterns(1000, 0))


def test_pattern_enum_listing_bound(capsys):
    # a listing above _MAX_PATTERN_LISTING patterns ends at exit 3 before it
    # is built; the count still answers
    assert _count_patterns(26, 0) <= _MAX_PATTERN_LISTING < _count_patterns(27, 0)
    for r in ("27", "60"):
        code, out, err = run(capsys, "pattern-enum", "-r", r, "-s", "0")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "BoundExceeded"
        code, out, _ = run(capsys, "pattern-enum", "-r", r, "-s", "0", "--count")
        assert (code, out) == (0, "%d\n" % _count_patterns(int(r), 0))


def test_pattern_enum_count_does_not_list(capsys):
    # about 10^46 patterns: only the count over the remaining r can answer
    code, out, _ = run(capsys, "pattern-enum", "-r", "200", "-s", "0", "--count")
    assert (code, out) == (0, "%d\n" % _count_patterns(200, 0))


def test_scan_bounds(capsys):
    # requests that scan range(r) end at once with exit 3 past _MAX_SCAN_R
    for argv in (
        ["i1-bounds", "-r", "1000000000000", "-s", "0"],
        ["i1-bounds", "-r", str(_MAX_SCAN_R + 1), "-s", "0"],
        ["excellent-pairs", PROFILE_2_30],
        ["steenrod", "-j", "1", "h0", "--profile", PROFILE_2_30],
        ["steenrod", "-j", "0", "h0*h0", "--profile", "[%s, %s]" % (PROFILE_22, PROFILE_2_30)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert json.loads(err)["error"]["type"] == "BoundExceeded"
    # malformed input is still reported as such
    for argv, error in (
        (["i1-bounds", "-r", "1000000000000", "-s", "-1"], "ValueError"),
        (["i1-bounds", "-r", "1000000000000", "-s", "0", "--rules", "maybe"], "ValueError"),
        (["excellent-pairs", PROFILE_2_30.replace("[0, ", "[0, 3, ")], "StepViolatesI1Bound"),
        (["steenrod", "-j", "-1", "h0", "--profile", PROFILE_2_30], "ValueError"),
        (["steenrod", "-j", "1", "h0*h0", "--profile", PROFILE_2_30], "ValueError"),
        (["steenrod", "-j", "1", "h1073741824", "--profile", PROFILE_2_30], "ContextMismatch"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"]["type"] == error, argv
    # at the bound each request answers
    code, out, _ = run(capsys, "i1-bounds", "-r", str(_MAX_SCAN_R), "-s", "0")
    assert (code, json.loads(out)) == (0, sorted(i1_admissible_set(_MAX_SCAN_R, 0)))
    r, s = _MAX_SCAN_R, 293216
    at_bound = json.dumps({"dim": 2 * r + s, "r": r, "s": s, "pattern": [0, r]})
    assert run(capsys, "excellent-pairs", at_bound)[:2] == (0, "[]\n")
    top = "l%d" % (r - 1)
    pair = "[%s, %s]" % (at_bound, at_bound)
    code, out, _ = run(capsys, "steenrod", "-j", "1", "h1*" + top, "--profile", pair)
    assert (code, out) == (0, "h2*%s\n" % top)


def test_steenrod_output_bound(capsys):
    # S^30 of h63^8 at r = 128 would have about 6 * 10^7 terms; the walk
    # stops at its first level past _MAX_FRONTIER entries
    p = '{"dim": 256, "r": 128, "s": 0, "pattern": [0, 128]}'
    start = time.perf_counter()
    code, out, err = run(capsys, "steenrod", "-j", "30", "*".join(["h63"] * 8),
                         "--profile", "[%s]" % ", ".join([p] * 8))
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"


def test_i1_bounds_conjectural(capsys):
    code, out, _ = run(
        capsys, "i1-bounds", "-r", "3", "-s", "6", "--rules", "base,singular,conjectural"
    )
    assert code == 0
    assert json.loads(out) == [1]


def test_i1_bounds_unknown_rule(capsys):
    code, _, err = run(capsys, "i1-bounds", "-r", "3", "-s", "6", "--rules", "maybe")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_excellent_pairs(capsys):
    code, out, _ = run(capsys, "excellent-pairs", PROFILE_DIM10)
    assert code == 0
    assert json.loads(out) == [[0, 7], [1, 8]]
    # only the rule-driven subcommands take --rules
    with pytest.raises(SystemExit) as exc:
        main(["excellent-pairs", PROFILE_DIM10, "--rules", "R-NOPE"])
    assert exc.value.code == 2


def test_mdt_solve_height_one(capsys):
    code, out, _ = run(capsys, "mdt-solve", PROFILE_22)
    assert code == 0
    payload = json.loads(out)
    assert "not excluded" in payload["semantics"]
    assert payload["partitions"] == [
        {
            "blocks": [
                [{"kind": "lo", "i": 0}, {"kind": "up", "i": 3}],
                [{"kind": "lo", "i": 1}, {"kind": "up", "i": 4}],
            ]
        }
    ]


def test_mdt_solve_count(capsys):
    code, out, _ = run(capsys, "mdt-solve", PROFILE_PFISTER, "--count")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_mdt_solve_count_builds_no_partition(capsys, monkeypatch):
    # the count reads the search's options, not a listing: neither the
    # validating constructor nor the enumerator's trusted one may run
    def refuse(*args, **kwargs):
        raise AssertionError("MdtPartition built by mdt-solve --count")

    monkeypatch.setattr(mdt.MdtPartition, "__init__", refuse)
    monkeypatch.setattr(mdt.MdtPartition, "_canonical", refuse)
    all_bell = '{"dim": 19, "r": 8, "s": 3, "pattern": [0, 1, 2, 3, 4, 5, 6, 7, 8]}'
    code, out, _ = run(capsys, "mdt-solve", all_bell, "--count")
    assert (code, json.loads(out)["count"]) == (0, 4140)
    none_left = '{"dim": 16, "r": 8, "s": 0, "pattern": [0, 2, 6, 7, 8]}'
    code, out, _ = run(capsys, "mdt-solve", none_left, "--count")
    assert (code, json.loads(out)["count"]) == (0, 0)


def test_mdt_solve_count_bounds(capsys):
    # --count ends at exit 3 past --max-r and past 10 atoms, as the listing does
    big = json.dumps({"dim": 18, "r": 9, "s": 0, "pattern": list(range(10))})
    code, out, err = run(capsys, "mdt-solve", big, "--count")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"
    atoms11 = json.dumps({"dim": 25, "r": 11, "s": 3, "pattern": list(range(12))})
    code, out, err = run(capsys, "mdt-solve", atoms11, "--count", "--max-r", "11")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["type"] == "BoundExceeded"


def test_mdt_solve_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "mdt-solve", PROFILE_DIM10)
    _, second, _ = run(capsys, "mdt-solve", PROFILE_DIM10)
    assert first == second


def test_mdt_solve_rules_opt_in(capsys):
    code, out, _ = run(capsys, "mdt-solve", PROFILE_DIM10, "--count")
    assert json.loads(out)["count"] == 2
    code, out, _ = run(
        capsys, "mdt-solve", PROFILE_DIM10, "--count", "--rules", "R-EXC"
    )
    assert json.loads(out)["count"] == 1


@pytest.mark.parametrize("rules", ["proven, R-EXC,,", " R-EXC , proven"])
def test_mdt_rules_skip_empty_and_proven_tokens(capsys, rules):
    # "proven" names the default set, and an empty token names nothing
    expected = run(capsys, "mdt-solve", PROFILE_DIM10, "--rules", "R-EXC")
    assert expected[0] == 0 and json.loads(expected[1])["partitions"]
    assert run(capsys, "mdt-solve", PROFILE_DIM10, "--rules", rules) == expected


def test_mdt_solve_invalid_profile(capsys):
    bad = '{"dim": 12, "r": 3, "s": 6, "pattern": [0, 3]}'
    code, _, err = run(capsys, "mdt-solve", bad)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "StepViolatesI1Bound"
    for dim in ("6.5", "true", '"6"'):  # only exact JSON integers
        bad = '{"dim": %s, "r": 2, "s": 2, "pattern": [0, 2]}' % dim
        code, _, err = run(capsys, "mdt-solve", bad)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "PatternInvalid"
    unknown = '{"dim": 6, "r": 2, "s": 2, "pattern": [0, 2], "height": 1}'
    code, _, err = run(capsys, "mdt-solve", unknown)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PatternInvalid"


def test_mdt_solve_bound_exceeded(capsys):
    big = json.dumps(
        {"dim": 18, "r": 9, "s": 0, "pattern": list(range(10))}
    )
    code, _, err = run(capsys, "mdt-solve", big)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "BoundExceeded"
    code, out, _ = run(capsys, "mdt-solve", big, "--count", "--max-r", "9")
    assert code == 0
    # a negative bound is malformed input, not a bound the profile exceeds
    code, out, err = run(capsys, "mdt-solve", PROFILE_22, "--max-r", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_check_subcommand(capsys):
    partition = json.dumps(
        {
            "blocks": [
                [{"kind": "lo", "i": 0}, {"kind": "lo", "i": 1}],
                [{"kind": "up", "i": 3}, {"kind": "up", "i": 4}],
            ]
        }
    )
    code, out, _ = run(capsys, "check", PROFILE_22, partition)
    assert code == 0
    report = json.loads(out)
    assert any(v["rule"] == "R-DUAL" for v in report)
    good = json.dumps(
        {
            "blocks": [
                [{"kind": "lo", "i": 0}, {"kind": "up", "i": 3}],
                [{"kind": "lo", "i": 1}, {"kind": "up", "i": 4}],
            ]
        }
    )
    code, out, _ = run(capsys, "check", PROFILE_22, good)
    assert code == 0
    assert json.loads(out) == []
    for exact, loose in (
        ('"i": 0', '"i": 0.7'),  # int() would read 0 and 1
        ('"i": 1', '"i": true'),
        ("]]}", "], []]}"),  # an empty block
        ("]]}", "]], \"extra\": 1}"),  # an unknown top-level key
        ('"i": 4}', '"i": 4, "x": 0}'),  # an unknown symbol key
    ):
        bad = good.replace(exact, loose)
        assert bad != good
        code, _, err = run(capsys, "check", PROFILE_22, bad)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ArityMismatch"


def test_check_repeated_first_symbol_reports_in_given_order(capsys):
    # blocks are ordered by their first symbol only: two blocks that share it
    # keep the given order, which decides the symbol reported first
    outside = [{"kind": "lo", "i": 0}, {"kind": "up", "i": 9}]
    inside = [{"kind": "lo", "i": 0}, {"kind": "up", "i": 3}]
    for blocks, message in (
        ([outside, inside], "9^up outside the up window"),
        ([inside, outside], "symbol 0_lo appears twice"),
    ):
        code, out, err = run(capsys, "check", PROFILE_22, json.dumps({"blocks": blocks}))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"message": message, "type": "ArityMismatch"}


def test_diagram_ascii(capsys):
    shape = '{"r": 12, "pattern": [0, 2, 8, 12]}'
    code, out, _ = run(capsys, "diagram", shape)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "************   ************"
    assert lines[-1].split() == ["0", "1", "2", "2", "1", "0"]
    code2, out2, _ = run(capsys, "diagram", shape)
    assert out2 == out  # byte-identical reruns
    # a full profile object is accepted as well, without its step bounds
    full = '{"dim": 28, "r": 12, "s": 4, "pattern": [0, 2, 8, 12]}'
    assert run(capsys, "diagram", full)[1] == out
    for bad in (
        '{"r": 4.5, "pattern": [0, 2, 4]}',
        '{"r": true, "pattern": [0, 1]}',
        '{"r": 4, "pattern": [0, 2.0, 4]}',
        '{"r": 4, "pattern": 7}',
        '{"r": 4, "pattern": [0, 4], "rank": 4}',
        "[1, 2]",
    ):
        code, out, err = run(capsys, "diagram", bad)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "PatternInvalid"
    # r past the bound exits 3 before anything is built
    for r in (1001, 1000000000):
        code, out, err = run(capsys, "diagram", json.dumps({"r": r, "pattern": [0, r]}))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["type"] == "BoundExceeded"


def test_diagram_svg_deterministic(capsys):
    shape = '{"r": 2, "pattern": [0, 2]}'
    code, first, _ = run(capsys, "diagram", shape, "--format", "svg")
    assert code == 0 and first.startswith("<svg")
    _, second, _ = run(capsys, "diagram", shape, "--format", "svg")
    assert first == second


def test_steenrod_command(capsys):
    profile = '{"dim": 8, "r": 3, "s": 2, "pattern": [0, 1, 2, 3]}'
    code, out, _ = run(capsys, "steenrod", "-j", "1", "h1", "--profile", profile)
    assert code == 0
    assert out.strip() == "h2"


def test_steenrod_multifactor(capsys):
    profile = {"dim": 8, "r": 3, "s": 2, "pattern": [0, 1, 2, 3]}
    two = json.dumps([profile, profile])
    code, out, _ = run(capsys, "steenrod", "-j", "1", "h1*h0", "--profile", two)
    assert code == 0
    assert out.strip() == "h2*h0"


def test_steenrod_bad_cycle(capsys):
    profile = '{"dim": 8, "r": 3, "s": 2, "pattern": [0, 1, 2, 3]}'
    code, _, err = run(capsys, "steenrod", "-j", "1", "z9", "--profile", profile)
    assert code == 2
    assert "error" in json.loads(err)


# an Arabic-Indic and a mathematical double-struck one: int() reads both as 1
@pytest.mark.parametrize("cycle", ["h\u0661", "h\U0001d7d9"])
def test_steenrod_rejects_non_ascii_digits(capsys, cycle):
    profile = '{"dim": 8, "r": 3, "s": 2, "pattern": [0, 1, 2, 3]}'
    code, out, err = run(capsys, "steenrod", "-j", "0", cycle, "--profile", profile)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_compose_command(capsys):
    profile = {"dim": 5, "r": 2, "s": 1, "pattern": [0, 1, 2]}
    f = json.dumps(
        {
            "context": [profile, profile],
            "support": [[{"kind": "H", "i": 0}, {"kind": "L", "i": 1}]],
            "split": 1,
        }
    )
    g = json.dumps(
        {
            "context": [profile, profile],
            "support": [[{"kind": "H", "i": 1}, {"kind": "L", "i": 1}]],
            "split": 1,
        }
    )
    code, out, _ = run(capsys, "compose", f, g)
    assert code == 0
    result = json.loads(out)
    assert result["support"] == [[{"kind": "H", "i": 0}, {"kind": "L", "i": 1}]]
    assert result["split"] == 1
    for bad in (
        f.replace('"i": 0', '"i": 0.5'),
        f.replace('"split": 1', '"split": 1.9'),
        f.replace('"kind": "H"', '"kind": 1'),
        f.replace('"i": 0}', '"i": 0, "x": 1}'),
        f.replace('"split": 1', '"split": 1, "extra": 5'),
        "[]",
    ):
        code, out, err = run(capsys, "compose", bad, g)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ContextMismatch"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "patterns.json"
    code, out, _ = run(
        capsys, "pattern-enum", "-r", "2", "-s", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [[0, 1, 2], [0, 2]]


def test_json_output_is_one_indented_document(tmp_path, capsys):
    # JSON is written a batch of encoder chunks at a time: the bytes are still
    # those of the whole indented, key-sorted document, on stdout and --output
    code, out, _ = run(capsys, "mdt-solve", PROFILE_DIM10)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    target = tmp_path / "partitions.json"
    assert run(capsys, "mdt-solve", PROFILE_DIM10, "--output", str(target))[:2] == (0, "")
    assert target.read_text() == out


def test_input_from_file(tmp_path, capsys):
    source = tmp_path / "profile.json"
    source.write_text(PROFILE_22)
    code, out, _ = run(capsys, "mdt-solve", "@" + str(source), "--count")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_input_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(PROFILE_22))
    code, out, _ = run(capsys, "excellent-pairs", "-")
    assert code == 0
    assert json.loads(out) == [[0, 3], [1, 4]]
