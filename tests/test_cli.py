import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest

from kbeq.cli import main
from kbeq.functions import (
    CharacterSpec,
    CosetConstantMap,
    Exact,
    FuncTable,
    HermitianSolutionForm,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    synth_table,
)
from kbeq.groups import Box, FullGroup, GroupSpec, SubgroupSpec
from kbeq.oracle import builtin_odd_quadratic, random_hermitian_form, random_positive_form
from random import Random


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def const_table(value):
    return {
        "group": "Z/3",
        "domain": {"type": "full"},
        "kind": "positive",
        "values": [[[k], value] for k in range(3)],
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_check_reciprocal_constants(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    write_json(f, const_table(2.0))
    write_json(g, const_table(0.5))
    code, payload, err = run(capsys, "check", "--group", "Z/3",
                             "-f", str(f), "-g", str(g))
    assert code == 0
    assert payload["report"]["holds"] is True
    assert "holds: True" in err


def test_check_failing_pair_exits_one(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    write_json(f, const_table(2.0))
    write_json(g, const_table(2.0))  # not reciprocal: equation fails
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(g))
    assert code == 1
    assert payload["report"]["holds"] is False
    assert payload["report"]["witness"] is not None


def test_group_mismatch_exits_two(tmp_path, capsys):
    f = tmp_path / "f.json"
    write_json(f, const_table(2.0))
    code, payload, _ = run(capsys, "check", "--group", "Z/5",
                           "-f", str(f), "-g", str(f))
    assert code == 2
    assert "error" in payload


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, payload, _ = run(capsys, "check", "-f", str(bad), "-g", str(bad))
    assert code == 2


def test_check_nan_value_exits_two(tmp_path, capsys):
    # NaN and infinite values of every float kind, written as JSON NaN and
    # Infinity; a failing report would print them as invalid JSON
    for kind, zero, bad, literal in (
            ("real", 0.0, math.nan, "NaN"),
            ("real", 0.0, math.inf, "Infinity"),
            ("real", 0.0, -math.inf, "-Infinity"),
            ("positive", 0.0, {"log": math.inf}, "Infinity"),
            ("complex", 1.0, [math.nan, 0.0], "NaN"),
            ("complex", 1.0, [0.0, -math.inf], "-Infinity")):
        t = FuncTable.from_function(GroupSpec(1), Box((3,)), kind, lambda p: zero)
        obj = t.to_json()
        obj["values"][1][1] = bad
        f = tmp_path / "f.json"
        write_json(f, obj)
        assert literal in f.read_text(encoding="utf-8")
        code, payload, err = run(capsys, "check", "-f", str(f), "-g", str(f))
        assert code == 2, (kind, bad)
        assert f"invalid for kind '{kind}'" in payload["error"]


BIG = 10**400  # an integer beyond the float range


@pytest.mark.parametrize("kind,value,other", [
    ("positive", {"log": BIG}, {"log": 0}),
    ("positive", BIG, 1),
    ("complex", [BIG, 0], 0),
    ("real", BIG, 1.5),
    ("complex", {"log": [1000, 1], "turn": [0, 1]}, [1.0, 0.0]),
], ids=["positive-log", "positive-plain", "complex-pair", "real-beside-a-float",
        "exact-complex-beside-a-float"])
def test_value_beyond_the_float_range_exits_two(tmp_path, capsys, kind, value, other):
    # each ended in an OverflowError traceback (exit 1); the last two are
    # read as floats because the table holds a float
    f = tmp_path / "f.json"
    write_json(f, {"group": "Z/2", "domain": {"type": "full"}, "kind": kind,
                   "values": [[[0], other], [[1], value]]})
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(f))
    assert code == 2
    assert payload["error"] == f"value {value!r} is beyond the float range"


def test_real_integer_beyond_the_float_range_is_read_exactly():
    t = FuncTable.from_json({"group": "Z/2", "domain": {"type": "full"}, "kind": "real",
                             "values": [[[0], 0], [[1], BIG]]})
    assert t.encoding[0] == "int" and t.values[t.group.element((1,))] == BIG


@pytest.mark.parametrize("values,message", [
    ([[[0], 2.0], [[1], 2.0], [[2], 2.0], [[1], 99.0]],
     "table keys must equal the enumerated domain exactly"),
    ([[[0.5], 2.0], [[1], 2.0], [[2], 2.0]], "table coordinates must be integers"),
    ([[[False], 2.0], [[1], 2.0], [[2], 2.0]], "table coordinates must be integers"),
], ids=["duplicate-point", "float-coordinate", "bool-coordinate"])
def test_bad_table_points_exit_two(tmp_path, capsys, values, message):
    f = tmp_path / "f.json"
    write_json(f, {**const_table(2.0), "values": values})
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(f))
    assert code == 2
    assert message in payload["error"]


@pytest.mark.parametrize("bad", [[1, 0], [1.9, 2], [True, 2], ["3", 2]],
                         ids=["zero-denominator", "float", "bool", "string"])
def test_malformed_rationals_exit_two(tmp_path, capsys, bad):
    # each was read as a rational through int(), or raised ZeroDivisionError
    f = tmp_path / "f.json"
    write_json(f, {**const_table({"log": [1, 2]}),
                   "values": [[[0], {"log": bad}], [[1], 2.0], [[2], 2.0]]})
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(f))
    assert code == 2
    assert "rational of integers with a nonzero denominator" in payload["error"]
    form = PositiveSolutionForm.zero(GroupSpec(1)).to_json()
    form["P"][0][0] = bad
    path = tmp_path / "form.json"
    write_json(path, form)
    code, payload, _ = run(capsys, "synth", "--form", str(path))
    assert code == 2
    assert "rational of integers with a nonzero denominator" in payload["error"]


COMPLEX_Z2 = {"group": "Z/2", "domain": {"type": "full"}, "kind": "complex",
              "values": [[[0], 0], [[1], 0]]}


@pytest.mark.parametrize("obj,message", [
    ({**COMPLEX_Z2, "values": [[[0], {"turn": [0, 1]}], [[1], 0]]},
     "complex value {'turn': [0, 1]} has no key 'log'"),
    ({**COMPLEX_Z2, "values": 5}, "table key 'values' must be a JSON array, got integer"),
    ({k: v for k, v in COMPLEX_Z2.items() if k != "group"}, "table has no key 'group'"),
    ({**COMPLEX_Z2, "values": [5, 6]}, "table key 'values' rows must be [array, value]"),
    ({**COMPLEX_Z2, "domain": {"type": "box"}}, "domain has no key 'radius'"),
    (5, "table must be a JSON object, got integer"),
], ids=["no-log", "values-int", "no-group", "row-int", "no-radius", "not-object"])
def test_malformed_table_json_exits_two(tmp_path, capsys, obj, message):
    # each ended in a KeyError, TypeError or AttributeError traceback (exit 1)
    f = tmp_path / "f.json"
    write_json(f, obj)
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(f))
    assert code == 2
    assert message in payload["error"]


@pytest.mark.parametrize("key,value,message", [
    ("type", None, "form has no key 'type'"),
    ("l", None, "form has no key 'l'"),
    ("r", {}, "coset map has no key 'table'"),
    ("P", 5, "form key 'P' must be a JSON array, got integer"),
], ids=["no-type", "no-l", "no-coset-table", "P-int"])
def test_malformed_form_json_exits_two(tmp_path, capsys, key, value, message):
    form = PositiveSolutionForm.zero(GroupSpec(1)).to_json()
    if value is None:
        del form[key]
    else:
        form[key] = value
    path = tmp_path / "form.json"
    write_json(path, form)
    code, payload, _ = run(capsys, "synth", "--form", str(path))
    assert code == 2
    assert message in payload["error"]


def test_decompose_roundtrip_via_files(tmp_path, capsys):
    group = GroupSpec(0, (4,))
    form = random_positive_form(group, Random(2))
    ft, gt = synth_table(form, FullGroup())
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    write_json(f, ft.to_json())
    write_json(g, gt.to_json())
    code, payload, _ = run(capsys, "decompose", "-f", str(f), "-g", str(g))
    assert code == 0
    assert payload["form"]["type"] == "positive"
    # all structure lives in the coset part on a finite group
    assert all(all(v == [0, 1] for v in row) for row in payload["form"]["P"])


def test_decompose_undersized_window_exits_two(tmp_path, capsys):
    form = PositiveSolutionForm.zero(GroupSpec(1))
    ft, gt = synth_table(form, Box((2,)))
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    write_json(f, ft.to_json())
    write_json(g, gt.to_json())
    code, payload, err = run(capsys, "decompose", "-f", str(f), "-g", str(g))
    assert code == 2
    assert "radius" in payload["error"]


def test_synth_command(tmp_path, capsys):
    group = GroupSpec(0, (2, 2))
    form = random_positive_form(group, Random(4))
    path = tmp_path / "form.json"
    write_json(path, form.to_json())
    code, payload, _ = run(capsys, "synth", "--form", str(path))
    assert code == 0
    assert payload["report"]["holds"] is True
    back = FuncTable.from_json(payload["f"])
    assert back.group == group


def test_demo_counterexample(capsys):
    code, payload, err = run(capsys, "demo", "counterexample")
    assert code == 0
    assert payload["report"]["holds"] is True
    assert payload["constant_mod4"]["holds"] is True
    assert payload["constant_mod2"]["holds"] is False
    assert payload["decomposition"]["type"] == "hermitian"


def test_demo_odd_quadratic(capsys):
    code, payload, _ = run(capsys, "demo", "odd-quadratic", "--radius", "4")
    assert code == 0
    assert payload["report"]["holds"] is True
    assert payload["decomposition"]["sign_on_odd_odd_coset"] == -1


def test_demo_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["demo", "counterexample", "--output", str(a)]) == 0
    assert main(["demo", "counterexample", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_check_self_command(tmp_path, capsys):
    table = builtin_odd_quadratic(6)
    flipped = dict(table.values)
    x = table.group.element((1, 2))
    flipped[x] = -flipped[x]
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_json(good, table.to_json())
    write_json(bad, FuncTable(table.group, table.domain, "sign", flipped).to_json())
    code, payload, _ = run(capsys, "check-self", "-f", str(good))
    assert code == 0 and payload["report"]["holds"] is True
    code, payload, _ = run(capsys, "check-self", "-f", str(bad))
    assert code == 1 and payload["report"]["holds"] is False
    assert payload["report"]["witness"] is not None


def test_decompose_hermitian_negated_pair_reports_the_witness(tmp_path, capsys):
    # -f, -g still solve the equation, but f(0) = -1 has no form
    group = GroupSpec(2, (4,))
    minus = Exact.from_sign(-1)
    paths = []
    for name, t in zip("fg", synth_table(random_hermitian_form(group, Random(1)),
                                         Box((4, 4)))):
        paths += [f"-{name}", str(tmp_path / f"{name}.json")]
        write_json(tmp_path / f"{name}.json", FuncTable(
            group, t.domain, "complex", {p: v * minus for p, v in t.values.items()}).to_json())
    code, payload, _ = run(capsys, "decompose-hermitian", *paths)
    assert code == 1
    assert payload["error"].startswith("f(0) must be a positive real; ")
    assert payload["witness"]["x"] == [0, 0, 0]


def test_enum_signs_command(capsys):
    code, payload, _ = run(capsys, "enum-signs", "--group", "Z/2 x Z/2")
    assert code == 0
    assert payload["count"] == 32
    assert len(payload["pairs"]) == 32


def test_enum_kb_command(capsys):
    code, payload, _ = run(capsys, "enum-kb", "--group", "Z/2")
    assert code == 0
    assert payload["count"] == 9


def test_enum_kb_custom_grid(capsys):
    code, payload, _ = run(capsys, "enum-kb", "--group", "Z/2",
                           "--grid=-1/2,0,1/2")
    assert code == 0
    assert payload["count"] == 9


@pytest.mark.parametrize("argv,message", [
    (["enum-kb", "--group", "Z/2", "--grid=1,1"], "grid values must be distinct"),
    (["enum-kb", "--group", "Z/2", "--grid=1/0"], "zero denominator"),
    (["enum-signs", "--group", "Z"], "census needs a finite group"),
], ids=["repeated-grid-value", "zero-denominator", "infinite-group"])
def test_census_input_errors_exit_two(capsys, argv, message):
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert message in payload["error"]
    assert err.startswith("usage error:")


def test_suite_command(capsys):
    code, payload, _ = run(capsys, "suite", "--groups", "Z/2,Z/9",
                           "--trials", "2", "--seed", "3")
    assert code == 0
    assert payload["ok"] is True
    assert payload["seed"] == 3


def test_vanishing_command(tmp_path, capsys):
    sup = {0, 3, 6}
    values = []
    for k in range(9):
        if k in sup:
            values.append([[k], {"log": [0, 1], "turn": [k, 9]}])
        else:
            values.append([[k], 0])
    table = {"group": "Z/9", "domain": {"type": "full"}, "kind": "complex",
             "values": values}
    f = tmp_path / "f.json"
    write_json(f, table)
    code, payload, _ = run(capsys, "decompose-vanishing",
                           "-f", str(f), "-g", str(f))
    assert code == 0
    assert payload["form"]["support"] == [[3]]


def test_vanishing_wrong_group_exits_two(tmp_path, capsys):
    table = {"group": "Z/4", "domain": {"type": "full"}, "kind": "complex",
             "values": [[[k], {"log": [0, 1], "turn": [0, 1]}]
                        for k in range(4)]}
    f = tmp_path / "f.json"
    write_json(f, table)
    code, payload, _ = run(capsys, "decompose-vanishing",
                           "-f", str(f), "-g", str(f))
    assert code == 2
    assert "X^(2)" in payload["error"]


# ---------------------------------------------------------------------------
# byte-identical output on exact inputs


def _pinned_inputs(tmp_path):
    """Seeded exact inputs for the pinned commands, written as JSON files."""
    group = GroupSpec(1, (4,))
    form = random_positive_form(group, Random(11))
    ft, gt = synth_table(form, Box((4,)))
    bad = dict(ft.values)
    bad[group.element((2, 1))] += Fraction(1, 3)
    hform = random_hermitian_form(group, Random(5))
    hf, hg = synth_table(hform, Box((3,)))
    wf, wg = synth_table(hform, Box((4,)))  # wide enough to decompose
    hbad = dict(hf.values)
    x = group.element((1, 3))
    hbad[x] = hbad[x] * hbad[x].from_sign(-1)
    hneg = dict(hf.values)  # still Hermitian, but the equation fails
    for y in (x, -x):
        hneg[y] = hneg[y] * hneg[y].from_sign(-1)
    # support-restricted forms on Z/3 x Z/9, on the subgroup generated by (1, 3)
    odd = GroupSpec(0, (3, 9))
    vform = HermitianSolutionForm(
        CharacterSpec(odd, (), (1, 2)), CharacterSpec(odd, (), (2, 7)),
        SignMap.trivial(odd, 4), SignMap.trivial(odd, 4), QuadraticForm.zero(odd),
        CosetConstantMap.zero(odd), SubgroupSpec(odd, (odd.element((1, 3)),)))
    vf, vg = synth_table(vform, FullGroup())
    vlog = dataclasses.replace(vform, r=CosetConstantMap(
        odd, ((odd.coset_indices(2)[0], Fraction(1, 2)),)))
    files = {
        "form": form.to_json(),
        "f": ft.to_json(),
        "g": gt.to_json(),
        "fbad": FuncTable(group, ft.domain, "positive", bad).to_json(),
        "hbad": FuncTable(group, hf.domain, "complex", hbad).to_json(),
        "hneg": FuncTable(group, hf.domain, "complex", hneg).to_json(),
        "hf": hf.to_json(),
        "wf": wf.to_json(),
        "wg": wg.to_json(),
        "hg": hg.to_json(),
        "hform": hform.to_json(),
        "vlog": vlog.to_json(),
        "vf": vf.to_json(),
        "vg": vg.to_json(),
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        write_json(paths[name], obj)
    return {k: str(v) for k, v in paths.items()}


PINNED = [
    (lambda p: ["demo", "counterexample"],
     "8fe818dee8088df4765791af56fae078390fb54ff96a8f5de9e29f66ac0cbc19"),
    (lambda p: ["demo", "odd-quadratic", "--radius", "4"],
     "b44f48d1a10bb6c0999a071e19001c14bee0a57bf1ac7db97346c4f449b5f955"),
    (lambda p: ["suite", "--groups", "Z/2,Z/9,Z x Z/4", "--trials", "2",
                "--seed", "3"],
     "5181eac51bf0f5fb8d330a846ca31a86fbe0dd8cc5993aadc619158720659a8b"),
    (lambda p: ["synth", "--form", p["form"], "--radius", "3"],
     "d79dc06984d69bf1c6a28d573c46575c3ccdb18afd23f9c85603a4e406751b02"),
    (lambda p: ["check", "-f", p["f"], "-g", p["g"]],
     "7e0bf954d07d1dd68d02745a056c43b1e4c24fc2d440833dac36b1c6be0dd0e9"),
    (lambda p: ["check", "-f", p["fbad"], "-g", p["g"]],
     "a5c9fc9950daade4a2878e96d6a4a423c8aef420d196870a12e41114cc08da99"),
    (lambda p: ["check", "-f", p["hbad"], "-g", p["hg"]],
     "d50b5ab5067f07fcce539d8a9ad3f629c0538be5d56573256b3f8c5ebb030d89"),
    (lambda p: ["decompose", "-f", p["f"], "-g", p["g"]],
     "f1b96275155bb19db894dfbde32afa263cd4ba6a74ffe8240057e23d20eeaa9d"),
    (lambda p: ["decompose", "-f", p["fbad"], "-g", p["g"]],
     "2c8e96c816885f2a8f718fa035785f10ad3bc8740210d3af3dda398d525e4964"),
    (lambda p: ["decompose-hermitian", "-f", p["hf"], "-g", p["hg"]],
     "e59aa8d2de8e21c8410aba198cbeac9c2b2acd28e7f8574ace4341229f4f3171"),
    (lambda p: ["decompose-hermitian", "-f", p["hneg"], "-g", p["hg"]],
     "ca7fe6de734f8b2ada37099ee08dfd16c1dc4e0be017c84caa4d5a2d79986cd9"),
    (lambda p: ["decompose-hermitian", "-f", p["wf"], "-g", p["wg"]],
     "dc842324144ef35027c0aad061437e6eac14de1b2de267e53c4bb833e27130c4"),
    (lambda p: ["enum-signs", "--group", "Z/4 x Z/4"],
     "f9c8d6e435f91bbf7ee89025e41725aa3d9b4581e7e943ee296d637063e36cb7"),
    (lambda p: ["synth", "--form", p["hform"], "--radius", "3"],
     "463f51f1db75e9e454a539865774a57d1cd0fc2a702373c76f807a9fcb6d68a2"),
    (lambda p: ["synth", "--form", p["vlog"]],
     "75d1838011f07f933e4b0c3763c3a829aee19b6cfb172b52a8a83681f16de0a3"),
    (lambda p: ["decompose-vanishing", "-f", p["vf"], "-g", p["vg"]],
     "6394990fc3d456eea7d6c1ca9d7ec31c9260976b23a2200aeea30975f6c8037e"),
]


@pytest.mark.parametrize("argv,digest", PINNED,
                         ids=["demo-counterexample", "demo-odd-quadratic",
                              "suite", "synth", "check-holds",
                              "check-fails", "check-fails-complex",
                              "decompose", "decompose-fails",
                              "decompose-hermitian-radius3",
                              "decompose-hermitian-fails",
                              "decompose-hermitian", "enum-signs",
                              "synth-hermitian", "synth-support",
                              "decompose-vanishing"])
def test_cli_output_pinned(tmp_path, capsys, argv, digest):
    main(argv(_pinned_inputs(tmp_path)))
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_check_turn_denominators_beyond_int64(tmp_path, capsys):
    p, q = 2**40 - 87, 2**40 - 167

    def character(num, den):
        return {"group": "Z", "domain": {"type": "box", "radius": [4]},
                "kind": "complex",
                "values": [[[k], {"log": [0, 1], "turn": [num * k % den, den]}]
                           for k in range(-4, 5)]}

    f, g = tmp_path / "f.json", tmp_path / "g.json"
    write_json(f, character(3, p))
    write_json(g, character(5, q))
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(g))
    assert code == 0
    assert payload["report"]["holds"] is True


def test_check_reduces_a_turn_whose_denominator_exceeds_int64(tmp_path, capsys):
    # one turn of 1/2^70 at every point: f(x+y) g(x-y) carries two of them,
    # f(x) f(y) g(x) g(-y) four, so the equation fails with a witness
    table = {"group": "Z", "domain": {"type": "box", "radius": [1]}, "kind": "complex",
             "values": [[[k], {"log": [0, 1], "turn": [1, 2**70]}] for k in (-1, 0, 1)]}
    f = tmp_path / "f.json"
    write_json(f, table)
    code, payload, _ = run(capsys, "check", "-f", str(f), "-g", str(f))
    assert code == 1
    assert payload["report"]["holds"] is False
    assert payload["report"]["witness"] is not None
    want = FuncTable.from_function(GroupSpec(1), Box((1,)), "complex",
                                   lambda p: Exact.unit(Fraction(1, 2**70)))
    assert FuncTable.from_json(table) == want
