import json
import subprocess
import sys
import time

import pytest

from frobkit.session import (Session, SessionError, load_session_file,
                             run_session, serialize_gamma, serialize_module)
from frobkit.cli import main
from frobkit.verify import run_verify


def base_session(**extra):
    data = {
        "field": {"p": 2},
        "ring": {"vars": ["x"], "order": "grevlex"},
        "ideal": [],
        "objects": {
            "N1": {"gamma": {"rank": 1, "matrix": [["1"]]}},
            "Z": {"module": {"rank": 1, "kappa": {}}},
            "im1": {"immersion": {"sequence": ["x"]}},
        },
        "commands": [],
    }
    data.update(extra)
    return data


def run_ok(commands, **extra):
    reports = run_session(base_session(commands=commands, **extra))
    for r in reports:
        assert r["status"] == "ok", r
    return reports


def test_schema_errors():
    with pytest.raises(SessionError):
        Session({"ring": {"vars": ["x"]}})  # missing field
    with pytest.raises(SessionError):
        Session(base_session(objects={"B": {"widget": {}}}))
    with pytest.raises(SessionError):
        Session(base_session(commands=[{"noop": 1}]))
    with pytest.raises(SessionError):
        Session(base_session(
            objects={"M": {"module": {"rank": 1,
                                      "kappa": {"0,5": "1"}}}}))


def test_inconsistent_table_rejected_at_load():
    data = base_session(ideal=["x"])
    # kappa(x e) = e contradicts the relation x e = 0
    data["objects"] = {"M": {"module": {"rank": 1, "kappa": {"0,1": "1"}}}}
    with pytest.raises(SessionError):
        Session(data)


def test_basic_commands():
    reports = run_ok([
        {"op": "gb", "polys": ["x^2 + x", "x^3"]},
        {"op": "nilpotent", "target": "Z"},
        {"op": "validate", "target": "N1"},
        {"op": "as-kernel", "q": 16},
    ])
    assert reports[0]["result"]["basis"] == ["x"]
    assert reports[1]["result"] == {"verdict": "nilpotent", "index": 1}
    assert reports[2]["result"]["valid"] is True
    assert reports[3]["result"]["dim"] == 1


def test_store_and_chain():
    reports = run_ok([
        {"op": "twist-to-cartier", "target": "N1", "store": "M1"},
        {"op": "nilpotent", "target": "M1"},
        {"op": "pullback", "target": "M1", "immersion": "im1", "store": "M2"},
        {"op": "validate", "target": "M2"},
        {"op": "twist-to-gamma", "target": "M1"},
    ])
    assert reports[1]["result"]["verdict"] == "not_nilpotent"
    assert reports[2]["result"]["module"]["relations"] == ["x"]
    assert reports[3]["result"]["valid"] is True
    assert reports[4]["result"]["gamma"]["matrix"] == [["1"]]


def test_check_2_14_and_friends():
    reports = run_ok([
        {"op": "check-2-14", "target": "N1", "immersion": "im1"},
        {"op": "dualizing", "immersion": "im1"},
        {"op": "transition", "f": ["x"], "g": ["x"]},
        {"op": "solutions", "target": "N1", "m": 2},
        {"op": "supported-on", "target": "Z", "ideal": ["x"]},
    ])
    assert reports[0]["result"]["equal"] is True
    assert reports[1]["result"]["module"]["kappa"] == {"0,0": "1"}
    assert reports[2]["result"]["det"] == "1"
    sols = reports[3]["result"]["solutions"]
    assert len(sols) == 4 and all(s["dim"] == 1 for s in sols)
    assert reports[4]["result"]["supported"] is True


def test_gen_dim_on_finite_context():
    data = base_session(ideal=["x"], commands=[{"op": "gen-dim",
                                                "target": "N1"}])
    del data["objects"]["im1"]  # x is not regular in the quotient's ambient use
    reports = run_session(data)
    assert reports[0]["status"] == "ok"
    assert reports[0]["result"]["dim"] == 1


def test_command_errors_are_structured():
    reports = run_session(base_session(commands=[
        {"op": "nilpotent", "target": "missing"},
        {"op": "definitely-not-an-op"},
        {"op": "gen-dim", "target": "N1"},  # infinite dimensional
        {"op": "validate", "target": "N1"},  # later commands still run
    ]))
    assert [r["status"] for r in reports] == ["error", "error", "error", "ok"]
    assert all("error" in r for r in reports[:3])


def test_artin_schreier_size_error_carries_message():
    # 6 and 12 have two prime divisors, 1 none
    qs = (1, 6, 12)
    reports = run_session(base_session(commands=[
        {"op": "as-kernel", "q": q} for q in qs]))
    for q, report in zip(qs, reports):
        assert report["status"] == "error"
        assert report["error"] == f"{q} is not a prime power"


def test_bad_bound_is_a_structured_error():
    for ideal in ([], ["x^2"]):
        data = base_session(ideal=ideal, commands=[
            {"op": "nilpotent", "target": "N1", "bound": bad}
            for bad in ("abc", 0, -3, True, 2.5)])
        reports = run_session(data)
        assert [r["status"] for r in reports] == ["error"] * 5
        assert reports[0]["error"] == ("argument 'bound' must be a positive "
                                       "integer, not 'abc'")
        assert reports[3]["error"].endswith("not True")
    # a Cartier target does not read the bound, but it is checked all the same
    reports = run_session(base_session(commands=[
        {"op": "nilpotent", "target": "Z", "bound": "abc"}]))
    assert reports[0]["status"] == "error"


def test_bad_q_is_a_structured_error():
    reports = run_session(base_session(commands=[
        {"op": "as-kernel", "q": "x"}, {"op": "as-kernel"},
        {"op": "as-kernel", "q": False}]))
    assert [r["error"] for r in reports] == [
        "argument 'q' must be a positive integer, not 'x'",
        "argument 'q' must be a positive integer, not None",
        "argument 'q' must be a positive integer, not False"]


def test_point_guard_fires_before_the_field_is_built():
    # GF(7^14) would need an exhaustive search for its modulus; 7^14
    # candidate points exceed the guard, which must be seen first
    start = time.perf_counter()
    reports = run_session(base_session(field={"p": 7}, objects={
        "N1": {"gamma": {"rank": 1, "matrix": [["1"]]}}}, commands=[
        {"op": "solutions", "target": "N1", "m": 14}]))
    assert time.perf_counter() - start < 1.0
    assert reports[0]["status"] == "error"
    assert reports[0]["error"] == (f"{7 ** 14} candidate points exceed the "
                                   f"guard 1000000")


def test_bad_m_is_a_structured_error():
    for bad in (-1, 0, "2"):
        with pytest.raises(SessionError, match=(
                f"object 'P': argument 'm' must be a positive integer, "
                f"not {bad!r}")):
            Session(base_session(objects={
                "P": {"point": {"m": bad, "coords": [[0]]}}}))
    reports = run_session(base_session(commands=[
        {"op": "solutions", "target": "N1", "m": bad} for bad in (-1, 0)]))
    assert [r["error"] for r in reports] == [
        f"argument 'm' must be a positive integer, not {bad}"
        for bad in (-1, 0)]


def test_point_object_guard_fires_before_the_field_is_built():
    start = time.perf_counter()
    with pytest.raises(SessionError, match=(
            f"object 'P': point field of size {7 ** 14} exceeds the guard "
            f"1000000")):
        Session(base_session(field={"p": 7}, objects={
            "P": {"point": {"m": 14, "coords": [[0]]}}}))
    assert time.perf_counter() - start < 1.0


def test_point_over_extension_base_needs_the_base_degree():
    # over GF(4) a point has coordinates in GF(4) itself, so m must be 2,
    # for a point object as for the solutions op
    gf4 = {"p": 2, "e": 2, "modulus": [1, 1, 1]}
    with pytest.raises(SessionError, match=(
            "object 'P': over an extension base field only points with "
            "coordinates in the base field are supported")):
        Session(base_session(field=gf4, objects={
            "P": {"point": {"m": 5, "coords": [[1, 1]]}}}))
    pt = Session(base_session(field=gf4, objects={
        "P": {"point": {"m": 2, "coords": [[1, 1]]}}})).objects["P"]
    assert pt.m == 2 and pt.spec.size == 4


def test_fractional_rank_is_rejected():
    # int() would load either object as rank 1
    for kind, body in (("gamma", {"rank": 1.7, "matrix": [["1"]]}),
                       ("module", {"rank": 1.7, "kappa": {}})):
        with pytest.raises(SessionError, match=(
                r"object 'N': argument 'rank' must be a positive integer, "
                r"not 1\.7")):
            Session(base_session(objects={"N": {kind: body}}))


def test_point_coords_must_be_a_list():
    def point(coords):
        return base_session(ring={"vars": ["x", "y"]}, objects={
            "P": {"point": {"m": 1, "coords": coords}}})

    pt = Session(point([[1], [0]])).objects["P"]
    assert pt.to_json()["coords"] == [[1], [0]]
    # the string "10" would load as the point (1, 0)
    for bad in ("10", ["1", "0"], [[1.0], [0]]):
        with pytest.raises(SessionError, match=(
                "object 'P': coords must be a list of lists of integers")):
            Session(point(bad))


def test_session_over_a_large_prime_loads_at_once():
    start = time.perf_counter()
    reports = run_session(base_session(
        field={"p": 2305843009213693951}, ring={"vars": ["x", "y"]},
        commands=[{"op": "gb", "polys": ["x^2 + 3*y", "x*y - 1"]}]))
    assert time.perf_counter() - start < 1.0
    assert reports[0]["status"] == "ok"
    assert "x^2 + 3*y" in reports[0]["result"]["basis"]


def test_gamma_over_a_large_prime_quotient_answers_at_once():
    # the relations are I e_0 only, so no relation is Frobenius-twisted to
    # exponents near p
    start = time.perf_counter()
    reports = run_session(base_session(
        field={"p": 2305843009213693951}, ring={"vars": ["x", "y"]},
        ideal=["x^2 + 3*y"],
        objects={"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
        commands=[{"op": "validate", "target": "N"},
                  {"op": "nilpotent", "target": "N"}]))
    assert time.perf_counter() - start < 1.0
    assert [r["result"] for r in reports] == [
        {"valid": True, "violations": []},
        {"verdict": "not_nilpotent_up_to", "bound": 16}]


def test_supported_on_a_rank_two_module():
    # M = P^2/<(x, y), (0, x)> is killed by x^2, so it lives on V(x) but not
    # on V(y)
    reports = run_ok([{"op": "supported-on", "target": "M", "ideal": [v]}
                      for v in ("x", "y")],
                     ring={"vars": ["x", "y"]},
                     objects={"M": {"module": {
                         "rank": 2, "relations": ["[x, y]", "[0, x]"],
                         "kappa": {"0,1 0": "[0, 1]", "1,0 1": "[0, 1]"}}}})
    assert [r["result"] for r in reports] == [{"supported": True},
                                              {"supported": False}]


@pytest.mark.parametrize("cmd,key", [
    ({"op": "gb", "polys": "xy"}, "polys"),
    ({"op": "supported-on", "target": "Z", "ideal": "x"}, "ideal"),
    ({"op": "twist-to-cartier", "target": "N1", "sequence": "xy"},
     "sequence"),
    ({"op": "transition", "f": "x", "g": ["x"]}, "f"),
    ({"op": "transition", "f": ["x"], "g": "x"}, "g"),
], ids=["gb", "supported-on", "twist-to-cartier", "transition-f",
        "transition-g"])
def test_bare_string_argument_is_a_structured_error(cmd, key):
    # split into characters, "xy" would be the sequence or ideal (x, y)
    reports = run_session(base_session(ring={"vars": ["x", "y"]},
                                       ideal=["x", "y"], commands=[cmd]))
    assert reports[0]["status"] == "error"
    assert reports[0]["error"] == (f"{key} must be a list of strings, "
                                   f"not {cmd[key]!r}")


def test_bad_verify_suite_arguments_are_structured_errors():
    reports = run_session(base_session(commands=[
        {"op": "verify-suite", "quick": True, "seed": "x"},
        {"op": "verify-suite", "quick": True, "seed": -1},
        {"op": "verify-suite", "quick": "false"}]))
    assert [r["error"] for r in reports] == [
        "argument 'seed' must be a non-negative integer, not 'x'",
        "argument 'seed' must be a non-negative integer, not -1",
        "argument 'quick' must be true or false, not 'false'"]


def test_reports_are_deterministic():
    cmds = [
        {"op": "twist-to-cartier", "target": "N1", "store": "M1"},
        {"op": "nilpotent", "target": "M1"},
        {"op": "solutions", "target": "N1", "m": 3},
    ]
    a = json.dumps(run_session(base_session(commands=cmds)), sort_keys=True)
    b = json.dumps(run_session(base_session(commands=cmds)), sort_keys=True)
    assert a == b


def test_serialize_round_trip():
    data = base_session()
    data["objects"]["M3"] = {"module": {
        "rank": 2,
        "relations": ["[x^2, 0]", "[0, x^2]"],
        "kappa": {"0,1": "[x, 0]", "1,1": "[0, x]"},
    }}
    s = Session(data)
    m = s.objects["M3"]
    blob = serialize_module(m)
    data2 = base_session()
    data2["objects"]["M3"] = {"module": blob}
    m2 = Session(data2).objects["M3"]
    assert m2.kappa_table == m.kappa_table
    assert m2.relations.generators == m.relations.generators
    n = s.objects["N1"]
    assert serialize_gamma(n)["matrix"] == [["1"]]


def test_printed_module_over_gf4_loads_back():
    # coefficients in the prime subfield print as bare integers, so the
    # twist of a GF(4) gamma-sheaf loads back as a module object: the table
    # once printed as (1)*x + (1), which the grammar refuses
    gf4 = {"p": 2, "e": 2, "modulus": [1, 1, 1]}
    objects = {"N": {"gamma": {"rank": 1, "matrix": [["x^3 + x^2 + 1"]]}}}
    first = run_session(base_session(field=gf4, objects=objects, commands=[
        {"op": "twist-to-cartier", "target": "N", "store": "M"},
        {"op": "nilpotent", "target": "M"}]))
    printed = first[0]["result"]["module"]
    assert printed["kappa"] == {"0,0": "x", "0,1": "x + 1"}
    second = run_session(base_session(
        field=gf4, objects={"M": {"module": printed}},
        commands=[{"op": "nilpotent", "target": "M"}]))
    assert second[0]["status"] == "ok"
    assert second[0]["result"] == first[1]["result"]
    # the grammar still has no way to write a coefficient outside GF(2)
    with pytest.raises(SessionError, match=r"object 'M': bad factor '\(a\)'"):
        Session(base_session(field=gf4, objects={
            "M": {"module": {"rank": 1, "kappa": {"0,1": "(a)*x"}}}}))


def test_verify_suite_op():
    reports = run_ok([{"op": "verify-suite", "quick": True, "seed": 3}])
    res = reports[0]["result"]
    assert res["failed"] == 0 and res["passed"] >= 4


def test_full_verify_battery_passes():
    results = run_verify(seed=0)
    assert len(results) == 8
    assert [r for r in results if not r["ok"]] == []


# ---------------------------------------------------------------------------
# CLI process-level behavior

def write_session(tmp_path, data):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    path = write_session(tmp_path, base_session(commands=[
        {"op": "nilpotent", "target": "Z"}]))
    code = main(["run", path])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    rec = json.loads(out[0])
    assert rec["status"] == "ok" and rec["result"]["verdict"] == "nilpotent"


def test_cli_exit_codes(tmp_path, capsys):
    # command error -> 1
    path = write_session(tmp_path, base_session(commands=[
        {"op": "nilpotent", "target": "nope"}]))
    assert main(["run", path]) == 1
    capsys.readouterr()
    # parse error -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()
    # schema error -> 2
    path = write_session(tmp_path, {"field": {"p": 2}})
    assert main(["run", path]) == 2
    capsys.readouterr()


def rejected(tmp_path, capsys, data, *flags) -> str:
    """The message of the one structured error record `frobkit run` prints
    for a session it cannot load, with exit code 2."""
    code = main(["run", write_session(tmp_path, data), *flags])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["status"] == "error" and rec["error"]
    return rec["error"]


def test_limit_spent_while_loading_is_rejected(tmp_path, capsys):
    data = base_session(ring={"vars": ["x", "y"]},
                        ideal=["x^2 + y", "y^2 + x", "x*y + 1"])
    msg = rejected(tmp_path, capsys, data, "--spair-budget", "1")
    assert "limit spent while loading" in msg


def test_object_body_must_be_an_object(tmp_path, capsys):
    data = base_session(objects={"P": {"point": 5}})
    assert "'P'" in rejected(tmp_path, capsys, data)


def test_unparsable_ideal_generator_is_rejected(tmp_path, capsys):
    assert "ideal" in rejected(tmp_path, capsys, base_session(ideal=["x+"]))


def test_wrong_container_types_are_rejected(tmp_path, capsys):
    assert "objects" in rejected(tmp_path, capsys, base_session(objects=[]))
    assert "ideal" in rejected(tmp_path, capsys, base_session(ideal=[3]))


def test_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["run", str(path)]) == 2
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "error" and "UTF-8" in rec["error"]


def test_bare_string_is_not_split_into_a_list(tmp_path, capsys):
    assert "ideal" in rejected(tmp_path, capsys, base_session(ideal="x"))
    data = base_session(ring={"vars": "xy"})
    assert "vars" in rejected(tmp_path, capsys, data)


def test_cli_out_file_and_byte_identical(tmp_path, capsys):
    data = base_session(commands=[
        {"op": "twist-to-cartier", "target": "N1"},
        {"op": "solutions", "target": "N1", "m": 2},
    ])
    path = write_session(tmp_path, data)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["run", path, "--out", str(out1)]) == 0
    assert main(["run", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_quick(capsys):
    assert main(["verify", "--quick", "--seed", "7"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(line)["ok"] for line in out)


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "frobkit.cli", "verify",
                           "--quick"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all passed" in proc.stderr


def test_load_session_file_errors(tmp_path):
    with pytest.raises(SessionError):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        load_session_file(str(p))


# ---------------------------------------------------------------------------
# keys and values outside the session schema

def test_non_string_kappa_value_is_rejected(tmp_path, capsys):
    # it used to escape as an AttributeError: a traceback and exit code 1
    data = base_session(objects={
        "M": {"module": {"rank": 1, "kappa": {"0,0": 5}}}})
    assert rejected(tmp_path, capsys, data) == (
        "object 'M': kappa must be a JSON object of strings, "
        "not {'0,0': 5}")


@pytest.mark.parametrize("field,message", [
    ({"p": 7.9}, "argument 'p' must be a positive integer, not 7.9"),
    ({"p": 2, "e": 2.5, "modulus": [1, 1, 1]},
     "argument 'e' must be a positive integer, not 2.5"),
    ({"p": 2, "e": 2, "modulus": [1.5, 1, 1]},
     "modulus must be a list of integers, not [1.5, 1, 1]"),
], ids=["p", "e", "modulus"])
def test_fractional_field_values_are_rejected(tmp_path, capsys, field,
                                              message):
    # int() loaded GF(7) for p = 7.9 and GF(4) for e = 2.5
    assert rejected(tmp_path, capsys, base_session(field=field)) == (
        f"bad field/ring specification: {message}")


def test_undeclared_keys_are_refused(tmp_path, capsys):
    # a misspelt "commands" ran nothing with exit code 0
    data = base_session()
    data["comands"] = [{"op": "gb"}]
    assert rejected(tmp_path, capsys, data) == (
        "undeclared key 'comands' in session")
    # a misspelt "bound" was ignored
    reports = run_session(base_session(commands=[
        {"op": "nilpotent", "target": "N1", "bnd": 3}]))
    assert reports[0]["error"] == "undeclared key 'bnd' in nilpotent"


def test_names_must_be_strings(tmp_path, capsys):
    # a list-valued op or target ended in "unhashable type: 'list'"
    msg = rejected(tmp_path, capsys, base_session(commands=[{"op": ["gb"]}]))
    assert msg.startswith("commands must be a list of JSON objects with a "
                          "string \"op\"")
    reports = run_session(base_session(commands=[
        {"op": "nilpotent", "target": ["N1"]}]))
    assert reports[0]["error"] == ("argument 'target' must be a string, "
                                   "not ['N1']")
    # the result was stored under the integer 7
    s = Session(base_session())
    with pytest.raises(SessionError, match="argument 'store' must be a "
                                           "string, not 7"):
        s.run_command({"op": "twist-to-cartier", "target": "N1", "store": 7})
    assert 7 not in s.objects


def test_missing_argument_is_named():
    # the message used to be the bare "'f'"
    reports = run_session(base_session(commands=[
        {"op": "transition", "g": ["x"]}]))
    assert reports[0]["error"] == "f must be a list of strings, not None"


def test_session_over_a_large_extension_field_loads_at_once():
    # the exhaustive irreducibility search would not end
    start = time.perf_counter()
    reports = run_session(base_session(
        field={"p": 10007, "e": 4, "modulus": [6311, 6890, 663, 4242, 1]},
        commands=[{"op": "gb", "polys": ["x^2 + x"]}]))
    assert time.perf_counter() - start < 1.0
    assert reports[0]["status"] == "ok"
