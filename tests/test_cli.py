import json
import sys

import pytest

from cube_lab import composition, verify
from cube_lab.cli import CLASSGROUP_MAX_ABS_D, VERIFY_MAX_ABS_D, main
from cube_lab.errors import InternalError
from cube_lab.quadforms import class_group

KOSTANT_1 = '{"a":"1","b":["0","0","0"],"c":"0","d":["1","1","1"]}'
GHZ_JSON = '{"a":"1","b":["0","0","0"],"c":"1","d":["0","0","0"]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cube_det(capsys):
    code, out, _ = run(capsys, "cube", "det", "--cube", GHZ_JSON)
    assert code == 0 and out.strip() == "1"


def test_cube_det_fraction(capsys):
    code, out, _ = run(capsys, "cube", "det",
                       "--cube", '{"a":"1/2","b":["0","0","0"],"c":"0","d":["1","1","1"]}')
    assert code == 0 and out.strip() == "2"


def test_cube_classify_w_state(capsys):
    code, out, _ = run(capsys, "cube", "classify",
                       "--cube", '{"a":"0","b":["0","0","0"],"c":"0","d":["1","1","1"]}')
    assert code == 0
    assert json.loads(out) == {"class": "W", "dim": 7}


def test_cube_forms_pretty(capsys):
    code, out, _ = run(capsys, "cube", "forms", "--pretty",
                       "--cube", '{"a":"4","b":["0","0","0"],"c":"0","d":["1","1","1"]}')
    assert code == 0
    assert out.splitlines() == ["4x^2 - y^2"] * 3


def test_cube_forms_json_round_trip(capsys):
    code, out, _ = run(capsys, "cube", "forms", "--cube", KOSTANT_1)
    assert code == 0
    for line in out.splitlines():
        data = json.loads(line)
        assert set(data) == {"a", "b", "c"}


def test_cube_kostant_emits_valid_cube(capsys):
    code, out, _ = run(capsys, "cube", "kostant", "--s", "1")
    assert code == 0
    assert json.loads(out) == json.loads(KOSTANT_1)
    code, out2, _ = run(capsys, "cube", "det", "--cube", out.strip())
    assert code == 0 and out2.strip() == "4"


def test_cube_act(capsys):
    code, out, _ = run(capsys, "cube", "act", "--cube", GHZ_JSON,
                       "--g1", "0,1;-1,0", "--g2", "1,0;0,1", "--g3", "1,0;0,1")
    assert code == 0
    data = json.loads(out)
    assert data == {"a": "0", "b": ["1", "0", "0"], "c": "0", "d": ["-1", "0", "0"]}


def test_cube_slices(capsys):
    code, out, _ = run(capsys, "cube", "slices", "--cube", KOSTANT_1)
    assert code == 0
    data = json.loads(out)
    assert data["slice1"]["M"] == [["1", "0"], ["0", "1"]]
    assert data["slice1"]["N"] == [["0", "1"], ["1", "0"]]


def test_forms_reduce(capsys):
    code, out, _ = run(capsys, "forms", "reduce", "--form", "6,-1,1")
    assert code == 0
    assert json.loads(out)["reduced"] == {"a": "1", "b": "1", "c": "6"}


def test_forms_equivalent(capsys):
    code, out, _ = run(capsys, "forms", "equivalent", "--q1", "2,1,3", "--q2", "2,-1,3")
    assert code == 0 and out.strip() == "false"


def test_forms_compose(capsys):
    code, out, _ = run(capsys, "forms", "compose", "--q1", "2,1,3", "--q2", "2,1,3")
    assert code == 0
    assert json.loads(out) == {"a": "2", "b": "-1", "c": "3"}


def test_forms_classgroup(capsys):
    code, out, _ = run(capsys, "forms", "classgroup", "-D", "-23")
    assert code == 0
    data = json.loads(out)
    assert data["class_number"] == 3
    assert data["forms"][data["identity"]] == {"a": "1", "b": "1", "c": "6"}


def test_forms_classgroup_past_the_cap_exits_2(capsys, monkeypatch):
    # the smallest discriminant past the cap, and one that used to hang
    seen = []
    monkeypatch.setattr("cube_lab.cli.class_group", seen.append)
    for d in (-(CLASSGROUP_MAX_ABS_D + 3), -100000000000):
        assert d % 4 in (0, 1)
        code, out, err = run(capsys, "forms", "classgroup", "-D", str(d))
        assert code == 2 and out == ""
        assert f"is past {CLASSGROUP_MAX_ABS_D}" in err
    assert seen == []


def test_forms_classgroup_at_the_cap_reaches_the_library(capsys, monkeypatch):
    seen = []

    def small_group(d):
        seen.append(d)
        return class_group(-23)

    monkeypatch.setattr("cube_lab.cli.class_group", small_group)
    code, _, _ = run(capsys, "forms", "classgroup", "-D", str(-CLASSGROUP_MAX_ABS_D))
    assert code == 0 and seen == [-CLASSGROUP_MAX_ABS_D]


def test_compose_cube(capsys):
    code, out, _ = run(capsys, "compose-cube", "--q1", "2,1,3", "--q2", "2,1,3", "-D", "-23")
    assert code == 0
    data = json.loads(out)
    assert data["composition_class"] == {"a": "2", "b": "-1", "c": "3"}
    # the emitted cube is accepted back and passes the triple law
    code, out2, _ = run(capsys, "verify-cube", "--cube", json.dumps(data["cube"]))
    assert code == 0
    assert json.loads(out2)["triple_law"] is True


def test_compose_cube_builds_the_cube_once(capsys, monkeypatch):
    calls = []
    build = composition.cube_from_forms

    def counting(q1, q2):
        calls.append((q1, q2))
        return build(q1, q2)

    monkeypatch.setattr(composition, "cube_from_forms", counting)
    code, out, _ = run(capsys, "compose-cube", "--q1", "2,1,3", "--q2", "3,1,2", "-D", "-23")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["composition_class"] == {"a": "1", "b": "1", "c": "6"}


def test_variants_resolvent(capsys):
    code, out, _ = run(capsys, "variants", "resolvent", "--cubic", "-1/4,0,1,0")
    assert code == 0 and out.strip() == "-1/4x^2 - y^2"


def test_variants_cubic_disc(capsys):
    code, out, _ = run(capsys, "variants", "cubic-disc", "--cubic", "-1/4,0,1,0")
    assert code == 0 and out.strip() == "-1"


def test_variants_quartic_ij(capsys):
    code, out, _ = run(capsys, "variants", "quartic-ij", "--quartic", "0,1,0,3/4,5")
    assert code == 0
    assert json.loads(out) == {"I": "-3", "J": "-5"}


def test_variants_pair_disc(capsys):
    code, out, _ = run(capsys, "variants", "pair-disc", "--pair", "3,0,1,0,1,0")
    assert code == 0 and out.strip() == "12"


def test_variants_gram_inv233_spherical(capsys):
    code, out, _ = run(capsys, "variants", "gram-n", "--n", "8",
                       "--v1", "5,1,0,0,0,0,0,0", "--v2", "0,0,1,1,1,1,1,1")
    assert code == 0 and out.strip() == "60"
    code, out, _ = run(capsys, "variants", "inv233",
                       "--m", "1,0,0;0,1,0;0,0,1", "--n", "0,0,0;0,1,0;0,0,2")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "variants", "spherical-check",
                       "--type", "A", "--rank", "1", "--j", "3")
    assert code == 0 and out.strip() == "true"


def test_variants_components(capsys):
    code, out, _ = run(capsys, "variants", "components-check")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_malformed_input_exits_2(capsys):
    code, _, err = run(capsys, "cube", "det", "--cube", "not json")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "forms", "compose", "--q1", "1,1,6", "--q2", "1,0,1")
    assert code == 2


def test_json_float_entry_exits_2(capsys):
    # a JSON float would otherwise become a dyadic rational (1.5 -> 3/2)
    code, out, err = run(capsys, "cube", "det",
                         "--cube", '{"a":1.5,"b":["0","0","0"],"c":"1","d":["0","0","0"]}')
    assert code == 2 and out == "" and "error:" in err


def test_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "cube", "det",
                         "--cube", '{"a":"1/0","b":["0","0","0"],"c":"1","d":["0","0","0"]}')
    assert code == 2 and out == "" and "error:" in err


def test_non_numeric_form_coefficient_exits_2(capsys):
    code, out, err = run(capsys, "forms", "reduce", "--form", "1,x,3")
    assert code == 2 and out == "" and "error:" in err


def test_json_bool_entry_exits_2(capsys):
    # bool is an int in Python; a JSON true must not be read as the rational 1
    code, out, err = run(capsys, "cube", "det",
                         "--cube", '{"a":true,"b":["0","0","0"],"c":"1","d":["0","0","0"]}')
    assert code == 2 and out == "" and "error:" in err


def test_cube_json_string_slots_exit_2(capsys):
    # a three-character string is not a list of three entries
    code, out, err = run(capsys, "cube", "det",
                         "--cube", '{"a":"1","b":"000","c":"1","d":"000"}')
    assert code == 2 and out == "" and "error:" in err


def test_exponent_notation_exits_2(capsys):
    # Fraction("1e99999999") would spend minutes expanding the power of ten
    code, out, err = run(capsys, "cube", "det",
                         "--cube", '{"a":"1e5","b":["0","0","0"],"c":"1","d":["0","0","0"]}')
    assert code == 2 and out == "" and "error:" in err
    code, out, _ = run(capsys, "cube", "det",
                       "--cube", '{"a":"1.5","b":["0","0","0"],"c":"1","d":["0","0","0"]}')
    assert code == 0 and out.strip() == "9/4"


def test_deeply_nested_json_exits_2(capsys):
    # json.loads raises RecursionError, not ValueError, past its nesting depth
    code, out, err = run(capsys, "cube", "det", "--cube", "[" * 100000)
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run(capsys, "forms", "reduce", "--form", '{"a":' + "[" * 100000)
    assert code == 2 and out == "" and "error:" in err


def _huge_ac_cube(digits):
    big = "1" + "0" * digits
    return json.dumps({"a": big, "b": ["0", "0", "0"], "c": big, "d": ["0", "0", "0"]})


def test_result_past_digit_limit_exits_2(capsys):
    # the hyperdet a^2 c^2 has 6001 digits, past the limit for str(int)
    limit = str(sys.get_int_max_str_digits())
    code, out, err = run(capsys, "cube", "det", "--cube", _huge_ac_cube(1500))
    assert code == 2 and out == ""
    assert err.startswith("error:") and limit in err and "Traceback" not in err


def test_forms_past_digit_limit_exits_2(capsys):
    # the middle coefficient ac has 6001 digits; JSON and --pretty both print it
    limit = str(sys.get_int_max_str_digits())
    big = "1" + "0" * 3000
    # first form (0, 0, 0), second form (0, 0, b2 c): no partial output either
    second_only = json.dumps({"a": "0", "b": ["0", big, "0"], "c": big, "d": ["0", "0", "0"]})
    for cube in (_huge_ac_cube(3000), second_only):
        for extra in ((), ("--pretty",)):
            code, out, err = run(capsys, "cube", "forms", *extra, "--cube", cube)
            assert code == 2 and out == ""
            assert err.startswith("error:") and limit in err and "Traceback" not in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(q1, q2):
        raise InternalError("triple product is not integral")

    monkeypatch.setattr(composition, "cube_from_forms", broken)
    code, out, err = run(capsys, "compose-cube", "--q1", "2,1,3", "--q2", "2,1,3")
    assert code == 3 and out == ""
    assert err == "internal error: triple product is not integral\n"
    assert "Traceback" not in err


def test_verify_composite_prime_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "ff", "--primes", "4")
    assert code == 2 and out == "" and "error:" in err


def test_verify_unsupported_prime_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "ff", "--primes", "3,2")
    assert code == 2 and out == "" and "error:" in err


def test_verify_negative_prime_reaches_the_primes_check(capsys):
    # "-3,5" is the value of --primes, not an option
    code, out, err = run(capsys, "verify", "--suite", "ff", "--primes", "-3,5")
    assert code == 2 and out == "" and "--primes: -3" in err


def test_valueless_flag_followed_by_negative_number_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--timings", "-3"])
    assert exc.value.code == 2


def test_empty_comma_fields_exit_2(capsys):
    for argv in (("variants", "cubic-disc", "--cubic", "1,,2,3,4"),
                 ("variants", "cubic-disc", "--cubic", ",1,2,3,4,"),
                 ("cube", "act", "--cube", GHZ_JSON, "--g1", "1,0,;0,1",
                  "--g2", "1,0;0,1", "--g3", "1,0;0,1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, argv


def test_determinant_error_prints_plain_rationals(capsys):
    code, out, err = run(capsys, "cube", "act", "--cube", GHZ_JSON,
                         "--g1", "2,0;0,1", "--g2", "1,0;0,1", "--g3", "1,0;0,1")
    assert code == 2 and out == ""
    assert "Fraction(" not in err and "(2, 0; 0, 1)" in err


def test_verify_non_integer_discriminant_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "composition", "--discs", "x")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run(capsys, "verify", "--suite", "composition", "--discs", "-23,5")
    assert code == 2 and out == "" and "error:" in err


def test_verify_discriminant_past_the_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("cube_lab.cli.run_suite", lambda *args, **kwargs: verify.Report())
    past = -(VERIFY_MAX_ABS_D + 3)
    assert past % 4 == 1
    code, out, err = run(capsys, "verify", "--suite", "composition", "--discs", f"-23,{past}")
    assert code == 2 and out == "" and f"is past {VERIFY_MAX_ABS_D}" in err
    code, out, _ = run(capsys, "verify", "--suite", "composition",
                       "--discs", f"-23,{-VERIFY_MAX_ABS_D}")
    assert code == 0


def test_verify_records_unexpected_exception_as_error(capsys, monkeypatch):
    def broken():
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(verify, "check_orbit_representatives", broken)
    code, out, err = run(capsys, "verify", "--suite", "orbits")
    lines = out.splitlines()
    assert lines[0] == "ERROR orbit-representatives  [ZeroDivisionError: division by zero]"
    assert lines[1].startswith("PASS orbit-invariance")
    assert lines[-1] == "FAIL: 4 checks, 1 failures"
    assert code == 1 and "Traceback" not in err


def test_verify_symbolic_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "symbolic", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "symbolic", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1 and "FAIL:" not in out1.splitlines()[-1]


def test_verify_orbits_seeded(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "orbits", "--seed", "3")
    code2, out2, _ = run(capsys, "verify", "--suite", "orbits", "--seed", "3")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_env_seed_overrides(capsys, monkeypatch):
    monkeypatch.setenv("CUBELAB_SEED", "99")
    code1, out1, _ = run(capsys, "verify", "--suite", "orbits", "--seed", "3")
    monkeypatch.setenv("CUBELAB_SEED", "99")
    code2, out2, _ = run(capsys, "verify", "--suite", "orbits", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2  # same env seed wins over differing --seed
    monkeypatch.setenv("CUBELAB_SEED", "notanint")
    code3, _, err = run(capsys, "verify", "--suite", "orbits")
    assert code3 == 2


def test_verify_composition_single_disc(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "composition", "--discs", "-23")
    assert code == 0
    assert "cube-vs-dirichlet(-23)" in out


def test_verify_ff_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ff", "--primes", "3,5")
    assert code == 0
    assert "stabilizer-counts(F_5)" in out


def test_verify_conventions(capsys):
    code, out, _ = run(capsys, "verify", "--conventions")
    assert code == 0
    assert "Gram" in out and "row" in out
