"""Self-test of the benchmark's oracles and checks.

    python3 benchmark/selftest.py

The independent class number must reproduce literature values, and each
workload's check must pass on the library's real result and report a
failure when one deliberately wrong result is fed to it, so that no check
is vacuous.  Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads as w  # noqa: E402
from cube_lab import composition, quadforms  # noqa: E402

FAILURES = []


def expect(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def caught(name: str, problems: list) -> None:
    expect(f"{name} is reported", bool(problems))


def passes(name: str, problems: list) -> None:
    expect(f"{name} passes", not problems)


def test_oracles():
    # class numbers of these discriminants as tabulated in the literature
    for D, h in ((-23, 3), (-47, 5), (-71, 7), (-163, 1), (-231, 12)):
        expect(f"h({D}) = {h}", oracles.class_number(D) == h)
    expect("6x^2 - xy + y^2 reduces to x^2 + xy + 6y^2", oracles.reduce_form(6, -1, 1) == (1, 1, 6))
    expect("hyperdet of the slice cube at s is 4s",
           oracles.cayley_hyperdet((5, 0, 0, 0, 0, 1, 1, 1)) == 20)
    expect("x^3 + x + 1 has no root mod 2 and one mod 3",
           oracles.cubic_root_count(1, 1, 2) == 0 and oracles.cubic_root_count(1, 1, 3) == 1)


def test_verify_check():
    expected = w.expected_check_names("all")
    lines = []
    for name in expected:
        detail = "ok"
        if name.startswith("class-group("):
            D = int(name[len("class-group("):-1])
            detail = f"h({D}) = {oracles.class_number(D)}; abelian group axioms hold"
        lines.append(f"PASS {name}  [{detail}]  (0.010s)")
    good = lines + [f"PASS: {len(expected)} checks, 0 failures"]
    passes("verify output", w.check_verify_output(0, "\n".join(good), expected)[0])
    caught("verify exit code 1", w.check_verify_output(1, "\n".join(good), expected)[0])
    bad = list(good)
    bad[3] = bad[3].replace("PASS", "FAIL", 1)
    caught("a FAIL line", w.check_verify_output(0, "\n".join(bad), expected)[0])
    bad = [ln.replace("h(-47) = 5", "h(-47) = 4") for ln in good]
    caught("a wrong class number", w.check_verify_output(0, "\n".join(bad), expected)[0])
    bad = good[:5] + good[6:]
    caught("a missing check", w.check_verify_output(0, "\n".join(bad), expected)[0])


def intercalate_swap(table, identity):
    """The table with one 2x2 subsquare (a b / b a) away from the identity
    swapped, and its transpose with it: still a symmetric Latin square with
    the same identity, but no longer a group table."""
    n = len(table)
    for i in range(n):
        for i2 in range(i + 1, n):
            for j in range(n):
                for j2 in range(j + 1, n):
                    cells = ((i, j), (i, j2), (i2, j), (i2, j2))
                    if identity in (i, i2, j, j2) or len({i, i2, j, j2}) < 4:
                        continue
                    a, b = table[i][j], table[i][j2]
                    if table[i2][j2] != a or table[i2][j] != b:
                        continue
                    bad = [list(row) for row in table]
                    for r, c in cells:
                        bad[r][c] = bad[c][r] = b if table[r][c] == a else a
                    return bad
    raise AssertionError("no 2x2 subsquare away from the identity")


def test_ladder_checks():
    D = -231  # class group Z/2 x Z/6, whose table has 2x2 subsquares
    group = quadforms.class_group(D)
    forms = [w._ints(f.coefficients()) for f in group.forms]
    table = [list(row) for row in group.table]
    n = len(forms)
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    passes("class group table", w.check_class_group(D, forms, group.identity, table, triples))
    caught("a missing form", w.check_class_group(D, forms[:-1], group.identity, table, triples))
    bad = [list(row) for row in table]
    bad[1][2], bad[1][3] = bad[1][3], bad[1][2]
    caught("a broken table row", w.check_class_group(D, forms, group.identity, bad, triples))
    bad = intercalate_swap(table, group.identity)
    expect("a symmetric Latin square that is not associative is reported",
           any("associative" in msg for msg in
               w.check_class_group(D, forms, group.identity, bad, triples)))

    i, j = 2, 5
    cube = composition.cube_from_forms(group.forms[i], group.forms[j])
    entries = w._ints(cube.entries())
    classes = [composition.form_class_index(f, group) for f in cube.forms()]
    args = (D, forms, group.identity, table, i, j)
    passes("cube composition", w.check_cube_composition(*args, entries, classes))
    bad = list(entries)
    bad[0] += 1
    caught("a wrong cube entry", w.check_cube_composition(*args, tuple(bad), classes))
    caught("a wrong class index",
           w.check_cube_composition(*args, entries, [classes[0], classes[1], (classes[2] + 1) % n]))
    swapped = (D, forms, group.identity, table, j, i) if i != j else args
    caught("forms composed in the wrong slots", w.check_cube_composition(*swapped, entries, classes))


def test_stream_check():
    rng = random.Random(1)
    for entries, triple, kind in w.make_stream(rng, 20):
        got = w.stream_results(*w.stream_pipeline(w.cube_json(entries), triple))
        passes(f"{kind} cube {entries}", w.check_stream_cube(entries, triple, kind, got))
        if kind == "GENERIC" and got["hyperdet"] != 0:
            for key, wrong in (("hyperdet", got["hyperdet"] + 1), ("class", "W"),
                               ("moved", tuple(x + 1 for x in got["moved"])),
                               ("round_trip", False)):
                caught(f"a wrong {key}", w.check_stream_cube(entries, triple, kind,
                                                            {**got, key: wrong}))
            break


def test_symbolic_ff_checks():
    generic = w.GenericCube()
    rng = random.Random(2)
    triple = tuple(oracles.sl2z_word(rng) for _ in range(3))
    point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for name in generic.names}
    got = w.symbolic_action(generic, triple)
    passes("symbolic action", w.check_symbolic(generic, triple, point, got))
    image = list(got["image"])
    image[0] = image[0] + 1
    caught("a wrong image entry", w.check_symbolic(generic, triple, point, {**got, "image": image}))
    caught("a nonzero difference",
           w.check_symbolic(generic, triple, point, {**got, "hyperdet_zero": False}))

    for oracle, p, args, expected in w.fibers((5,), (5,)):
        got = w.count_fiber(oracle, p, args)
        passes(f"{oracle} fiber {args} mod {p}", w.check_fiber(oracle, p, args, expected, got))
        caught(f"a wrong {oracle} count", w.check_fiber(oracle, p, args, expected, got + 1))


if __name__ == "__main__":
    test_oracles()
    test_verify_check()
    test_ladder_checks()
    test_stream_check()
    test_symbolic_ff_checks()
    print(f"{len(FAILURES)} failures" + (": " + ", ".join(FAILURES) if FAILURES else ""))
    sys.exit(1 if FAILURES else 0)
