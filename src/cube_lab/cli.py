"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (a library self-check failed; a bug, not a bad input).  All values
are exact rationals serialized as "p/q" strings; nothing is ever printed in
floating point.  Output is byte-for-byte deterministic given the same inputs
and seed (timings are opt-in via --timings).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import composition, orbits, variants
from .conventions import conventions_text
from .cubes import Cube, kostant_cube
from .errors import InputError, InternalError
from .quadforms import (
    SL2,
    _frac,
    _require_discriminant,
    class_group,
    compose_dirichlet,
    frac_to_str,
    is_equivalent,
    parse_form,
    reduce,
)
from .verify import SUPPORTED_PRIMES, run_suite

# The largest |D| the CLI builds class groups for; each is set from the
# discriminant of largest class number below it, timed on a 2-CPU Xeon VM
# with Python 3.11.  `forms classgroup` builds and prints one table
# (h^2/2 compositions): D = -289511, h = 963, 2.7 s.  `verify` also
# composes h^2 cubes and checks associativity (h^3 lookups) per
# discriminant: D = -4991, h = 92, 3.3 s.  The library is not capped.
CLASSGROUP_MAX_ABS_D = 300_000
VERIFY_MAX_ABS_D = 5_000


def _require_capped_discriminant(D: int, cap: int, verb: str) -> None:
    if abs(D) > cap:
        raise InputError(f"|D| = {abs(D)} is past {cap}, the largest |D| "
                         f"`{verb}` builds a class group for")
    _require_discriminant(D)


def _parse_csv_fractions(text: str, expected: int | None = None):
    parts = text.split(",")
    if expected is not None and len(parts) != expected:
        raise InputError(f"expected {expected} comma-separated values, got {len(parts)}")
    return [_frac(p) for p in parts]


def _parse_matrix(text: str) -> SL2:
    rows = text.split(";")
    if len(rows) != 2:
        raise InputError("matrix syntax is 'p,q;r,s'")
    top = _parse_csv_fractions(rows[0], 2)
    bottom = _parse_csv_fractions(rows[1], 2)
    return SL2(top[0], top[1], bottom[0], bottom[1])


def _read_cube(args) -> Cube:
    if getattr(args, "cube", None):
        return Cube.from_json(args.cube)
    data = sys.stdin.read()
    if not data.strip():
        raise InputError("no cube given: use --cube or pipe JSON on stdin")
    return Cube.from_json(data)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# -- cube verbs -----------------------------------------------------------------

def cmd_cube(args) -> int:
    sub = args.cube_cmd
    if sub == "kostant":
        print(kostant_cube(_frac(args.s)).to_json())
        return 0
    cube = _read_cube(args)
    if sub == "det":
        print(frac_to_str(cube.hyperdet()))
    elif sub == "gram-det":
        print(frac_to_str(cube.hyperdet_gram()))
    elif sub == "trace":
        print(frac_to_str(cube.trace_invariant()))
    elif sub == "forms":
        # all three lines are formatted before any is printed, so an input
        # error leaves no partial output
        print("\n".join(str(q) if args.pretty else q.to_json() for q in cube.forms()))
    elif sub == "slices":
        pairs = cube.slices()
        _emit({
            f"slice{i + 1}": {
                "M": [[frac_to_str(x) for x in row] for row in m],
                "N": [[frac_to_str(x) for x in row] for row in n],
            }
            for i, (m, n) in enumerate(pairs)
        })
    elif sub == "classify":
        k = orbits.classify(cube)
        _emit({"class": str(k), "dim": orbits.orbit_info(k).dimension})
    elif sub == "act":
        triple = (_parse_matrix(args.g1), _parse_matrix(args.g2), _parse_matrix(args.g3))
        print(cube.transformed(triple).to_json())
    else:
        raise InputError(f"unknown cube subcommand {sub!r}")
    return 0


# -- forms verbs ------------------------------------------------------------------

def cmd_forms(args) -> int:
    sub = args.forms_cmd
    if sub == "reduce":
        q = parse_form(args.form)
        red, g = reduce(q)
        _emit({
            "reduced": red.to_dict(),
            "witness": {k: frac_to_str(v) for k, v in
                        (("p", g.p), ("q", g.q), ("r", g.r), ("s", g.s))},
        })
    elif sub == "equivalent":
        print("true" if is_equivalent(parse_form(args.q1), parse_form(args.q2)) else "false")
    elif sub == "compose":
        out = compose_dirichlet(parse_form(args.q1), parse_form(args.q2))
        _emit(reduce(out)[0].to_dict())
    elif sub == "classgroup":
        _require_capped_discriminant(args.D, CLASSGROUP_MAX_ABS_D, "forms classgroup")
        table = class_group(args.D)
        _emit({
            "discriminant": table.D,
            "class_number": table.class_number,
            "forms": [f.to_dict() for f in table.forms],
            "identity": table.identity,
            "table": table.table,
        })
    else:
        raise InputError(f"unknown forms subcommand {sub!r}")
    return 0


def cmd_compose_cube(args) -> int:
    q1, q2 = parse_form(args.q1), parse_form(args.q2)
    if args.D is not None and q1.discriminant() != args.D:
        raise InputError(f"--q1 has discriminant {q1.discriminant()}, not {args.D}")
    if args.D is not None and q2.discriminant() != args.D:
        raise InputError(f"--q2 has discriminant {q2.discriminant()}, not {args.D}")
    cube = composition.cube_from_forms(q1, q2)
    _emit({
        "cube": cube.to_dict(),
        "third_form": cube.forms()[2].to_dict(),
        "composition_class": composition.composition_class(cube).to_dict(),
    })
    return 0


def cmd_verify_cube(args) -> int:
    cube = _read_cube(args)
    ok = composition.verify_triple_law(cube)
    _emit({
        "discriminant": frac_to_str(cube.hyperdet()),
        "forms": [q.to_dict() for q in cube.forms()],
        "triple_law": ok,
    })
    return 0 if ok else 1


# -- variants verbs -----------------------------------------------------------------

def cmd_variants(args) -> int:
    sub = args.variants_cmd
    if sub == "cubic-disc":
        f = variants.BinaryCubic(*_parse_csv_fractions(args.cubic, 4))
        print(frac_to_str(variants.cubic_disc(f)))
    elif sub == "resolvent":
        f = variants.BinaryCubic(*_parse_csv_fractions(args.cubic, 4))
        q = variants.resolvent(f)
        print(q.to_json() if args.json else str(q))
    elif sub == "quartic-ij":
        f = variants.BinaryQuartic(*_parse_csv_fractions(args.quartic, 5))
        i, j = variants.quartic_ij(f)
        _emit({"I": frac_to_str(i), "J": frac_to_str(j)})
    elif sub == "pair-disc":
        pair = variants.FormPair(*_parse_csv_fractions(args.pair, 6))
        print(frac_to_str(variants.pair_disc(pair)))
    elif sub == "gram-n":
        v1 = _parse_csv_fractions(args.v1)
        v2 = _parse_csv_fractions(args.v2)
        print(frac_to_str(variants.gram_invariant_n(args.n, v1, v2)))
    elif sub == "inv233":
        m = [_parse_csv_fractions(row, 3) for row in args.m.split(";")]
        n = [_parse_csv_fractions(row, 3) for row in args.n.split(";")]
        print(frac_to_str(variants.invariant_233(m, n)))
    elif sub == "spherical-check":
        print("true" if variants.spherical_diag_check(args.type, args.rank, args.j) else "false")
    elif sub == "components-check":
        ok = True
        for name, passed, residual in variants.component_containment_check():
            status = "PASS" if passed else "FAIL"
            print(f"{status} {name}" + (f"  [{residual}]" if residual else ""))
            ok = ok and passed
        return 0 if ok else 1
    else:
        raise InputError(f"unknown variants subcommand {sub!r}")
    return 0


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated integers, got {text!r}") from None


def cmd_verify(args) -> int:
    if args.conventions:
        print(conventions_text())
        return 0
    seed = args.seed
    env_seed = os.environ.get("CUBELAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InputError(f"CUBELAB_SEED must be an integer, got {env_seed!r}") from None
    discs = _parse_ints(args.discs, "--discs") if args.discs else None
    for d in discs or ():
        _require_capped_discriminant(d, VERIFY_MAX_ABS_D, "verify --discs")
    primes = _parse_ints(args.primes, "--primes") if args.primes else None
    for p in primes or ():
        if p not in SUPPORTED_PRIMES:
            raise InputError(f"--primes: {p} is not one of the supported primes "
                             f"{', '.join(map(str, SUPPORTED_PRIMES))}")
    report = run_suite(args.suite, seed=seed, discs=discs, primes=primes)
    for line in report.lines(timings=args.timings):
        print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cube-lab",
        description="Exact arithmetic for 2x2x2 cubes, binary quadratic forms, "
                    "and Gauss composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cube = sub.add_parser("cube", help="operations on a single cube")
    cube_sub = cube.add_subparsers(dest="cube_cmd", required=True)
    for name in ("det", "gram-det", "trace", "slices", "classify"):
        p = cube_sub.add_parser(name)
        p.add_argument("--cube", help="cube JSON (default: stdin)")
    p = cube_sub.add_parser("forms")
    p.add_argument("--cube", help="cube JSON (default: stdin)")
    p.add_argument("--pretty", action="store_true", help="print polynomial strings")
    p = cube_sub.add_parser("act")
    p.add_argument("--cube", help="cube JSON (default: stdin)")
    p.add_argument("--g1", required=True, help="matrix 'p,q;r,s'")
    p.add_argument("--g2", required=True, help="matrix 'p,q;r,s'")
    p.add_argument("--g3", required=True, help="matrix 'p,q;r,s'")
    p = cube_sub.add_parser("kostant")
    p.add_argument("--s", required=True, help="slice parameter (rational)")
    cube.set_defaults(fn=cmd_cube)

    forms = sub.add_parser("forms", help="binary quadratic form operations")
    forms_sub = forms.add_subparsers(dest="forms_cmd", required=True)
    p = forms_sub.add_parser("reduce")
    p.add_argument("--form", required=True, help="form as 'a,b,c' or JSON")
    p = forms_sub.add_parser("equivalent")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p = forms_sub.add_parser("compose")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p = forms_sub.add_parser("classgroup")
    p.add_argument("-D", type=int, required=True, help="negative discriminant")
    forms.set_defaults(fn=cmd_forms)

    cc = sub.add_parser("compose-cube", help="compose two forms through a cube")
    cc.add_argument("--q1", required=True)
    cc.add_argument("--q2", required=True)
    cc.add_argument("-D", type=int, default=None, help="expected discriminant")
    cc.set_defaults(fn=cmd_compose_cube)

    vc = sub.add_parser("verify-cube", help="triple product law for one cube")
    vc.add_argument("--cube", help="cube JSON (default: stdin)")
    vc.set_defaults(fn=cmd_verify_cube)

    var = sub.add_parser("variants", help="cubics, quartics, pairs, and friends")
    var_sub = var.add_subparsers(dest="variants_cmd", required=True)
    p = var_sub.add_parser("cubic-disc")
    p.add_argument("--cubic", required=True, help="binomial coefficients 'a,b,c,d'")
    p = var_sub.add_parser("resolvent")
    p.add_argument("--cubic", required=True, help="binomial coefficients 'a,b,c,d'")
    p.add_argument("--json", action="store_true")
    p = var_sub.add_parser("quartic-ij")
    p.add_argument("--quartic", required=True, help="binomial coefficients 'a,b,c,d,e'")
    p = var_sub.add_parser("pair-disc")
    p.add_argument("--pair", required=True, help="coefficients 'a,b,c,d,e,f'")
    p = var_sub.add_parser("gram-n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v1", required=True, help="comma-separated components")
    p.add_argument("--v2", required=True, help="comma-separated components")
    p = var_sub.add_parser("inv233")
    p.add_argument("--m", required=True, help="3x3 matrix 'a,b,c;d,e,f;g,h,i'")
    p.add_argument("--n", required=True, help="3x3 matrix 'a,b,c;d,e,f;g,h,i'")
    p = var_sub.add_parser("spherical-check")
    p.add_argument("--type", required=True, help="simple type letter A..G")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    var_sub.add_parser("components-check")
    var.set_defaults(fn=cmd_variants)

    ver = sub.add_parser("verify", help="run the identity and oracle suite")
    ver.add_argument("--suite", default="all",
                     choices=("symbolic", "orbits", "composition", "ff", "all"))
    ver.add_argument("--seed", type=int, default=2024)
    ver.add_argument("--discs", "-D", help="comma-separated negative discriminants")
    ver.add_argument("--primes", help="comma-separated primes from 3, 5, 7, 11, 13")
    ver.add_argument("--timings", action="store_true", help="append elapsed times")
    ver.add_argument("--conventions", action="store_true",
                     help="print the frozen conventions and exit")
    ver.set_defaults(fn=cmd_verify)

    return parser


def _merge_negative_values(argv):
    """Merge a value that starts with a minus sign and a digit (a negative
    rational, discriminant or matrix) into the option before it, as
    --flag=value, so argparse does not read it as an option.  A flag that
    takes no value then fails to parse, as it should."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("-") and "=" not in out[-1]
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # str(int) refuses integers past sys.get_int_max_str_digits(); the
        # limit stays, as it also keeps huge numerals from parsing in quadratic time
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a result has more than {sys.get_int_max_str_digits()} digits, "
              "the limit for printing an integer", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
