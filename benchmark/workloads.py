"""The four workloads: their inputs, the timed calls into cube-lab, and the
checks of every result.

Each workload is a loop of whole rounds.  A round calls the library through
its public functions (or its CLI), timing only those calls, and then checks
every result against `oracles` or a property the mathematics requires.  The
check functions take the library's results as plain arguments, so the
self-test can feed them a wrong result and see it caught.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracles
from cube_lab import centralizers, composition, cubes, orbits, quadforms, variants, verify
from cube_lab.ring import LaurentRing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

clock = time.perf_counter


@dataclass
class Tally:
    """Operations attempted and failed; a failed operation is one that
    raised or whose check found a wrong result."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])


def _error(exc: Exception) -> list:
    return [f"raised {type(exc).__name__}: {exc}"]


# -- host speed ----------------------------------------------------------------
#
# The host's speed switches between regimes every few seconds, by a third or
# more (measured on a shared 2-CPU VM): a fixed Fraction loop took 8.5 ms in
# some 5 s windows and 14.6 ms in others, and the library slows with it.
# Within one regime the loop's time is steady (half of all consecutive
# slices agree within 5 percent), so the median of three short slices, taken
# right after a stretch of timed work, gives the speed that work ran at.
# Every timed stretch of at most CHUNK_S is scaled by such a sample to a
# host on which one slice takes REFERENCE_S, and all times and rates the
# benchmark reports are in that host's seconds.  The loop uses no cube-lab
# code, so a change to the library cannot move it.

REFERENCE_S = 0.005
CHUNK_S = 0.2


def _reference_slice():
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i % 5 + 2)
    return s


def host_speed() -> float:
    """REFERENCE_S over the median time of three slices: above 1 on a
    faster host."""
    times = []
    for _ in range(3):
        start = clock()
        _reference_slice()
        times.append(clock() - start)
    return REFERENCE_S / statistics.median(times)


class Meter:
    """Timed work in reference seconds: each stretch of up to CHUNK_S is
    scaled by the host's speed sampled right after it."""

    def __init__(self):
        self.pending = 0.0
        self.seconds = 0.0

    def add(self, elapsed: float) -> None:
        self.pending += elapsed
        if self.pending >= CHUNK_S:
            self.flush()

    def flush(self) -> float:
        if self.pending:
            self.seconds += self.pending * host_speed()
            self.pending = 0.0
        return self.seconds


# -- processes ---------------------------------------------------------------

@dataclass
class Process:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float  # running time, the pauses for speed samples left out
    reference_s: float  # the same in reference seconds
    peak_rss_mb: float


def child_env() -> dict:
    """The caller's environment with src/ on the path and no seed override."""
    env = dict(os.environ)
    env.pop("CUBELAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(args, sampled: bool = True) -> Process:
    """Run `python3 args...` from the checkout root and wait for it.

    When `sampled`, every CHUNK_S the child is stopped (SIGSTOP) while one
    slice of the reference loop samples the host's speed, then continued;
    its running time, pauses left out, is scaled chunk by chunk.  Peak
    resident memory is the child's own.
    """
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        out, err = [], []
        readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
                   threading.Thread(target=lambda: err.append(proc.stderr.read()))]
        for reader in readers:
            reader.start()
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            wall = reference = 0.0
            resumed = clock()
            while True:
                exited = poller.poll(int(CHUNK_S * 1000) if sampled else None)
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, 0 if exited else os.WUNTRACED)
                ran = clock() - resumed
                wall += ran
                reference += ran * host_speed()
                if not os.WIFSTOPPED(status):
                    break
                os.kill(proc.pid, signal.SIGCONT)
                resumed = clock()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(pidfd)
            if proc.returncode is None:
                proc.kill()
                os.kill(proc.pid, signal.SIGCONT)
        for reader in readers:
            reader.join()
    return Process(proc.returncode, out[0], err[0], wall, reference, usage.ru_maxrss / 1024)


def measure_setup(tally: Tally, repeats: int = 9) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    cube_lab.cli.  One unmeasured start first writes the bytecode caches."""
    times = []
    for i in range(repeats + 1):
        proc = run_process(["-c", "import cube_lab.cli"])
        tally.record([] if proc.returncode == 0 else [f"import failed: {proc.stderr[-300:]}"])
        if i:
            times.append(proc.reference_s)
    return statistics.median(times)


# -- verify-default ----------------------------------------------------------

ORBIT_CHECKS = ("orbit-representatives", "orbit-invariance", "generic-iff-nonzero-det",
                "closure-order")
LINE = re.compile(r"^(\w+) (\S+)(?:  \[(.*)\])?  \((\d+\.\d+)s\)$")
CLASS_NUMBER = re.compile(r"^h\((-\d+)\) = (\d+);")


def expected_check_names(suite: str) -> list:
    """Check names of `cube-lab verify --suite <suite>` at its default
    discriminants and primes, by the suite's definition in cube_lab.verify."""
    discs, primes = verify.DEFAULT_DISCRIMINANTS, verify.DEFAULT_PRIMES
    names = []
    if suite in ("symbolic", "all"):
        names += [name for name, _ in verify.SYMBOLIC_CHECKS]
    if suite in ("orbits", "all"):
        names += ORBIT_CHECKS
    if suite in ("composition", "all"):
        for d in discs:
            names += [f"class-group({d})", f"cube-vs-dirichlet({d})", f"ideal-round-trip({d})"]
        names += ["composition-on-classes", "triple-law-random"]
    if suite in ("ff", "all"):
        for p in primes:
            names += [f"stabilizer-counts(F_{p})", f"j-torsion(F_{p})"]
            if p != 3:
                names.append(f"cubic-stabilizers(F_{p})")
        names += [f"quartic-2-torsion(F_{p})" for p in primes if 3 < p <= 11]
    return names


def check_verify_output(returncode: int, stdout: str, expected: list):
    """Problems with one `verify --timings` run, and its per-check times."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = stdout.splitlines()
    times = {}
    names = []
    for line in lines[:-1]:
        m = LINE.match(line)
        if not m:
            problems.append(f"unparsed line {line!r}")
            continue
        status, name, detail, elapsed = m.groups()
        names.append(name)
        times[name] = float(elapsed)
        if status != "PASS":
            problems.append(f"{name}: {status} [{detail}]")
        h = CLASS_NUMBER.match(detail or "")
        if name.startswith("class-group("):
            if not h:
                problems.append(f"{name}: no class number in [{detail}]")
            elif int(h.group(2)) != oracles.class_number(int(h.group(1))):
                problems.append(f"{name}: printed h = {h.group(2)}, "
                                f"independent count {oracles.class_number(int(h.group(1)))}")
    if names != list(expected):
        problems.append(f"checks {names} differ from the suite's {list(expected)}")
    summary = f"PASS: {len(expected)} checks, 0 failures"
    if not lines or lines[-1] != summary:
        problems.append(f"summary {lines[-1] if lines else ''!r} is not {summary!r}")
    return problems, times


def verify_round(tally: Tally, suite: str = "all", traced: bool = False) -> dict:
    """One `cube-lab verify --timings` process at the default seed."""
    args = [str(BENCH_DIR / "traced_cli.py")] if traced else ["-m", "cube_lab.cli"]
    args += ["verify", "--timings"] + ([] if suite == "all" else ["--suite", suite])
    # the CLI's own per-check times count pauses, so a traced run, which
    # reports them, is not paused
    proc = run_process(args, sampled=not traced)
    problems, times = check_verify_output(proc.returncode, proc.stdout,
                                          expected_check_names(suite))
    tally.record(problems)
    return {"proc": proc, "times": times}


# per-check times of `verify --timings`: metric name -> check name prefix
VERIFY_CHECK_GROUPS = {
    "verify.orbit-invariance.s": "orbit-invariance",
    "verify.cube-vs-dirichlet.s": "cube-vs-dirichlet(",
    "verify.triple-law-random.s": "triple-law-random",
    "verify.quartic-2-torsion.s": "quartic-2-torsion(",
}
VERIFY_LAYERS = ("verify.symbolic.s", *VERIFY_CHECK_GROUPS, "cli.overhead_s")


def verify_layer_metrics(result: dict) -> dict:
    """Per-check times the CLI printed, grouped, and the CLI's own overhead:
    its wall time less the sum of the printed per-check times."""
    times = result["times"]
    symbolic = {name for name, _ in verify.SYMBOLIC_CHECKS}
    out = {"verify.symbolic.s": (sum(t for n, t in times.items() if n in symbolic), "s")}
    for metric, prefix in VERIFY_CHECK_GROUPS.items():
        out[metric] = (sum(t for n, t in times.items() if n.startswith(prefix)), "s")
    out["cli.overhead_s"] = (result["proc"].wall_s - sum(times.values()), "s")
    return out


# -- composition-ladder ------------------------------------------------------

LADDER = (10, 20, 40, 80)  # class numbers of the rungs of one ladder


class Discriminants:
    """Hands out negative discriminants with a given class number, never the
    same one twice, starting each search at a seeded point near h^2."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def take(self, h: int) -> int:
        D = -self.rng.randint(h * h, 3 * h * h // 2)
        while D in self.used or D % 4 not in (0, 1) or oracles.class_number(D) != h:
            D -= 1
        self.used.add(D)
        return D


def _ints(values):
    out = []
    for v in values:
        if Fraction(v).denominator != 1:
            raise ValueError(f"{v} is not an integer")
        out.append(int(v))
    return tuple(out)


def check_class_group(D: int, forms, identity: int, table, triples) -> list:
    """The table of class_group(D): its forms are the independently counted
    reduced forms, and it is a symmetric Latin square, with the principal
    form as identity, associative on the given index triples."""
    own = oracles.reduced_forms(D)
    if len(forms) != len(own) or set(forms) != set(own):
        return [f"D = {D}: {len(forms)} forms, independent count {len(own)}"]
    n = len(forms)
    problems = []
    if forms[identity] != oracles.principal_form(D):
        problems.append(f"D = {D}: identity {forms[identity]} is not principal")
    if len(table) != n or any(sorted(row) != list(range(n)) for row in table):
        problems.append(f"D = {D}: table is not a Latin square")
    elif any(table[i][j] != table[j][i] for i in range(n) for j in range(i)):
        problems.append(f"D = {D}: table is not symmetric")
    elif table[identity] != list(range(n)):
        problems.append(f"D = {D}: identity row is not the identity")
    elif any(table[table[i][j]][k] != table[i][table[j][k]] for i, j, k in triples):
        problems.append(f"D = {D}: composition is not associative")
    return problems


def check_cube_composition(D, forms, identity, table, i, j, entries, classes) -> list:
    """A cube from cube_from_forms(forms[i], forms[j]) and the class indices
    the library gave its three slicing forms."""
    if oracles.cayley_hyperdet(entries) != D:
        return [f"D = {D}: cube {entries} has hyperdeterminant "
                f"{oracles.cayley_hyperdet(entries)}"]
    f1, f2, (p, m, r) = oracles.slicing_forms(entries)
    problems = []
    if oracles.reduce_form(*f1) != forms[i] or oracles.reduce_form(*f2) != forms[j]:
        problems.append(f"D = {D}: slicing forms {f1}, {f2} do not reduce to "
                        f"{forms[i]}, {forms[j]}")
    if p >= 0:
        return problems + [f"D = {D}: third form {(p, m, r)} is not negative definite"]
    third = oracles.reduce_form(-p, m, -r)
    if third not in forms:
        return problems + [f"D = {D}: third form reduces to {third}, not a class of D"]
    k = forms.index(third)
    if table[table[i][j]][k] != identity:
        problems.append(f"D = {D}: [q1][q2][q3] is not the identity")
    if tuple(classes) != (i, j, k):
        problems.append(f"D = {D}: form_class_index gave {classes}, expected {(i, j, k)}")
    return problems


def ladder_round(rng: random.Random, source: Discriminants, tally: Tally,
                 rungs=LADDER, pairs: int = 24) -> dict:
    """Build class_group(D) with its full table for a fresh D on each rung,
    then compose `pairs` seeded form pairs through cube_from_forms."""
    build, compose = Meter(), Meter()
    composed = 0
    for h in rungs:
        D = source.take(h)
        try:
            start = clock()
            group = quadforms.class_group(D)
            build.add(clock() - start)
            forms = [_ints(f.coefficients()) for f in group.forms]
            identity, table = group.identity, group.table
        except Exception as exc:  # the library's fault, counted as a failed operation
            tally.record(_error(exc))
            continue
        n = len(forms)
        triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(40)]
        tally.record(check_class_group(D, forms, identity, table, triples))
        for _ in range(pairs):
            i, j = rng.randrange(n), rng.randrange(n)
            try:
                start = clock()
                cube = composition.cube_from_forms(group.forms[i], group.forms[j])
                classes = [composition.form_class_index(f, group) for f in cube.forms()]
                compose.add(clock() - start)
                composed += 1
                problems = check_cube_composition(D, forms, identity, table, i, j,
                                                  _ints(cube.entries()), classes)
            except Exception as exc:
                problems = _error(exc)
            tally.record(problems)
    return {"classgroup_s": build.flush(), "cube_compositions_per_s": composed / compose.flush()}


# -- cube-stream -------------------------------------------------------------

DEGENERATE = ("ZERO", "RANK_ONE", "SEP_1", "SEP_2", "SEP_3", "W")


def _vector(rng):
    v = (0, 0)
    while v == (0, 0):
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
    return v


def degenerate_cube(rng: random.Random, kind: str):
    """A representative of the degenerate orbit `kind`, built from its
    definition and moved by a random SL2(Z)^3 triple."""
    if kind == "ZERO":
        base = (0,) * 8
    elif kind == "RANK_ONE":
        base = oracles.rank_one(_vector(rng), _vector(rng), _vector(rng))
    elif kind.startswith("SEP_"):
        m = ((1, 0), (0, 1))
        while m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0 or m == ((1, 0), (0, 1)):
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        base = oracles.split_off(int(kind[-1]) - 1, _vector(rng), m)
    else:  # W: e1 e2 e2, e2 e1 e2 and e2 e2 e1 with nonzero weights
        w = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]
        base = (0, 0, 0, 0, 0, w[0], w[1], w[2])
    triple = tuple(oracles.sl2z_word(rng) for _ in range(3))
    return oracles.act_cube(triple, base)


def make_stream(rng: random.Random, n: int):
    """n cubes, half integral and half with non-integral rational entries;
    a fifth of each half are translated degenerate representatives, so every
    orbit class appears.  Each comes with an SL2(Z)^3 triple to act by."""
    stream = []
    for idx in range(n):
        rational = idx % 2 == 1
        kind = DEGENERATE[(idx // 2) % 6] if idx % 10 >= 8 else "GENERIC"
        if kind == "GENERIC":
            entries = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
        else:
            entries = [Fraction(x) for x in degenerate_cube(rng, kind)]
        if rational:
            scale = Fraction(rng.choice((1, 3, 5, 7)), rng.choice((2, 3, 4, 6)))
            entries = [x * scale for x in entries]
            if kind == "GENERIC":
                entries = [x + Fraction(rng.randint(-2, 2), 5) for x in entries]
                if all(x.denominator == 1 for x in entries):
                    entries[rng.randrange(8)] += Fraction(1, 2)
        triple = tuple(oracles.sl2z_word(rng) for _ in range(3))
        stream.append((tuple(entries), triple, kind))
    rng.shuffle(stream)
    return stream


def cube_json(entries) -> str:
    s = [str(x) for x in entries]
    return json.dumps({"a": s[0], "b": s[1:4], "c": s[4], "d": s[5:8]})


def check_stream_cube(entries, triple, kind, got) -> list:
    """The library's results for one cube of the stream."""
    problems = []
    hd = oracles.cayley_hyperdet(entries)
    if got["entries"] != entries:
        problems.append(f"from_json gave {got['entries']} for {entries}")
    if not got["round_trip"]:
        problems.append(f"JSON round trip changed {entries}")
    if got["hyperdet"] != hd:
        problems.append(f"hyperdet {got['hyperdet']} != Cayley {hd} for {entries}")
    # for the pairing cubes.gram_det_entries documents, the Gram
    # determinant is minus the hyperdeterminant as a polynomial identity
    if got["hyperdet_gram"] != -hd:
        problems.append(f"hyperdet_gram {got['hyperdet_gram']} != -{hd}")
    if got["forms"] != oracles.slicing_forms(entries):
        problems.append(f"forms {got['forms']} differ for {entries}")
    if any(oracles.form_disc(*f) != hd for f in got["forms"]):
        problems.append(f"a form's discriminant differs from {hd}")
    if got["moved"] != oracles.act_cube(triple, entries):
        problems.append(f"action moved {entries} to {got['moved']}")
    if got["moved_hyperdet"] != hd:
        problems.append("hyperdet is not invariant under the action")
    if got["moved_class"] != got["class"]:
        problems.append(f"class {got['class']} moved to {got['moved_class']}")
    if (got["class"] == "GENERIC") != (hd != 0):
        problems.append(f"class {got['class']} with hyperdet {hd}")
    if kind != "GENERIC" and got["class"] != kind:
        problems.append(f"{kind} representative classified as {got['class']}")
    return problems


def stream_pipeline(text: str, triple):
    """The library's per-cube pipeline on one cube given as JSON."""
    cube = cubes.Cube.from_json(text)
    back = cubes.Cube.from_json(cube.to_json())
    hd, gram, forms = cube.hyperdet(), cube.hyperdet_gram(), cube.forms()
    moved = cube.transformed(tuple(quadforms.SL2(*g[0], *g[1]) for g in triple))
    return (cube, back, hd, gram, forms, moved, moved.hyperdet(),
            orbits.classify(cube), orbits.classify(moved))


def stream_results(cube, back, hd, gram, forms, moved, moved_hd, klass, moved_class) -> dict:
    return {
        "entries": cube.entries(), "round_trip": back == cube,
        "hyperdet": hd, "hyperdet_gram": gram,
        "forms": tuple(f.coefficients() for f in forms),
        "moved": moved.entries(), "moved_hyperdet": moved_hd,
        "class": str(klass), "moved_class": str(moved_class),
    }


def stream_round(rng: random.Random, tally: Tally, n: int = 300) -> dict:
    """Take n cubes through the per-cube pipeline: JSON round trip,
    hyperdet, hyperdet_gram, forms, the action, and classify."""
    spent = {False: Meter(), True: Meter()}
    count = {False: 0, True: 0}
    for entries, triple, kind in make_stream(rng, n):
        text = cube_json(entries)
        integral = all(x.denominator == 1 for x in entries)
        try:
            start = clock()
            raw = stream_pipeline(text, triple)
            spent[integral].add(clock() - start)
            count[integral] += 1
            problems = check_stream_cube(entries, triple, kind, stream_results(*raw))
        except Exception as exc:
            problems = _error(exc)
        tally.record(problems)
    rational, integral = spent[False].flush(), spent[True].flush()
    return {
        "cubes_per_s": (count[False] + count[True]) / (rational + integral),
        "cubes.per_cube.integral.s": integral / max(count[True], 1),
        "cubes.per_cube.rational.s": rational / max(count[False], 1),
    }


# -- symbolic-ff -------------------------------------------------------------

class GenericCube:
    """The generic cube over LaurentRing and its invariants, computed once."""

    def __init__(self):
        self.names = cubes.ENTRY_NAMES
        ring = LaurentRing(self.names)
        self.entries = [ring.var(name) for name in self.names]
        self.hyperdet = cubes.hyperdet_entries(self.entries)
        self.forms = cubes.forms_entries(self.entries)


def check_symbolic(generic: GenericCube, triple, point, got) -> list:
    """One symbolic action: the difference polynomials vanish, and the
    image evaluated at a rational point matches plain Fraction arithmetic."""
    problems = []
    if not got["hyperdet_zero"]:
        problems.append(f"hyperdet not invariant under {triple}")
    if not all(got["forms_zero"]):
        problems.append(f"forms not equivariant under {triple}: {got['forms_zero']}")
    values = [point[name] for name in generic.names]
    moved = oracles.act_cube(triple, values)

    def at(poly):
        return oracles.eval_terms(poly.terms, generic.names, point)

    if [at(p) for p in got["image"]] != list(moved):
        problems.append(f"image under {triple} is wrong at {values}")
    if at(got["hyperdet"]) != oracles.cayley_hyperdet(moved):
        problems.append(f"hyperdet of the image is wrong at {values}")
    if tuple(tuple(at(c) for c in f) for f in got["forms"]) != oracles.slicing_forms(moved):
        problems.append(f"forms of the image are wrong at {values}")
    return problems


def symbolic_action(generic: GenericCube, triple) -> dict:
    """Act on the generic cube and compare its invariants with the original."""
    image = cubes.act_entries(triple, generic.entries)
    hd = cubes.hyperdet_entries(image)
    forms = cubes.forms_entries(image)
    expected = [oracles.substitute_form(generic.forms[i], triple[i]) for i in range(3)]
    return {
        "image": image, "hyperdet": hd, "forms": forms,
        "hyperdet_zero": (hd - generic.hyperdet).is_zero(),
        "forms_zero": [all((x - y).is_zero() for x, y in zip(forms[i], expected[i]))
                       for i in range(3)],
    }


def symbolic_round(rng: random.Random, generic: GenericCube, tally: Tally,
                   words: int = 6) -> float:
    """Act on the generic cube by `words` seeded SL2(Z)^3 triples and compare
    the invariants; returns actions per second."""
    spent = Meter()
    for _ in range(words):
        triple = tuple(oracles.sl2z_word(rng) for _ in range(3))
        point = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for name in generic.names}
        try:
            start = clock()
            got = symbolic_action(generic, triple)
            spent.add(clock() - start)
            problems = check_symbolic(generic, triple, point, got)
        except Exception as exc:
            problems = _error(exc)
        tally.record(problems)
    return words / spent.flush()


def expected_stabilizer(p: int, y: int) -> int:
    return (p - 1) ** 2 if oracles.is_nonzero_square(y, p) else (p + 1) ** 2


def expected_cubic(p: int, y: int) -> int:
    return gcd(3, p - 1) if oracles.is_nonzero_square(y, p) else gcd(3, p + 1)


def expected_quartic(p: int, d: int, e: int) -> int:
    return 1 + oracles.cubic_root_count(d, e, p)


def fibers(stab_primes, quartic_primes):
    """Every fiber of the three oracles at the given primes, with the count
    the mathematics requires."""
    out = []
    for p in stab_primes:
        out += [("stabilizer", p, (y,), expected_stabilizer(p, y)) for y in range(1, p)]
    for p in stab_primes:
        inv4 = pow(4, -1, p)
        out += [("cubic", p, ((-s * inv4) % p,), expected_cubic(p, (-s * inv4) % p))
                for s in range(1, p)]
    for p in quartic_primes:
        out += [("quartic", p, (d, e), expected_quartic(p, d, e))
                for d in range(p) for e in range(p) if (4 * d ** 3 + 27 * e * e) % p]
    return out


def count_fiber(oracle: str, p: int, args) -> int:
    if oracle == "stabilizer":
        return centralizers.stabilizer_bruteforce_fp(p, [args[0], 0, 0, 0, 0, 1, 1, 1])
    if oracle == "cubic":
        return centralizers.cubic_stab_bruteforce_fp(p, (args[0], 0, 1, 0))
    return variants.quartic_stab_count_fp(p, *args)


def check_fiber(oracle: str, p: int, args, expected: int, got: int) -> list:
    if got != expected:
        return [f"{oracle} count {got} != {expected} at p = {p}, fiber {args}"]
    return []


def ff_round(tally: Tally, stab_primes=(11, 13), quartic_primes=(11,)) -> float:
    """Count every fiber with the brute-force oracles; returns fibers per
    second."""
    spent = Meter()
    todo = fibers(stab_primes, quartic_primes)
    for oracle, p, args, expected in todo:
        try:
            start = clock()
            got = count_fiber(oracle, p, args)
            spent.add(clock() - start)
            problems = check_fiber(oracle, p, args, expected, got)
        except Exception as exc:
            problems = _error(exc)
        tally.record(problems)
    return len(todo) / spent.flush()
