"""cube-lab benchmark: one workload per run, every result checked.

    python3 benchmark/run.py --workload composition-ladder --seed 1 --seconds 16 --trace 0

Untraced (--trace 0), a run repeats whole rounds of the workload for
--seconds of their own time and reports every end-to-end metric of
BENCHMARK.json, in reference seconds (see workloads.py): the workload's own
metrics are medians over its rounds, and the others are medians over five
repeats of a small fixed cross-section of the other workloads, interleaved
with the first rounds.  Traced (--trace 1), a run performs one round with
spans around the library's public functions and reports the per-module
metrics; one round at a fixed seed makes every count repeat exactly.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The library is imported from src/ of the checkout holding this directory;
the run exits with code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("verify-default", "composition-ladder", "cube-stream", "symbolic-ff")

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_s": "s",
    "classgroup_s": "s",
    "cube_compositions_per_s": "1/s",
    "cubes_per_s": "1/s",
    "symbolic_actions_per_s": "1/s",
    "ff_fibers_per_s": "1/s",
}

# inputs of the cross-section do not depend on --seed, so that on the
# workloads that do not own a metric it reads the same work in every run
CROSS_SECTION_SEED = 7919
CROSS_REPEATS = 5


def native_round(w, workload: str, rng: random.Random, state: dict, tally, traced=False):
    if workload == "verify-default":
        result = w.verify_round(tally, traced=traced)
        proc = result["proc"]
        state["verify"] = result
        return {"verify_s": proc.reference_s, "peak_rss_mb": proc.peak_rss_mb}
    if workload == "composition-ladder":
        return w.ladder_round(rng, state["discriminants"], tally)
    if workload == "cube-stream":
        return w.stream_round(rng, tally)
    return {"symbolic_actions_per_s": w.symbolic_round(rng, state["generic"], tally),
            "ff_fibers_per_s": w.ff_round(tally)}


def cross_section(w, workload: str, tally) -> list:
    """Small fixed rounds of the other workloads, for the metrics this
    workload does not measure itself: one repeat of the cross-section."""
    rng = random.Random(CROSS_SECTION_SEED)
    discriminants = w.Discriminants(rng)
    measures = []
    if workload != "verify-default":
        measures.append(lambda: {"verify_s": w.verify_round(tally, suite="ff")["proc"].reference_s})
    if workload != "composition-ladder":
        measures.append(lambda: w.ladder_round(rng, discriminants, tally, rungs=(10, 20, 30), pairs=16))
    if workload != "cube-stream":
        measures.append(lambda: w.stream_round(rng, tally, n=300))
    if workload != "symbolic-ff":
        generic = w.GenericCube()
        measures.append(lambda: {"symbolic_actions_per_s": w.symbolic_round(rng, generic, tally, words=2)})
        measures.append(lambda: {"ff_fibers_per_s": w.ff_round(tally, stab_primes=(11,), quartic_primes=())})
    return measures


def untraced(w, workload: str, seed: int, seconds: float, tally) -> dict:
    """Native rounds for `seconds` of their own time, each of the first
    CROSS_REPEATS followed by one repeat of the cross-section, so that both
    sample the host's speed regimes, which change every few seconds; then
    the medians."""
    metrics = {"setup_s": w.measure_setup(tally)}
    rng = random.Random(seed)
    state = {"discriminants": w.Discriminants(rng)}
    if workload == "symbolic-ff":
        state["generic"] = w.GenericCube()
    cross = cross_section(w, workload, tally)
    samples = {}

    def record(measured):
        for name, value in measured.items():
            if name in UNITS:
                samples.setdefault(name, []).append(value)

    repeats = 0
    native_s = 0.0
    while native_s < seconds or repeats < CROSS_REPEATS:
        if native_s < seconds:
            start = time.perf_counter()
            record(native_round(w, workload, rng, state, tally))
            native_s += time.perf_counter() - start
        if repeats < CROSS_REPEATS:
            for measure in cross:
                record(measure())
            repeats += 1
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    if workload != "verify-default":
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: (metrics[name], UNITS[name]) for name in UNITS}


def traced(w, workload: str, seed: int, tally) -> dict:
    import cube_lab.cli  # noqa: F401  (loads every module, so every binding is wrapped)
    from tracer import Tracer
    rng = random.Random(seed)
    state = {"discriminants": w.Discriminants(rng)}
    if workload == "symbolic-ff":
        state["generic"] = w.GenericCube()
    tracer = Tracer()
    if workload != "verify-default":
        tracer.install()
    result = native_round(w, workload, rng, state, tally, traced=True)
    layers = {}
    if workload == "verify-default":
        proc = state["verify"]["proc"]
        line = [ln for ln in proc.stderr.splitlines() if ln.startswith("TRACE ")]
        if not line:
            raise RuntimeError(f"traced CLI printed no spans: {proc.stderr[-500:]}")
        tracer = Tracer.from_json(json.loads(line[-1][len("TRACE "):]))
        layers.update(w.verify_layer_metrics(state["verify"]))
    else:
        layers.update({name: (0.0, "s") for name in w.VERIFY_LAYERS})
    layers.update(tracer.metrics())
    for kind in ("integral", "rational"):
        name = f"cubes.per_cube.{kind}.s"
        layers[name] = (result.get(name, 0.0), "s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind, so that a child stopped for a speed sample is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cube_lab" / "__init__.py").is_file():
        print(f"error: no cube-lab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    tally = w.Tally()
    if args.trace:
        metrics = traced(w, args.workload, args.seed, tally)
    else:
        metrics = untraced(w, args.workload, args.seed, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
