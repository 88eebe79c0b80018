"""limitcanon benchmark: one closed-loop client, one process, exact outputs.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs every round twice, untraced and
traced in alternating order, then runs the layer probes, and prints the
per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details, the environment and (traced runs) the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from array import array
from math import ceil, floor
from pathlib import Path
from time import perf_counter

from spans import CLOCK_NAME, NULL, Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
MAX_FAILURE_LINES = 5
CALIBRATION_EVERY = 0.05  # seconds between calibration samples
CALIBRATION_WINDOW = 0.1  # seconds either side of an interval whose samples scale it
CALIBRATION_MIN = 5  # samples per interval; the nearest ones when the window has fewer
# a typical calibration time on the machine that measured baseline.json; it
# only sets the scale of the reported times
REFERENCE = 0.0011

IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, sys.argv[1]); t = time.{CLOCK_NAME}(); "
    f"import limitcanon, limitcanon.cli; print(time.{CLOCK_NAME}() - t)"
)

# (metric, span name or prefix, unit, scale): mean busy time per call
PER_CALL = (
    ("strata.enumerate_strata.s", "strata.enumerate_strata", "s", 1),
    ("strata.realizable.us_per_call", "strata.realizable", "us", 1e6),
    ("strata.stratum_of.us_per_call", "strata.stratum_of", "us", 1e6),
    ("numdata.associated_data.us_per_call", "numdata.associated_data", "us", 1e6),
    ("model.build_model.us_per_call", "model.build_model", "us", 1e6),
    ("model.multidegree.us_per_call", "model.multidegree", "us", 1e6),
    ("weier.weierstrass_degrees.us_per_call", "weier.weierstrass_degrees", "us", 1e6),
    ("poset.build_poset.s", "poset.build_poset", "s", 1),
    ("poset.maximal.s", "poset.maximal", "s", 1),
    ("poset.covering_edges.s", "poset.covering_edges", "s", 1),
    ("poset.closure_of.us_per_call", "poset.closure_of", "us", 1e6),
    ("poset.to_dot.s", "poset.to_dot", "s", 1),
    ("cli.serialize.s", "cli.serialize", "s", 1),
    ("grassmann.pluecker.us_per_call", "grassmann.pluecker", "us", 1e6),
    ("grassmann.tripartition_degenerate.us_per_call", "grassmann.tripartition_degenerate", "us", 1e6),
    ("grassmann.orbit_fingerprint.us_per_call", "grassmann.orbit_fingerprint", "us", 1e6),
    ("grassmann.closure_orbit_set.ms_per_call", "grassmann.closure_orbit_set.", "ms", 1e3),
    ("grassmann.closure_orbit_set.n4.ms_per_call", "grassmann.closure_orbit_set.n4", "ms", 1e3),
    ("grassmann.closure_orbit_set.n5.ms_per_call", "grassmann.closure_orbit_set.n5", "ms", 1e3),
    ("grassmann.closure_orbit_set.n6.ms_per_call", "grassmann.closure_orbit_set.n6", "ms", 1e3),
    ("grassmann.pair_closure_orbit_set.ms_per_call", "grassmann.pair_closure_orbit_set", "ms", 1e3),
    ("grassmann.in_closure.us_per_call", "grassmann.in_closure", "us", 1e6),
    ("grassmann.in_pair_closure.us_per_call", "grassmann.in_pair_closure", "us", 1e6),
)
# (metric, span name): calls per round
CALLS = (
    ("strata.enumerate_strata.calls", "strata.enumerate_strata"),
    ("strata.realizable.calls", "strata.realizable"),
    ("strata.stratum_of.calls", "strata.stratum_of"),
    ("numdata.associated_data.calls", "numdata.associated_data"),
    ("model.build_model.calls", "model.build_model"),
    ("grassmann.closure_orbit_set.calls", "grassmann.closure_orbit_set."),
    ("grassmann.in_closure.calls", "grassmann.in_closure"),
)
# (metric, counter, unit): work counted per round, or per call where named so
COUNTS = (
    ("strata.strata_found", "strata.strata_found", "count"),
    ("poset.closure_pairs", "poset.closure_pairs", "count"),
    ("poset.covering_edges.count", "poset.covering_edges.count", "count"),
    ("cli.serialize.bytes", "cli.serialize.bytes", "B"),
)
# wall-clock samples taken by the pipeline probe; each reports its median
POOL = ("strata.enumerate_serial", "strata.enumerate_pool2")
LAYERS = ("bench", "numdata", "model", "strata", "poset", "weier", "grassmann", "cli")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "limitcanon" / "__init__.py").is_file():
        fail(f"no library source at {SRC.relative_to(ROOT)}/limitcanon; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import limitcanon

    if Path(limitcanon.__file__).resolve().parent != SRC / "limitcanon":
        fail(f"imported limitcanon from {limitcanon.__file__}, not from the checkout")
    import workloads

    return workloads


def git_sha():
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed):
    uname = os.uname()
    return {
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "host": uname.nodename,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "seed": seed,
        "clock": CLOCK_NAME,
    }


def tail_percentile(n_round):
    """Highest percentile with at least ten samples beyond it in one round,
    or None when a round has fewer than eleven ops."""
    if n_round < 11:
        return None
    return floor(1000 * (1 - 10 / n_round)) / 10


def band_mean(xs, p):
    """Mean of the ascending list xs over the ranks from p - (1-p)/2 to
    p + (1-p)/2.  A single order statistic at a high p jumps between
    operations of different cost, such as two of sweep's configurations,
    and made the tail spread twice as wide from run to run."""
    h = (1 - p) / 2
    lo = int((p - h) * len(xs))
    return statistics.fmean(xs[lo:max(lo + 1, ceil((p + h) * len(xs)))])


def import_seconds():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def run_setup(wl, seed):
    """(seconds, wall start, wall end) of SETUP_REPS set-ups; the workload
    keeps the last one."""
    reps = []
    for _ in range(SETUP_REPS):
        w0 = perf_counter()
        t_import = import_seconds()
        t0 = clock()
        wl.setup(seed)
        reps.append((t_import + clock() - t0, w0, perf_counter()))
    return reps


def calibration_loop():
    """Fixed pure-Python work of the kind the library does: rationals,
    tuples, sorting, frozensets and dictionaries."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 240):
        total += Fraction(i, i + 7)
        key = frozenset(sorted((i * 7919 % 97, i % 13, i // 5)))
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Speedometer:
    """Times ``calibration_loop`` on a background thread every
    CALIBRATION_EVERY seconds, by that thread's own CPU time.

    On a shared virtual machine the same work runs up to 30% slower in one
    run than in another, and its speed changes within seconds.  Each
    measured interval is multiplied by REFERENCE over the median loop time
    near it, so a slower host, which slows the loop and the library alike,
    leaves the figures in place, while a change to the library moves them.
    The thread must be stopped before anything forks."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speedometer", daemon=True)

    def _sample(self):
        while not self._stop.wait(CALIBRATION_EVERY):
            t0 = clock()
            calibration_loop()
            self.samples.append((perf_counter(), clock() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a run too short for the thread to sample
            t0 = clock()
            calibration_loop()
            self.samples.append((perf_counter(), clock() - t0))
        return False

    def factors(self, timings):
        """The scale factor of each (seconds, wall start, wall end), from
        the samples within CALIBRATION_WINDOW of its wall interval."""
        at = [t for t, _ in self.samples]
        out = []
        for _, w0, w1 in timings:
            lo = bisect.bisect_left(at, w0 - CALIBRATION_WINDOW)
            hi = bisect.bisect_right(at, w1 + CALIBRATION_WINDOW)
            if hi - lo < CALIBRATION_MIN:
                mid = bisect.bisect_left(at, (w0 + w1) / 2)
                lo, hi = max(0, mid - CALIBRATION_MIN // 2), mid + CALIBRATION_MIN // 2 + 1
            out.append(REFERENCE / statistics.median(d for _, d in self.samples[lo:hi]))
        return out

    def scaled(self, timings):
        return [t[0] * f for t, f in zip(timings, self.factors(timings))]


class Run:
    """Closed-loop rounds: one client sends the next op when the last returns."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = set()
        self.messages = []

    def fail_ops(self, r, failures):
        for i, message in failures:
            if (r, i) not in self.failed:
                self.failed.add((r, i))
                self.messages.append(f"round {r} op {i}: {message}")

    def rounds(self, tracers, budget):
        """Whole rounds for about ``budget`` seconds of operations.  Each op
        runs once under every tracer, in turn-about order from op to op, so
        any drift of the host falls on all of them alike.  Returns per tracer
        per round the seconds, wall start and wall end of every op, flat in
        one array, and the inputs and last tracer's outputs of the last
        round."""
        wl = self.wl
        ops = [[] for _ in tracers]
        spent = []
        r = 0
        while True:
            items = wl.round_inputs(r)
            outputs = [[None] * len(items) for _ in tracers]
            for k in range(len(tracers)):
                ops[k].append(array("d"))
            t_round = perf_counter()
            for i, item in enumerate(items):
                order = range(len(tracers)) if (r + i) % 2 == 0 else reversed(range(len(tracers)))
                for k in order:
                    T = tracers[k]
                    w0, t0 = perf_counter(), clock()
                    try:
                        with T.span("bench.op"):
                            outputs[k][i] = wl.run_op(item, T)
                    except Exception as exc:  # counted as a failed op, never fatal
                        outputs[k][i] = f"raised {type(exc).__name__}: {exc}"
                    ops[k][-1].extend((clock() - t0, w0, perf_counter()))
            spent.append(perf_counter() - t_round)
            for k in range(len(tracers)):
                self.attempted += len(items)
                self.fail_ops(r if len(tracers) == 1 else f"{r} pass {k}", wl.check(items, outputs[k]))
            r += 1
            # stop where the run ends nearest the budget: whole rounds only
            if sum(spent) + statistics.median(spent) / 2 > budget:
                return ops, len(items), (items, outputs[-1])


def triples(timings):
    return list(zip(timings[0::3], timings[1::3], timings[2::3]))


def end_to_end(wl, setup_reps, rounds, n_round, peak_rss):
    """Metrics from the seconds of every set-up and of every op per round."""
    latencies = sorted(t for ops in rounds for t in ops)
    walls = [sum(ops) for ops in rounds]
    p_tail = tail_percentile(n_round)
    if p_tail is None:
        tail = statistics.median(max(ops) for ops in rounds)
    else:
        tail = band_mean(latencies, p_tail / 100)
    metrics = {
        "setup_s": (statistics.median(setup_reps), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_reps)} set-ups (import, inputs, warm-up)",
        "wall_s": f"median of {len(walls)} rounds of {n_round} {wl.unit}",
        "ops_per_s": f"{len(latencies)} ops in {sum(walls):.3f} s",
        "op_p50_ms": f"median of {len(latencies)} ops",
        "op_tail_ms": (
            f"median over {len(rounds)} rounds of the slowest op"
            if p_tail is None
            else f"p{p_tail:g} of {len(latencies)} ops (mean over p{150 * p_tail / 100 - 50:g}-p{50 + p_tail / 2:g})"
        ),
        "peak_rss_mb": "ru_maxrss of the benchmark process at the end of the timed rounds",
    }
    return metrics, notes


def _matches(name, key):
    """A key ending in '.' names every span under it; any other is exact."""
    return name.startswith(key) if key.endswith(".") else name == key


def probe(wl, run, T, last):
    """The probes on the last traced round, after the traced rounds."""
    until = len(T.spans)
    round_counts = dict(T.counts)
    T.counts.clear()
    try:
        with T.span("bench.probe"):
            wl.probe(*last, T)
    except Exception as exc:  # a probe that fails marks the run incorrect
        run.fail_ops("probe", [(0, f"raised {type(exc).__name__}: {exc}")])
    return until, round_counts


def layer_metrics(T, until, round_counts, walls, op_factors, ratios):
    """Round spans are averaged over the traced rounds; probes cover one
    round.  A span is scaled by the factor of the traced op it lies in, and
    a probe's by the median of those.  ``ratios`` are the traced over
    untraced seconds of each op, whose two runs follow each other."""
    untraced, traced = walls
    n = len(traced)
    factor = statistics.median(op_factors)
    durations = []
    j = -1
    for i, (_, start, end, parent) in enumerate(T.spans):
        if i < until and parent == -1:
            j += 1
        durations.append((end - start) * (op_factors[j] if i < until else factor))
    metrics = {}
    for name, key, unit, scale in PER_CALL:
        times = [d for s, d in zip(T.spans, durations) if _matches(s[0], key)]
        metrics[name] = (scale * sum(times) / len(times) if times else 0.0, unit)
    for name, key in CALLS:
        in_rounds = sum(1 for s in T.spans[:until] if _matches(s[0], key))
        in_probes = sum(1 for s in T.spans[until:] if _matches(s[0], key))
        metrics[name] = (in_rounds / n + in_probes, "count")
    for name, counter, unit in COUNTS:
        metrics[name] = (round_counts.get(counter, 0) / n + T.counts.get(counter, 0), unit)
    for name in POOL:
        times = T.samples.get(name)
        metrics[f"{name}.s"] = (factor * statistics.median(times) if times else 0.0, "s")
    pool_pairs = zip(*(T.samples.get(name, ()) for name in POOL))
    pool_ratios = [pool2 / serial for serial, pool2 in pool_pairs]
    metrics["strata.pool2_over_serial"] = (statistics.median(pool_ratios) if pool_ratios else 0.0, "ratio")
    own = T.self_times(durations[:until])
    for layer in LAYERS:
        metrics[f"self.{layer}.s"] = (own.get(layer, 0.0) / n, "s")
    overhead = statistics.median(ratios) - 1
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (overhead * statistics.median(untraced), "s")
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    return metrics


def main(argv=None, wl=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = import_library()

    if wl is None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        wl = workloads.make(args.workload)
    env = environment(args.seed)

    run = Run(wl)
    T = Tracer() if args.trace else NULL
    with Speedometer() as sp:
        setup = run_setup(wl, args.seed)
        if hasattr(wl, "verify_brute_force"):
            run.fail_ops("setup", wl.verify_brute_force(wl.rounds[0]))
        ops, n_round, last = run.rounds((NULL, T) if args.trace else (NULL,), args.seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = [[triples(timings) for timings in pass_ops] for pass_ops in ops]
    setup_s = sp.scaled(setup)
    rounds = [[sp.scaled(timings) for timings in pass_ops] for pass_ops in ops]
    if args.trace:
        until, round_counts = probe(wl, run, T, last)
        walls = [[sum(r) for r in pass_rounds] for pass_rounds in rounds]
        op_factors = sp.factors([t for timings in ops[1] for t in timings])
        pairs = zip(*([t for r in pass_rounds for t in r] for pass_rounds in rounds))
        ratios = [traced / untraced for untraced, traced in pairs if untraced > 0]
        metrics = layer_metrics(T, until, round_counts, walls, op_factors, ratios or [1.0])
        n = len(walls[1])
        spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.json.gz"
        T.dump(spans_path, {"workload": wl.name, "seed": args.seed, "traced_rounds": n, "round_spans_end": until})
        detail = {
            "traced_rounds": n,
            "spans": len(T.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "pool_samples_s": T.samples,
        }
    else:
        metrics, detail = end_to_end(wl, setup_s, rounds[0], n_round, peak_rss)
        unscaled = [[t[0] for t in timings] for timings in ops[0]]
        raw, _ = end_to_end(wl, [t[0] for t in setup], unscaled, n_round, peak_rss)
        detail["unscaled"] = {name: value for name, (value, _) in raw.items()}
    detail["calibration"] = {
        "samples": len(sp.samples),
        "median_s": statistics.median(d for _, d in sp.samples),
        "reference_s": REFERENCE,
    }

    failed = len(run.failed)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "error_rate": failed / run.attempted,
        "failures": run.messages[:50],
        "detail": detail,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        note = detail.get(name, "") if isinstance(detail.get(name), str) else ""
        print(f"  {name:46s} {value:14.6g} {unit:6s} {note}")
    print(f"  error_rate = {failed}/{run.attempted} = {failed / run.attempted:.6g}")
    for line in run.messages[:MAX_FAILURE_LINES]:
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
