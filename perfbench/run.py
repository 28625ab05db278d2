#!/usr/bin/env python3
"""Closed-loop benchmark of wck: one caller, no concurrency, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports wck from src/. A pass
parses the workload's JSON inputs with wck's loaders, then runs each of
its cases in order (build, lattice or verdict, render, check) and
compares every summary with expected.json. Passes repeat until --seconds
have gone by. The last line of standard output is the result object;
the line before it records the environment and the sample counts.
Cases that fail are listed on standard error.

--trace 0 reports the end-to-end metrics, with times scaled to a fixed
machine speed that a speed probe samples during the run (SpeedProbe).
--trace 1 alternates untraced and traced passes, reports the per-layer
metrics of the traced passes, the case latencies of the untraced ones
and the cost of tracing, and writes every span to perfbench/out/.
"""

import os

# pinned before numpy loads, here and in the set-up probes started below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# fresh processes timed per run; setup_s is the median of their own timings
SETUP_PROBES = 16
# the tail is the slowest case with at least this many cases beyond it
TAIL_BEYOND = 10
# reference computations each set-up probe times after its set-up
SETUP_REFERENCES = 5
# seconds between two samples of the speed probe
PROBE_EVERY_S = 0.25
# reference time that defines the fixed machine speed of wall_s: about
# the median reference time on a 2-vCPU Intel Xeon virtual machine
REF_PROBE_S = 0.005


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="import wck, load the inputs, print the seconds that took and exit",
    )
    return ap.parse_args(argv)


def time_setup(workload, seed):
    """Median set-up time of fresh processes, as each one timed itself.

    A probe times its imports and the parse of its inputs; the start of
    the interpreter, argument parsing and drawing the inputs are left out.
    It then times the speed probe's reference computation, and its set-up
    time is scaled to the reference speed as wall_s is.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
        setup_s, reference_s = map(float, done.stdout.split()[-2:])
        times.append(setup_s * REF_PROBE_S / reference_s)
    return statistics.median(times)


class SpeedProbe:
    """Samples the machine's speed while a pass runs, without touching wck.

    The machine's speed drifts by a fifth and more within minutes, and
    moves wck and a fixed reference computation alike. While the probe is
    entered, a timer interrupts the pass every PROBE_EVERY_S and the
    signal handler times the reference computation. Dividing the pass
    time by the mean of those times, and multiplying by REF_PROBE_S,
    gives the pass time at one fixed machine speed. The reference mixes
    the kinds of work wck does: projections on a 32 x 5120 complex basis
    (the size of the closure-o2 stage-zero basis), 64 x 64 complex matrix
    products, and interpreter work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        basis = rng.normal(size=(32, 5120)) + 1j * rng.normal(size=(32, 5120))
        self.basis = basis / np.linalg.norm(basis, axis=1, keepdims=True)
        self.vec = rng.normal(size=5120) + 1j * rng.normal(size=5120)
        small = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.small = small / np.linalg.norm(small)
        self.times = []
        self._handler = None

    def reference(self):
        """Seconds the reference computation took."""
        t0 = time.perf_counter()
        w = self.vec
        for _ in range(4):
            w = w - self.basis.T @ (self.basis.conj() @ w)
        x = self.small
        for _ in range(12):
            x = x @ self.small
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        return time.perf_counter() - t0

    def _sample(self, signum=None, frame=None):
        self.times.append(self.reference())

    def __enter__(self):
        self.times = []
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        return False


def run_pass(wl, texts, seed, expected, tracer=None, probe=None):
    """One pass over the workload's cases.

    Returns (seconds, seconds at the reference speed or None, [case ms],
    [failures]). The seconds leave out the time the probe took.
    """
    loaded = wl.load(texts)
    cases = wl.cases(loaded, seed)
    case_ms, failures = [], []
    wall = 0.0
    with probe or nullcontext(), tracer.span("pass") if tracer else nullcontext():
        for name, fn in cases:
            c0 = time.perf_counter()
            with tracer.case(name) if tracer else nullcontext():
                try:
                    got = fn()
                    want = expected.get(name)
                    problem = None if got == want else (
                        "%s: expected %r, got %r" % (name, want, got))
                except Exception:  # a case that raises is a failed case; go on
                    problem = "%s raised:\n%s" % (name, traceback.format_exc())
            case_s = time.perf_counter() - c0
            case_ms.append(case_s * 1000.0)
            wall += case_s
            if problem:
                failures.append(problem)
    ref = None
    if probe:
        # the first sample ran before the cases, the others inside them
        wall -= sum(probe.times[1:])
        ref = wall * REF_PROBE_S / statistics.mean(probe.times)
    return wall, ref, case_ms, failures


def tail(values):
    """(value, percentile): the largest value with TAIL_BEYOND values beyond it.

    With too few values for that, the maximum, at percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    names = sorted(os.listdir(libdir)) if os.path.isdir(libdir) else []
    for fname in names:
        if "openblas" not in fname:
            continue
        lib = ctypes.CDLL(os.path.join(libdir, fname))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(wl, texts, seed, expected, seconds, tracer=None, probe=None):
    """Passes until `seconds` have gone by.

    With a tracer, passes alternate untraced and traced, starting
    untraced, and there are at least two.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        layer = None
        if traced:
            first = len(tracer.start)
            tracer.install()
        try:
            wall, ref, case_ms, failures = run_pass(
                wl, texts, seed, expected,
                tracer if traced else None, None if traced else probe,
            )
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer = tracer.metrics(first, len(tracer.start))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append({"traced": traced, "wall": wall, "ref": ref, "case_ms": case_ms,
                       "failures": failures, "layer": layer, "rss_mb": rss_mb})
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes


def end_to_end(passes, setup_s):
    """The end-to-end metrics of untraced passes."""
    return {
        # pass time at the probe's reference speed; pass_s in the info
        # line holds the plain pass times
        "wall_s": statistics.median(p["ref"] for p in passes),
        "setup_s": setup_s,
        # what a user sees: one answer per process. Later passes raise the
        # peak a little with transient allocations; they keep no objects.
        "peak_rss_mb": passes[0]["rss_mb"],
    }


def case_latency(passes):
    """Median and tail of the per-case latencies of untraced passes.

    Each case's median latency over the passes comes first, then the
    median and the tail over the cases, so that a case keeps its rank
    however the passes jitter.
    """
    per_case = [statistics.median(ms) for ms in zip(*(p["case_ms"] for p in passes))]
    return {"case_ms_p50": statistics.median(per_case), "case_ms_tail": tail(per_case)[0]}


def per_layer(passes):
    """Per-layer medians over the traced passes, the case latencies of the
    untraced ones, and the cost of tracing."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [p["layer"] for p in traced]
    values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    calls = values["ideals.ideal_subspace.calls"]
    values["ideals.families_per_subspace_call"] = (
        values["ideals.families"] / calls if calls else 0.0
    )
    values.update(case_latency(plain))
    values["trace_overhead"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1.0
    )
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "wck")):
        print("perfbench: no wck sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy
    import scipy

    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - t0

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    texts = wl.inputs(args.seed)
    if args.setup_only:
        t0 = time.perf_counter()
        wl.load(texts)
        setup_s = import_s + time.perf_counter() - t0
        reference = SpeedProbe().reference
        print(setup_s, statistics.median(reference() for _ in range(SETUP_REFERENCES)))
        return 0
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    tracer = Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    passes = measure(wl, texts, args.seed, expected, args.seconds, tracer, probe)

    # after the passes, so that the probes leave the timed passes alone
    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    failures = [f for p in passes for f in p["failures"]]
    for problem in failures:
        print(problem, file=sys.stderr)
    attempted = sum(len(p["case_ms"]) for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_s": [round(p["wall"], 4) for p in passes],
        "pass_ref_s": [round(p["ref"], 4) for p in passes if p["ref"] is not None],
        "cases_per_pass": len(passes[0]["case_ms"]),
        "case_samples": attempted,
        "tail_percentile": round(tail(passes[0]["case_ms"])[1], 1),
        "tail_rule": "each case's median over passes; the slowest case "
                     "with %d cases beyond it" % TAIL_BEYOND,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        values = per_layer(passes)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "spans-%s-seed%d.npz" % (args.workload, args.seed))
        tracer.save(path)
        info["spans"] = len(tracer.start)
        info["spans_file"] = os.path.relpath(path, ROOT)
    else:
        values = end_to_end(passes, setup_s)
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
