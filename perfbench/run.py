"""Benchmark of binquad, end to end and per layer.

    python3 perfbench/run.py --workload similar --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; binquad is imported from ./src.
With --trace 0 the run measures end-to-end metrics for --seconds
seconds, plus at most one op.  With --trace 1 it runs a fixed number of rounds
untraced and then traced, and reports per-layer metrics, so that every
count repeats exactly for one seed.  The last line of stdout is the JSON
result; the line before it carries the answer digest, route counts and
run facts for information.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 20
# Repeats kept per key; a run also ends when a key has this many.  The
# arrays are allocated in full when a key first runs, so the benchmark's
# own memory does not grow with the program's speed.
CAPACITY = 1024


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


def on_alarm(signum, frame):
    raise Deadline


def measure_setup(imports, repeats):
    """Import times of the workload's binquad modules, each in a fresh
    interpreter.  The interpreter's own start-up is not included."""
    code = (
        "import time\nt = time.perf_counter()\n"
        f"import {', '.join(imports)}\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Closed loop with one client: the next request is sent only after
    the previous one returns.  Only the call into binquad is timed; the
    benchmark's generation and checks run outside the timed region.

    Each key (a request's place in the round) keeps its latencies, and its
    value is their quantile `wl.quantile`.  A low quantile is deliberate.
    The shared host this was written on runs in slow phases of 10 s to
    several minutes at 0.5-0.7x speed, often covering most of a run and
    broken by short fast spells.  A slow phase only ever slows an op down, so the fastest
    repeats of a request are the steadiest estimate of the program's own
    cost.  Where a key repeats one request, its value is the minimum;
    where it draws a fresh input each time (compose), it is the 10th
    percentile, which does not fall further as a faster program completes
    more rounds, as the cheapest of more draws would."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.times = {}
        self.repeats = Counter()
        self.ops = 0
        self.failed = 0
        self.incorrect = 0
        self.decided = 0
        self.routes = Counter()
        self.canonical = []

    def record(self, key, dt):
        if key not in self.times:
            self.times[key] = array("d", bytes(8 * CAPACITY))
        self.times[key][self.repeats[key]] = dt
        self.repeats[key] += 1

    def full(self):
        return max(self.repeats.values(), default=0) > CAPACITY - self.wl.repeats_per_round

    def values(self):
        """Each key's latency quantile over its repeats."""
        out = []
        for key, times in self.times.items():
            n = self.repeats[key]
            out.append(sorted(times[:n])[int(self.wl.quantile * (n - 1))])
        return out

    def run(self, key, req, keep):
        wl, tracer = self.wl, self.tracer
        mark = tracer.mark() if tracer else None
        stdout, stderr = sys.stdout, sys.stderr
        cut = False
        error = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, wl.deadline)
            out = wl.execute(req)
        except Deadline:
            cut = True
        except Exception as e:  # an unexpected exception is a failed op
            error = e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = stdout, stderr
        if cut:
            dt = wl.deadline
            if tracer:
                tracer.rollback(mark)
            ok, route, decided = not wl.must_decide(req), "deadline", False
            text = "deadline"
        elif error is not None:
            ok, route, decided, text = False, f"error.{type(error).__name__}", False, repr(error)
            self.incorrect += 1
            print(f"op raised {error!r} on {req!r}", file=sys.stderr)
        else:
            ok, route, decided = wl.check(req, out)
            text = wl.canonical(req, out)
            if not ok:
                self.incorrect += 1
                print(f"check failed ({route}) on {req!r}: {text[:300]}", file=sys.stderr)
        self.ops += 1
        self.record(key, dt)
        self.failed += not ok
        self.decided += decided
        if keep:
            self.routes[route] += 1
            self.canonical.append(text)

    def facts(self, requests):
        return {
            "answer_digest": hashlib.sha256("\n".join(self.canonical).encode()).hexdigest(),
            "requests_digest": hashlib.sha256(repr(requests).encode()).hexdigest(),
            "routes": dict(sorted(self.routes.items())),
        }


def schedule(wl, rng):
    """(round number, key, request) for ever, round after round."""
    rounds = 0
    while True:
        for key, req in wl.round(rng):
            yield rounds, key, req
        rounds += 1


def run_timed(wl, rng, seconds, setup):
    """Ops in rounds of the same composition for --seconds of wall time,
    set-up samples included.  The first round always runs whole, so that
    every key has a value; after it, no op starts once --seconds have
    passed, so a run overruns by at most one op.  The timing metrics are
    those of one round made of each key's value, so the percentiles rest
    on one value per key.  Between ops, whenever another 1/SETUP_SAMPLES of
    the run has passed, one set-up sample is taken, so that the samples
    spread over the run.  The first round's answers make the digest, which
    is the same for every run of a seed."""
    loop = Loop(wl)
    start = time.perf_counter()
    first = []
    for rnd, key, req in schedule(wl, rng):
        elapsed = time.perf_counter() - start
        if rnd and (elapsed >= seconds or loop.full()):
            break
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup += measure_setup(wl.imports, 1)
        if rnd == 0:
            first.append((key, req))
        loop.run(key, req, keep=rnd == 0)
    values = loop.values()
    n = loop.ops
    metrics = {
        "ops_per_s": (len(values) / sum(values), "1/s"),
        "latency_p50_ms": (statistics.median(values) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(values, n=10)[8] * 1e3, "ms"),
        "decided_frac": (loop.decided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"rounds": rnd, "ops": n, "ops_per_round": len(first), "failed_frac": loop.failed / n,
            **loop.facts(first)}
    return loop, metrics, info


def fastest_round(loop, keyed, tracer=None):
    """Op time of one round at the program's own speed: the sum over keys
    of each key's value."""
    for i, (key, req) in enumerate(keyed):
        if tracer:
            tracer.req = i
        loop.run(key, req, keep=tracer is not None)
    return sum(loop.values())


def run_traced(wl, rng, name, seed):
    """A fixed number of rounds, first untraced and then traced, so that
    counts, digests and verdict shares repeat exactly for one seed.  A
    workload may trace a fuller round than it times (verify)."""
    make = getattr(wl, "trace_round", wl.round)
    keyed = [pair for _ in range(wl.trace_rounds) for pair in make(rng)]
    untraced = fastest_round(Loop(wl), keyed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    loop = Loop(wl, tracer)
    traced = fastest_round(loop, keyed, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write_spans(spans)
    metrics = tracing.layer_metrics(tracer, traced / untraced)
    n = len(keyed)
    info = {"rounds": wl.trace_rounds, "ops": n, "failed_frac": loop.failed / n, "decided_frac": loop.decided / n,
            "spans": len(tracer.sp_start), "spans_file": str(spans.relative_to(ROOT)), **loop.facts(keyed)}
    return loop, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "binquad" / "__init__.py").is_file():
        print(f"error: no binquad sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    # Set-up is sampled across the run and the fastest sample is reported,
    # as for the ops: within one run the samples range over 2x with the
    # host's slow phases, and their median moved with them.  The first
    # import fills __pycache__ and is not counted.
    setup = [] if args.trace else measure_setup(wl.imports, 2)[1:]
    for mod in wl.imports:
        importlib.import_module(mod)
    if not Path(sys.modules["binquad"].__file__).resolve().is_relative_to(SRC):
        print("error: binquad was not imported from ./src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, on_alarm)
    if args.trace:
        loop, metrics, info = run_traced(wl, rng, args.workload, args.seed)
    else:
        loop, metrics, info = run_timed(wl, rng, args.seconds, setup)
        setup += measure_setup(wl.imports, SETUP_SAMPLES - len(setup))
        metrics["setup_s"] = (min(setup), "s")
        info["samples"] = {"setup_s": len(setup), "latency_keys": len(loop.times), "ops": info["ops"]}
    info.update(
        workload=args.workload, seed=args.seed, trace=args.trace, python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)), machine=platform.machine(), clients=1, deadline_s=wl.deadline,
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": loop.incorrect == 0,
        "attempted": loop.ops,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
