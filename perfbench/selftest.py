"""Determinism check for the benchmark: one seed gives the same requests
and the same answer digest twice; another seed gives other requests (in
classgroup and verify, the same requests in another order).

    python3 perfbench/selftest.py [workload ...]

Run from the root of a source checkout.  Exit code 0 iff every check holds.
"""

import random
import signal
import sys

import run
from workloads import WORKLOADS


def first_round(name, seed):
    wl = WORKLOADS[name]()
    reqs = wl.round(random.Random(seed))
    loop = run.Loop(wl)
    for key, req in reqs:
        loop.run(key, req, keep=True)
    return loop.facts(reqs), loop.failed


def main(names):
    sys.path.insert(0, str(run.SRC))
    for name in names:
        for mod in WORKLOADS[name].imports:
            __import__(mod)
    signal.signal(signal.SIGALRM, run.on_alarm)
    ok = True
    for name in names:
        a, fa = first_round(name, 11)
        b, fb = first_round(name, 11)
        c = WORKLOADS[name]().round(random.Random(12))
        checks = {
            "same seed, same requests": a["requests_digest"] == b["requests_digest"],
            "same seed, same answers": a["answer_digest"] == b["answer_digest"],
            "other seed, other requests": run.hashlib.sha256(repr(c).encode()).hexdigest() != a["requests_digest"],
            "no failed op": fa == fb == 0,
        }
        for what, good in checks.items():
            print(f"{name}: {what}: {'PASS' if good else 'FAIL'}")
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
