"""Per-layer tracing of binquad, applied from outside the program.

`install` wraps the public functions of each layer in span recorders and
rebinds every name that sibling modules imported with `from .x import y`,
so calls between layers are seen too.  `ring` and `mat2` get counters
without spans: they make millions of sub-microsecond calls.  Spans live in
flat arrays until `write_spans` saves them when the run ends.
"""

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

# Layers in the order a request passes through them.
LAYERS = ("cli", "acceptance", "picard", "compose", "pairs", "norm", "clifford", "form", "mat2", "ring")
SPANNED = LAYERS[:8]
# Entry points only: argument parsing and JSON are cli.run's own work, and
# the criteria are timed one by one through acceptance.CRITERIA.
ENTRY_ONLY = {"cli": ("run",), "acceptance": ("run",)}
MAT2_COUNTED = ("mat", "mmul", "mdet", "minv")
SIMILAR_ROUTES = ("reduction", "screen", "search_found", "search_exhausted", "identity")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_req = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.stack = [-1]
        self.req = -1
        self.counts = defaultdict(int)
        self.dropped_ops = 0

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, post=None):
        nid = self._name_id(name)
        sp_name, sp_parent, sp_req = self.sp_name, self.sp_parent, self.sp_req
        sp_start, sp_end, stack, counts = self.sp_start, self.sp_end, self.stack, self.counts
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1])
            sp_req.append(tracer.req)
            sp_end.append(0)
            sp_start.append(now())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp_end[sid] = now()
                stack.pop()
                counts[name] += 1
            if post is not None:
                post(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, post=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if post is not None:
                post(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self):
        return len(self.sp_start), dict(self.counts)

    def rollback(self, mark):
        """Forget the spans and counts of an op cut at its deadline, so that
        counts repeat exactly whatever the timing."""
        n, counts = mark
        for arr in (self.sp_name, self.sp_parent, self.sp_req, self.sp_start, self.sp_end):
            del arr[n:]
        self.counts.clear()
        self.counts.update(counts)
        self.dropped_ops += 1

    def self_times(self):
        """name -> (calls, self_ns, total_ns); self time is a span's duration
        minus the durations of its child spans."""
        child = [0] * len(self.sp_start)
        dur = [e - s for s, e in zip(self.sp_start, self.sp_end)]
        for sid, parent in enumerate(self.sp_parent):
            if parent >= 0:
                child[parent] += dur[sid]
        out = {}
        for sid, nid in enumerate(self.sp_name):
            calls, self_ns, total_ns = out.get(nid, (0, 0, 0))
            out[nid] = (calls + 1, self_ns + dur[sid] - child[sid], total_ns + dur[sid])
        return {self.names[nid]: v for nid, v in out.items()}

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\treq\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.sp_start)):
                f.write(
                    f"{sid}\t{self.sp_parent[sid]}\t{self.sp_req[sid]}\t{self.names[self.sp_name[sid]]}"
                    f"\t{self.sp_start[sid]}\t{self.sp_end[sid]}\n"
                )


def _similar_route(counts, args, v):
    # Plain attribute reads, so that classifying adds no counted calls.
    q1, q2 = args[0], args[1]
    if v.verdict == "unknown":
        route = "search_exhausted"
    elif v.verdict == "not_similar":
        route = "reduction" if v.reason == "definite_reduction" else "screen"
    elif (q1.a, q1.b, q1.c) == (q2.a, q2.b, q2.c):
        route = "identity"
    elif q1.ring.kind == "int" and q1.b * q1.b < 4 * q1.a * q1.c and q1.a != 0 and q2.a != 0:
        route = "reduction"
    else:
        route = "search_found"
    counts["form.similar.route." + route] += 1


def _principal_hit(counts, args, result):
    counts["norm.ideal_is_principal.hit"] += bool(result)


def _search_found(counts, args, result):
    counts["pairs.pairs_isomorphic_search.found"] += result is not None


def _units_elems(counts, args, result):
    counts["ring.units.elems"] += len(result)


POST = {
    "form.similar": _similar_route,
    "norm.ideal_is_principal": _principal_hit,
    "pairs.pairs_isomorphic_search": _search_found,
}


def install(tracer):
    """Instrument the imported binquad modules in place."""
    # acceptance (and numpy with it) is imported only by the verify workload.
    mods = {layer: sys.modules[f"binquad.{layer}"] for layer in LAYERS if f"binquad.{layer}" in sys.modules}
    swap = {}
    for layer in SPANNED:
        mod = mods.get(layer)
        if mod is None:
            continue
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if layer in ENTRY_ONLY and name not in ENTRY_ONLY[layer]:
                continue
            key = f"{layer}.{name}"
            if inspect.isfunction(obj):
                swap[id(obj)] = tracer.span(key, obj, POST.get(key))
            elif inspect.isclass(obj):
                _instrument_class(tracer, key, obj)
    if "acceptance" in mods:
        acc = mods["acceptance"]
        acc.CRITERIA = [(k, n, tracer.span(f"acceptance.{k}", fn)) for k, n, fn in acc.CRITERIA]
    for name in MAT2_COUNTED:
        fn = getattr(mods["mat2"], name)
        swap[id(fn)] = tracer.counter("mat2", fn)
    ring = mods["ring"]
    for cls, kind in ((ring.IntegerRing, "int"), (ring.ModularRing, "mod"), (ring.RationalRing, "rat")):
        cls.normalize = tracer.counter(f"ring.normalize.{kind}", cls.normalize)
        if "units" in vars(cls):
            cls.units = tracer.counter("ring.units", cls.units, _units_elems)
    for mod in [sys.modules["binquad"], *mods.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in swap:
                setattr(mod, name, swap[id(obj)])


def _instrument_class(tracer, key, cls):
    for name, fn in list(vars(cls).items()):
        if not inspect.isfunction(fn):
            continue
        if name == "__init__":
            # Construction includes dataclass re-validation in __post_init__.
            if cls.__name__ == "IdealLattice":
                cls.__init__ = tracer.span(key + ".init", fn)
            else:
                cls.__init__ = tracer.counter(key + ".init", fn)
        elif not name.startswith("_"):
            setattr(cls, name, tracer.counter(f"{key}.{name}", fn))


def layer_metrics(tracer, overhead_ratio):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    times = tracer.self_times()
    counts = tracer.counts
    out = {}

    def calls(name):
        out[name + ".calls"] = (counts.get(name, 0), "count")

    def self_ms(name):
        out[name + ".self_ms"] = (times.get(name, (0, 0, 0))[1] / 1e6, "ms")

    def ratio(name, hit):
        n = counts.get(name, 0)
        out[f"{name}.{hit}_ratio"] = (counts.get(f"{name}.{hit}", 0) / n if n else 0.0, "ratio")

    calls("cli.run")
    self_ms("cli.run")
    for fn in ("class_group", "pic_counts", "ideal_class_representatives", "reduced_forms"):
        self_ms("picard." + fn)
    for fn in ("compose", "dirichlet_compose"):
        calls("compose." + fn)
        self_ms("compose." + fn)
    calls("compose.inverse_form")
    for fn in ("ideal_multiply", "ideal_conjugate", "ideal_is_principal", "universal_norm_form",
               "form_to_ideal", "IdealLattice.init"):
        calls("norm." + fn)
        self_ms("norm." + fn)
    ratio("norm.ideal_is_principal", "hit")
    calls("form.BinaryQuadraticForm.init")
    for fn in ("reduce_definite", "similar", "value_set_mod"):
        calls("form." + fn)
        self_ms("form." + fn)
    for route in SIMILAR_ROUTES:
        out["form.similar.route." + route] = (counts.get("form.similar.route." + route, 0), "count")
    calls("clifford.even_clifford")
    self_ms("clifford.even_clifford")
    for fn in ("algebra_isomorphic", "QuadraticAlgebra.mul", "QuadraticAlgebra.norm"):
        calls("clifford." + fn)
    for fn in ("pairs_isomorphic", "pairs_isomorphic_search"):
        calls("pairs." + fn)
        self_ms("pairs." + fn)
    ratio("pairs.pairs_isomorphic_search", "found")
    calls("mat2")
    for kind in ("int", "mod", "rat"):
        calls(f"ring.normalize.{kind}")
    calls("ring.units")
    out["ring.units.elems"] = (counts.get("ring.units.elems", 0), "count")
    for k in range(1, 13):
        name = f"acceptance.C{k:02d}"
        n, _, total_ns = times.get(name, (1, 0, 0))
        out[name + ".ms"] = (total_ns / n / 1e6, "ms")
    out["trace.overhead_frac"] = (overhead_ratio, "ratio")
    out["trace.dropped_ops"] = (tracer.dropped_ops, "count")
    return out
