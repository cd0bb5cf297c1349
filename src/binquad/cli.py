"""Command-line interface.

Every verb is a thin adapter around a library call: inputs are JSON
(arguments or stdin), output is canonical JSON (sorted keys, exact
integers and fractions only) on stdout.  Exit codes: 0 success, 1 usage
or malformed input, 2 domain error, 3 undecided (Unknown) verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .clifford import (
    QuadraticAlgebra,
    even_clifford,
    quat_conj,
    quat_from_json,
    quat_mul,
    quat_norm,
    quat_to_json,
    quat_trace,
)
from .compose import compose, identity_form, inverse_form, proper_reduce
from .errors import DomainError, UsageError
from .form import BinaryQuadraticForm, reduce_definite, similar
from .mat2 import mat_to_json
from .norm import base_change_checks, form_to_ideal, naive_norm_form, universal_norm_form, IdealLattice
from .pairs import (
    CliffordPair,
    clifford_form_to_wood_form,
    dual_conic,
    dual_form,
    dual_form_trace,
    form_to_pair,
    pair_to_form,
)
from .picard import class_group
from .ring import ModularRing, QQ, RingHom, ZZ, ring_from_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNKNOWN = 3


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(
        json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n"
    )
    return code


def _load_json(arg: str):
    if arg == "-":
        arg = sys.stdin.read()
    try:
        return json.loads(arg)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON: {e}") from e


def _default_ring(args):
    flag = getattr(args, "ring", None)
    if flag is None:
        return None
    if flag == "int":
        return ZZ
    if flag == "rat":
        return QQ
    if flag.startswith("mod:"):
        try:
            return ModularRing(int(flag.split(":", 1)[1]))
        except ValueError as e:
            raise UsageError(f"bad modulus in --ring {flag!r}") from e
    raise UsageError(f"bad --ring value {flag!r} (want int, mod:N, or rat)")


def _form(args, text: str) -> BinaryQuadraticForm:
    return BinaryQuadraticForm.from_json(_load_json(text), default_ring=_default_ring(args) or ZZ)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binquad",
        description="binary quadratic forms and their Clifford invariants, exactly",
    )
    ap.add_argument("--ring", help="default ring for inputs without one: int, mod:N, rat")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, *positional, **kw):
        p = sub.add_parser(name, **kw)
        for pos in positional:
            p.add_argument(pos)
        return p

    verb("disc", "form", help="both sign conventions of the discriminant")
    verb("clifford", "form", help="even Clifford algebra of a form")
    verb("form2pair", "form", help="(algebra, action matrix) pair of a form")
    verb("pair2form", "pair", help="form read off a traceable pair")
    verb("traceable", "pair", help="traceability of a pair")
    p = verb("similar", "form1", "form2", help="similarity verdict with witness")
    p.add_argument(
        "--bound",
        type=int,
        default=12,
        help="witness search bound (square D over Z, even n, and D > 0 past the cycle limit)",
    )
    verb("reduce", "form", help="reduced representative and SL2 witness")
    p = verb("dual", "form", help="dual form on the dual module")
    p.add_argument("--trace", action="store_true", help="emit the five-stage trace")
    verb("dualconic", "form", help="dual conic over the rationals")
    verb("wood", "form", help="the form in the opposite-sign normalization")
    verb("normform", "ideal", help="naive and universal norm forms of a lattice")
    verb("ideal", "form", help="ideal lattice of a primitive form")
    p = verb("compose", "form1", "form2", help="Gauss composition")
    p.add_argument("--proper-reduce", action="store_true")
    p.add_argument("--twist", action="store_true", help="transport along the conjugated witness")
    p = verb("inverse", "form", help="inverse class representative")
    p.add_argument("--proper-reduce", action="store_true")
    verb("identity", "algebra", help="norm form of an algebra")
    verb("classgroup", "D", help="reduced forms and group structure")
    verb("picard", "D", help="oriented and unoriented class counts")
    p = sub.add_parser("quat", help="quaternion algebra operations")
    p.add_argument("form")
    p.add_argument("z")
    p.add_argument("w", nargs="?")
    verb("basechange", "form", "hom", help="base-change compatibility report")
    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--filter", default=None, help="run only criteria whose name matches")
    return ap


# The verb tree does not depend on the request: build it on the first run
# and reuse it.  parse_args leaves the parser unchanged and returns a fresh
# Namespace on every call.
_parser = functools.cache(build_parser)


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "disc":
        q = _form(args, args.form)
        flipped, classical = q.discriminant()
        e = q.ring.elem_to_json
        _emit({"classical": e(classical), "paper": e(flipped)})
        return EXIT_OK
    if verb == "clifford":
        _emit(even_clifford(_form(args, args.form)).to_json())
        return EXIT_OK
    if verb == "form2pair":
        _emit(form_to_pair(_form(args, args.form)).to_json())
        return EXIT_OK
    if verb == "pair2form":
        pair = CliffordPair.from_json(_load_json(args.pair), default_ring=_default_ring(args) or ZZ)
        _emit(pair_to_form(pair).to_json())
        return EXIT_OK
    if verb == "traceable":
        pair = CliffordPair.from_json(_load_json(args.pair), default_ring=_default_ring(args) or ZZ)
        _emit({"traceable": pair.is_traceable()})
        return EXIT_OK
    if verb == "similar":
        q1 = _form(args, args.form1)
        q2 = _form(args, args.form2)
        v = similar(q1, q2, bound=args.bound)
        _emit(v.to_json(q1.ring))
        if v.verdict == "similar":
            return EXIT_OK
        return EXIT_UNKNOWN if v.verdict == "unknown" else EXIT_DOMAIN
    if verb == "reduce":
        q = _form(args, args.form)
        r, M = reduce_definite(q)
        _emit({"form": r.to_json(), "matrix": mat_to_json(q.ring, M)})
        return EXIT_OK
    if verb == "dual":
        q = _form(args, args.form)
        if args.trace:
            _emit([st.to_json() for st in dual_form_trace(q)])
        else:
            _emit(dual_form(q).to_json())
        return EXIT_OK
    if verb == "dualconic":
        _emit(dual_conic(_form(args, args.form)).to_json())
        return EXIT_OK
    if verb == "wood":
        _emit(clifford_form_to_wood_form(_form(args, args.form)).to_json())
        return EXIT_OK
    if verb == "normform":
        ideal = IdealLattice.from_json(_load_json(args.ideal))
        _emit(
            {
                "naive": naive_norm_form(ideal).to_json(),
                "universal": universal_norm_form(ideal).to_json(),
            }
        )
        return EXIT_OK
    if verb == "ideal":
        _emit(form_to_ideal(_form(args, args.form)).to_json())
        return EXIT_OK
    if verb == "compose":
        q1 = _form(args, args.form1)
        q2 = _form(args, args.form2)
        out = compose(q1, q2, twist=args.twist)
        if getattr(args, "proper_reduce"):
            out = proper_reduce(out)
        _emit(out.to_json())
        return EXIT_OK
    if verb == "inverse":
        out = inverse_form(_form(args, args.form))
        if getattr(args, "proper_reduce"):
            out = proper_reduce(out)
        _emit(out.to_json())
        return EXIT_OK
    if verb == "identity":
        alg = QuadraticAlgebra.from_json(_load_json(args.algebra), default_ring=_default_ring(args) or ZZ)
        _emit(identity_form(alg).to_json())
        return EXIT_OK
    if verb in ("classgroup", "picard"):
        try:
            D = int(args.D)
        except ValueError as e:
            raise UsageError(f"discriminant must be an integer, got {args.D!r}") from e
        g = class_group(D)
        _emit(
            {
                "h": g.order,
                "invariant_factors": list(g.invariant_factors),
                "oriented": g.order,
                "unoriented": g.unoriented,
                "forms": [q.to_json() for q in g.forms],
            }
        )
        return EXIT_OK
    if verb == "quat":
        q = _form(args, args.form)
        z = quat_from_json(q, _load_json(args.z))
        if args.w is not None:
            w = quat_from_json(q, _load_json(args.w))
            _emit(quat_to_json(q, quat_mul(q, z, w)))
        else:
            e = q.ring.elem_to_json
            _emit(
                {
                    "conj": quat_to_json(q, quat_conj(q, z)),
                    "norm": e(quat_norm(q, z)),
                    "trace": e(quat_trace(q, z)),
                }
            )
        return EXIT_OK
    if verb == "basechange":
        q = _form(args, args.form)
        desc = _load_json(args.hom)
        if not isinstance(desc, dict) or not {"src", "dst"} <= set(desc):
            raise UsageError("hom JSON needs src and dst ring objects")
        hom = RingHom(ring_from_json(desc["src"]), ring_from_json(desc["dst"]))
        checks = base_change_checks(q, hom)
        out = {}
        for name, ok in checks.items():
            out[name] = "skipped" if ok is None else ("pass" if ok else "fail")
        _emit(out)
        return EXIT_OK if all(v != "fail" for v in out.values()) else EXIT_DOMAIN
    if verb == "verify":
        from . import acceptance

        ok = acceptance.run(name_filter=args.filter, out=sys.stdout.write)
        return EXIT_OK if ok else EXIT_DOMAIN
    raise UsageError(f"unknown verb {verb!r}")


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except UsageError as e:
        return _fail("usage", str(e), EXIT_USAGE)
    except DomainError as e:
        return _fail(type(e).__name__, str(e), EXIT_DOMAIN)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
