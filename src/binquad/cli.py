"""Command-line interface.

Every verb is a thin adapter around a library call: inputs are JSON
(arguments or stdin), output is canonical JSON (sorted keys, exact
integers and fractions only) on stdout.  Exit codes: 0 success, 1 usage
or malformed input, 2 domain error, 3 undecided (Unknown) verdict.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import takewhile
from types import SimpleNamespace

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
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")
    return code


def _load_json(arg: str):
    if arg == "-":
        arg = sys.stdin.read()
    try:
        return json.loads(arg)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise UsageError(f"malformed JSON: {e}") from e


def _default_ring(args):
    """The --ring ring (Z by default), read at its first use in a request and kept on args."""
    flag = args.ring
    if flag in (None, "int", "rat"):
        args.ring = QQ if flag == "rat" else ZZ
    elif isinstance(flag, str):
        if not flag.startswith("mod:"):
            raise UsageError(f"bad --ring value {flag!r} (want int, mod:N, or rat)")
        try:
            args.ring = ModularRing(int(flag.split(":", 1)[1]))
        except ValueError as e:
            raise UsageError(f"bad modulus in --ring {flag!r}") from e
    return args.ring


def _form(args, text: str) -> BinaryQuadraticForm:
    return BinaryQuadraticForm.from_json(_load_json(text), default_ring=_default_ring(args))


# verb: (positionals, flags, help).  A positional "w?" may be left out; a flag
# maps to its default, False for a switch or None for a value.  All take -h.
VERBS = {
    "disc": (("form",), {}, "both sign conventions of the discriminant"),
    "clifford": (("form",), {}, "even Clifford algebra of a form"),
    "form2pair": (("form",), {}, "(algebra, action matrix) pair of a form"),
    "pair2form": (("pair",), {}, "form read off a traceable pair"),
    "traceable": (("pair",), {}, "traceability of a pair"),
    "similar": (("form1", "form2"), {}, "similarity verdict with witness"),
    "reduce": (("form",), {}, "reduced representative and SL2 witness"),
    "dual": (("form",), {"trace": False}, "dual form on the dual module, or its five-stage trace"),
    "dualconic": (("form",), {}, "dual conic over the rationals"),
    "wood": (("form",), {}, "the form in the opposite-sign normalization"),
    "normform": (("ideal",), {}, "naive and universal norm forms of a lattice"),
    "ideal": (("form",), {}, "ideal lattice of a primitive form"),
    "compose": (("form1", "form2"), {"proper_reduce": False, "twist": False}, "Gauss composition"),
    "inverse": (("form",), {"proper_reduce": False}, "inverse class representative"),
    "identity": (("algebra",), {}, "norm form of an algebra"),
    "classgroup": (("D",), {}, "reduced forms and group structure"),
    "picard": (("D",), {}, "oriented and unoriented class counts"),
    "quat": (("form", "z", "w?"), {}, "quaternion algebra operations"),
    "basechange": (("form", "hom"), {}, "base-change compatibility report"),
    "verify": ((), {"filter": None}, "run the acceptance suite, or the criteria whose key or name FILTER matches"),
}


def _help(verb) -> str:
    rows = "\n".join(f"  {v:<12}{h}" for v, (_, _, h) in VERBS.items())
    names, flags, text = VERBS[verb] if verb else (("VERB ...",), {"ring": None}, rows)
    words = [f"[--{f.replace('_', '-')}{'' if v is False else ' ' + f.upper()}]" for f, v in flags.items()]
    words += [f"[{n[:-1]}]" if n[-1] == "?" else n for n in names]
    return f"usage: binquad {' '.join(filter(None, [verb, *words]))}\n\n{text}\n"


def _match(tok: str, flags):
    """How argparse reads tok among flags and help: None for a positional,
    else (flag, the value after "=" or None), flag "" for an unknown option."""
    if tok[:1] != "-" or tok in ("-", "--"):
        return None
    name, eq, value = tok.partition("=")
    hits = [f for f in (*flags, "help") if f"--{f}".replace("_", "-").startswith(name)] if tok[1] == "-" else ()
    if len(hits) > 1:  # only "--=..." is a prefix of two flags
        raise UsageError(f"ambiguous option {tok}")
    if hits:
        return hits[0], value if eq else None
    if tok[:2] == "-h":  # argparse reads -hh and -h=h as -h too
        return "help", None if re.fullmatch(r"-h(=?h+)?", tok) else tok
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok else ("", None)  # negative numbers


def _parse(argv):
    """The namespace _dispatch reads, or the help text if -h comes first: argv is read as
    the argparse parser in tests/oracles.py read it, and raises UsageError where it failed."""
    args, names, flags, pos, extra, after_pos, it = {"ring": None}, (), {"ring": None}, [], [], False, iter(argv)
    for tok in it:
        if tok == "--" and "verb" in args:
            rest = list(it)  # argparse leaves a last "--" over unless a positional precedes it
            pos, extra = pos + rest, extra + ([] if rest or after_pos else [tok])
            break
        hit = _match(tok, flags)
        after_pos = hit is None and "verb" in args
        if after_pos or hit and not hit[0]:
            (pos if after_pos else extra).append(tok)
        elif hit is None:
            if tok not in VERBS:
                raise UsageError(f"unknown verb {tok!r}")
            names, flags, _ = VERBS[tok]
            args.update(flags, verb=tok)
        elif hit[0] != "help" and flags[hit[0]] is None:
            value = next(it, "--") if hit[1] is None else hit[1]
            if hit[1] is None and (value == "--" or _match(value, flags)):
                raise UsageError(f"{tok} needs a value")
            args[hit[0]] = value
        elif hit[1] is not None:
            raise UsageError(f"{tok} takes no value")
        elif hit[0] != "help":
            args[hit[0]] = True
        elif any(t[:3] == "--=" for t in takewhile("--".__ne__, it)):
            raise UsageError("ambiguous option --=")  # argparse reads every flag before it acts on one
        else:
            return _help(args.get("verb"))
    if "verb" not in args or len(pos) < len([n for n in names if n[-1] != "?"]):
        raise UsageError(_help(args.get("verb")).split("\n")[0])
    if extra or len(pos) > len(names):
        raise UsageError(f"unrecognized arguments: {' '.join(extra + pos[len(names):])}")
    return SimpleNamespace(**args, **dict(zip([n.rstrip("?") for n in names], pos + [None])))


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
        pair = CliffordPair.from_json(_load_json(args.pair), default_ring=_default_ring(args))
        _emit(pair_to_form(pair).to_json())
        return EXIT_OK
    if verb == "traceable":
        pair = CliffordPair.from_json(_load_json(args.pair), default_ring=_default_ring(args))
        _emit({"traceable": pair.is_traceable()})
        return EXIT_OK
    if verb == "similar":
        q1 = _form(args, args.form1)
        q2 = _form(args, args.form2)
        v = similar(q1, q2)
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
        alg = QuadraticAlgebra.from_json(_load_json(args.algebra), default_ring=_default_ring(args))
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
        args = _parse(argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        return _dispatch(args)
    except UsageError as e:
        return _fail("usage", str(e), EXIT_USAGE)
    except DomainError as e:
        return _fail(type(e).__name__, str(e), EXIT_DOMAIN)
    except ValueError as e:  # an int past Python's digit limit, in an answer or a message
        if "integer string conversion" not in str(e):
            raise
        limit = sys.get_int_max_str_digits()
        return _fail("usage", f"an integer is past Python's {limit}-digit conversion limit", EXIT_USAGE)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
