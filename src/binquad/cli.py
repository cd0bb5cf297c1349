"""Command-line interface.

Every verb is a thin adapter around a library call: inputs are JSON
(arguments or stdin), output is canonical JSON (sorted keys, exact
integers and fractions only) on stdout.  Exit codes: 0 success, 1 usage
or malformed input, 2 domain error, 3 undecided (Unknown) verdict.

A verb imports the layers it runs inside its own function, so that a
process answering `similar`, `disc` or `reduce` loads the form layer
alone, not the pairs, ideal lattices, composition or class groups.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import takewhile
from types import SimpleNamespace

from .errors import DomainError, UsageError
from .form import BinaryQuadraticForm, reduce_definite, similar
from .mat2 import mat_to_json
from .ring import ModularRing, QQ, ZZ

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNKNOWN = 3
# one encoder for every answer, with the settings json.dumps passes it
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(obj) -> None:
    sys.stdout.write(_ENCODER.encode(obj) + "\n")


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


def _ring(flag):
    """The ring that --ring names, Z when the flag is absent."""
    if flag in (None, "int"):
        return ZZ
    if flag == "rat":
        return QQ
    if not flag.startswith("mod:"):
        raise UsageError(f"bad --ring value {flag!r} (want int, mod:N, or rat)")
    try:
        return ModularRing(int(flag.split(":", 1)[1]))
    except ValueError as e:
        raise UsageError(f"bad modulus in --ring {flag!r}") from e


def _form(args, text: str) -> BinaryQuadraticForm:
    return BinaryQuadraticForm.from_json(_load_json(text), default_ring=args.ring)


def _pair(args):
    from .pairs import CliffordPair

    return CliffordPair.from_json(_load_json(args.pair), default_ring=args.ring)


def _proper(args, out: BinaryQuadraticForm) -> dict:
    from .compose import proper_reduce

    return (proper_reduce(out) if args.proper_reduce else out).to_json()


def _disc(args):
    q = _form(args, args.form)
    flipped, classical = q.discriminant()
    e = q.ring.elem_to_json
    return {"classical": e(classical), "paper": e(flipped)}


def _similar(args):
    q1, q2 = _form(args, args.form1), _form(args, args.form2)
    v = similar(q1, q2)
    return v.to_json(q1.ring), EXIT_OK if v.is_similar else EXIT_DOMAIN if v.is_decided else EXIT_UNKNOWN


def _reduce(args):
    q = _form(args, args.form)
    r, M = reduce_definite(q)
    return {"form": r.to_json(), "matrix": mat_to_json(q.ring, M)}


def _clifford(args):
    from .clifford import even_clifford

    return even_clifford(_form(args, args.form)).to_json()


def _form2pair(args):
    from .pairs import form_to_pair

    return form_to_pair(_form(args, args.form)).to_json()


def _pair2form(args):
    from .pairs import pair_to_form

    return pair_to_form(_pair(args)).to_json()


def _dual(args):
    from .pairs import dual_form, dual_form_trace

    q = _form(args, args.form)
    return [st.to_json() for st in dual_form_trace(q)] if args.trace else dual_form(q).to_json()


def _dualconic(args):
    from .pairs import dual_conic

    return dual_conic(_form(args, args.form)).to_json()


def _wood(args):
    from .pairs import clifford_form_to_wood_form

    return clifford_form_to_wood_form(_form(args, args.form)).to_json()


def _normform(args):
    from .norm import IdealLattice, naive_norm_form, universal_norm_form

    ideal = IdealLattice.from_json(_load_json(args.ideal))
    return {"naive": naive_norm_form(ideal).to_json(), "universal": universal_norm_form(ideal).to_json()}


def _ideal(args):
    from .norm import form_to_ideal

    return form_to_ideal(_form(args, args.form)).to_json()


def _compose(args):
    from .compose import compose

    return _proper(args, compose(_form(args, args.form1), _form(args, args.form2), twist=args.twist))


def _inverse(args):
    from .compose import inverse_form

    return _proper(args, inverse_form(_form(args, args.form)))


def _identity(args):
    from .clifford import QuadraticAlgebra
    from .compose import identity_form

    alg = QuadraticAlgebra.from_json(_load_json(args.algebra), default_ring=args.ring)
    return identity_form(alg).to_json()


def _class_group(args):
    from .picard import class_group

    try:
        D = int(args.D)
    except ValueError as e:
        raise UsageError(f"discriminant must be an integer, got {args.D!r}") from e
    g = class_group(D)
    return {"h": g.order, "invariant_factors": list(g.invariant_factors), "oriented": g.order,
            "unoriented": g.unoriented, "forms": [q.to_json() for q in g.forms]}


def _quat(args):
    from .clifford import quat_conj, quat_from_json, quat_mul, quat_norm, quat_to_json, quat_trace

    q = _form(args, args.form)
    z = quat_from_json(q, _load_json(args.z))
    if args.w is not None:
        return quat_to_json(q, quat_mul(q, z, quat_from_json(q, _load_json(args.w))))
    e = q.ring.elem_to_json
    return {"conj": quat_to_json(q, quat_conj(q, z)), "norm": e(quat_norm(q, z)), "trace": e(quat_trace(q, z))}


def _basechange(args):
    from .norm import base_change_checks
    from .ring import RingHom, ring_from_json

    q = _form(args, args.form)
    desc = _load_json(args.hom)
    if not isinstance(desc, dict) or not {"src", "dst"} <= set(desc):
        raise UsageError("hom JSON needs src and dst ring objects")
    checks = base_change_checks(q, RingHom(ring_from_json(desc["src"]), ring_from_json(desc["dst"])))
    out = {name: "skipped" if ok is None else "pass" if ok else "fail" for name, ok in checks.items()}
    return out, EXIT_DOMAIN if "fail" in out.values() else EXIT_OK


def _verify(args):
    from . import acceptance

    return None, EXIT_OK if acceptance.run(name_filter=args.filter, out=sys.stdout.write) else EXIT_DOMAIN


# verb: (positionals, flags, help, answer).  A positional "w?" may be left out; a flag
# maps to its default, False for a switch or None for a value.  All take -h.  answer(args)
# gives the JSON answer, or (answer, exit code) where the code can be other than 0; verify's
# answer is None, as it writes its own lines.
VERBS = {
    "disc": (("form",), {}, "both sign conventions of the discriminant", _disc),
    "clifford": (("form",), {}, "even Clifford algebra of a form", _clifford),
    "form2pair": (("form",), {}, "(algebra, action matrix) pair of a form", _form2pair),
    "pair2form": (("pair",), {}, "form read off a traceable pair", _pair2form),
    "traceable": (("pair",), {}, "traceability of a pair", lambda a: dict(traceable=_pair(a).is_traceable())),
    "similar": (("form1", "form2"), {}, "similarity verdict with witness", _similar),
    "reduce": (("form",), {}, "reduced representative and SL2 witness", _reduce),
    "dual": (("form",), {"trace": False}, "dual form on the dual module, or its five-stage trace", _dual),
    "dualconic": (("form",), {}, "dual conic over the rationals", _dualconic),
    "wood": (("form",), {}, "the form in the opposite-sign normalization", _wood),
    "normform": (("ideal",), {}, "naive and universal norm forms of a lattice", _normform),
    "ideal": (("form",), {}, "ideal lattice of a primitive form", _ideal),
    "compose": (("form1", "form2"), {"proper_reduce": False, "twist": False}, "Gauss composition", _compose),
    "inverse": (("form",), {"proper_reduce": False}, "inverse class representative", _inverse),
    "identity": (("algebra",), {}, "norm form of an algebra", _identity),
    "classgroup": (("D",), {}, "reduced forms and group structure", _class_group),
    "picard": (("D",), {}, "oriented and unoriented class counts", _class_group),
    "quat": (("form", "z", "w?"), {}, "quaternion algebra operations", _quat),
    "basechange": (("form", "hom"), {}, "base-change compatibility report", _basechange),
    "verify": ((), {"filter": None}, "run the acceptance suite, or the criteria whose key or name FILTER matches",
               _verify),
}


def _help(verb) -> str:
    rows = "\n".join(f"  {v:<12}{row[2]}" for v, row in VERBS.items())
    names, flags, text = VERBS[verb][:3] if verb else (("VERB ...",), {"ring": None}, rows)
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
            names, flags, *_ = VERBS[tok]
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
    """Answer args.verb by the function in its row of VERBS, writing the answer once.
    --ring is resolved first, so every verb refuses a bad value, whether it reads it or not."""
    args.ring = _ring(args.ring)
    answer = VERBS[args.verb][3](args)
    answer, code = answer if isinstance(answer, tuple) else (answer, EXIT_OK)
    if answer is not None:
        _emit(answer)
    return code


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
