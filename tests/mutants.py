"""The mutation catalogue of binquad, and its runner.

Each entry of CATALOGUE is (name, file, old, new, tests): a small fault put
into one library file, and the tests that must catch it, each a test file
under tests/ or a pytest node id in it (`test_picard.py::test_...`).  For
each entry the runner copies src/, tests/, pyproject.toml and the README
(which tests/test_readme.py reads) into a temporary directory, checks that
`old` occurs once in the copy of `file`, replaces it with `new`, and runs the
mapped tests there, where pyproject.toml's `pythonpath = ["src"]` makes
pytest load the copy.  A mutant is killed when a test fails.  An oracle or a
test may be retired only if every mutant is still killed without it.

    python tests/mutants.py    # no options; prints one line per mutant

It exits 0 only if every mutant is killed.  pytest does not collect it;
tests/test_readme.py checks that every entry still applies to the source
and that every test it names exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RING, MAT2, FORM, MODULAR, INTEGRAL, CLIFFORD, PAIRS, NORM, COMPOSE, PICARD, CLI, INIT = (
    f"src/binquad/{m}.py"
    for m in ("ring", "mat2", "form", "modular", "integral", "clifford", "pairs", "norm", "compose", "picard", "cli",
              "__init__")
)

T_RING = ["test_ring.py", "test_arithmetic.py", "test_kernels.py"]
T_ARITH = ["test_arithmetic.py", "test_kernels.py", "test_form.py"]
T_Q = ["test_form.py", "test_kernels.py", "test_pairs.py", "test_cli.py"]
T_MOD = ["test_modular.py", "test_kernels.py", "test_pairs.py"]
T_GENUS = ["test_indefinite.py", "test_form.py", "test_pairs.py"]
T_Z = ["test_form.py", "test_indefinite.py", "test_kernels.py", "test_pairs.py"]
T_SHANKS = ["test_compose.py", "test_picard.py", "test_acceptance.py"]
T_CLI = ["test_cli.py"]
T_ALG = ["test_clifford.py", "test_arithmetic.py", "test_kernels.py", "test_pairs.py"]
# node ids of one test each, for the entries that name single tests
LATTICE_ROUTE = "test_kernels.py::test_compose_and_inverse_match_the_lattice_route"
C08 = "test_acceptance.py::test_criterion[C08-picard-bijections]"

CATALOGUE = [
    # -- ring.py: normalization -------------------------------------------
    ("ring-one-is-an-int-over-q", RING, "    one = Fraction(1)\n", "    one = 1\n", T_RING),
    ("ring-int-normalize-isinstance", RING, "        if type(v) is int:\n            return v\n",
     "        if isinstance(v, int):\n            return v\n", T_RING),
    ("ring-mod-normalize-unreduced", RING, "        if type(v) is int:\n            return v % self.n\n",
     "        if type(v) is int:\n            return v\n", T_RING),
    ("ring-int-normalize-all-isinstance", RING,
     "if type(a) is int and type(b) is int and (c is _TWO or type(c) is int):\n            return (a, b) if",
     "if isinstance(a, int) and type(b) is int and (c is _TWO or type(c) is int):\n            return (a, b) if", T_RING),
    ("ring-mod-normalize-all-skips-b", RING,
     "type(b) is int and (c is _TWO or type(c) is int):\n            return (a % n, b % n)",
     "(c is _TWO or type(c) is int):\n            return (a % n, b % n)", T_RING),
    ("ring-rat-normalize-all-any-third", RING, "(c is _TWO or type(c) is Fraction)", "(c is _TWO or True)", T_RING),
    ("ring-mod-normalize-all-third-unreduced", RING, "(a % n, b % n, c % n)", "(a % n, b % n, c)", T_RING),
    ("ring-as-int-truncates-fractions", RING, "isinstance(v, Fraction) and v.denominator == 1",
     "isinstance(v, Fraction)", T_RING),
    ("ring-rat-normalize-keeps-ints", RING, "        if isinstance(v, int):\n            return Fraction(v)\n",
     "        if isinstance(v, int):\n            return v\n", T_RING),
    ("ring-mod-normalize-fallback-unreduced", RING, "return _as_int(v) % self.n", "return _as_int(v)", T_RING),
    # -- ring.py and mat2.py: refusals of JSON input ------------------------
    ("ring-unknown-kind-accepted", RING, "    raise UsageError(f\"unknown ring kind {kind!r}\")", "    return ZZ", T_CLI),
    ("ring-rat-bool-accepted", RING, "        if isinstance(obj, bool):\n", "        if False:\n", T_CLI),
    ("mat2-row-length-unchecked", MAT2, "not isinstance(r, list) or len(r) != 2 for r in obj",
     "not isinstance(r, list) for r in obj", T_CLI),
    # -- mat2.py and the shared formulas -----------------------------------
    ("mat2-mat-per-entry-normalize", MAT2, "    return (ring.normalize_all(a, b), ring.normalize_all(c, d))",
     "    n = ring.normalize\n    return ((n(a), n(b)), (n(c), n(d)))", T_ARITH),
    ("mat2-mdet-unnormalized", MAT2, "    return ring.normalize(A[0][0] * A[1][1] - A[0][1] * A[1][0])",
     "    return A[0][0] * A[1][1] - A[0][1] * A[1][0]", T_ARITH),
    ("mat2-mmul-index-swap", MAT2, "c * f + d * h)", "c * f + d * g)", T_ARITH),
    ("basis-change-middle-without-2", RING, "2 * (ax1 * x2 + cy1 * y2)", "(ax1 * x2 + cy1 * y2)", T_ARITH),
    ("tau-product-nm-sign", CLIFFORD, "x1 * x2 - nm * yy", "x1 * x2 + nm * yy", T_ALG),
    # -- form.py: values, discriminants and the witness check --------------
    ("form-discriminant-sign", FORM, "else (-classical, classical)", "else (classical, classical)", T_ARITH),
    ("form-eq-drops-the-ring", FORM, " and self.c == other.c and self.ring == other.ring", " and self.c == other.c",
     ["test_form.py"]),
    ("form-hash-reordered", FORM, "hash((self.ring, self.a, self.b, self.c))", "hash((self.a, self.ring, self.b, self.c))",
     ["test_form.py"]),
    ("form-verify-action-unnormalized", FORM, "return N(*basis_change(q2.a, q2.b, q2.c, self.m)) == ",
     "return basis_change(q2.a, q2.b, q2.c, self.m) == ", T_ARITH),
    ("form-verify-q-drops-d-squared", FORM, "u.numerator * L2 * d * d", "u.numerator * L2", T_ARITH),
    ("form-verify-q-drops-den-u", FORM, "lhs, rhs = u.denominator * L1,", "lhs, rhs = L1,", T_ARITH),
    ("form-properly-equivalent-is-similarity", FORM, "    return properly_equivalent_integral(q1.coeffs(), q2.coeffs())",
     "    return similar(q1, q2).is_similar", T_Z),
    # -- form.py: the Q route ----------------------------------------------
    ("q-square-class-test-dropped", FORM, " or r * r != DD:", ":", T_Q),
    ("q-square-class-test-inverted", FORM, " or r * r != DD:", " or r * r == DD:", T_Q),
    ("q-vanishing-test-dropped", FORM, "    if (D1 == 0) != (D2 == 0) or r * r != DD:", "    if r * r != DD:", T_Q),
    ("q-s-forced-to-1", FORM, "(QQ.zero, Fraction(sn, sd)))", "(QQ.zero, QQ.one))", T_Q),
    ("q-swap-step-dropped", FORM, "    if c != 0:\n        return ((0, 1), (1, 0))", "    if False:\n        return ((0, 1), (1, 0))",
     T_Q),
    ("q-x-plus-y-step-dropped", FORM, "return ((1, 0), (1, 1)), ((1, 0), (-1, 1)), (b, b, 0)",
     "return None, None, (b, b, 0)", T_Q),
    ("q-wrong-inverse-for-a-c-zero", FORM, "return ((1, 0), (1, 1)), ((1, 0), (-1, 1)), (b, b, 0)",
     "return ((1, 0), (1, 1)), ((1, 0), (1, 1)), (b, b, 0)", T_Q),
    ("q-p2-product-dropped", FORM, "        M = mmul(QQ, P2, M)", "        M = M", T_Q),
    ("q-shift-sign", FORM, "B1 * A2 * sd - B2 * A1 * sn", "B1 * A2 * sd + B2 * A1 * sn", T_Q),
    ("q-scale-swaps-the-denominators", FORM, "Fraction(A2 * L1, A1 * L2)", "Fraction(A2 * L2, A1 * L1)", T_Q),
    ("q-s-keeps-the-sign-of-a2", FORM, "(abs(A2) * r, abs(A1 * D2))", "(A2 * r, abs(A1 * D2))", T_Q),
    # -- modular.py: Z/n -----------------------------------------------------
    ("mod-local-legendre-dropped", MODULAR, "        if _legendre(x, p) != 1:\n            return None\n", "", T_MOD),
    ("mod-disc-screen-legendre-dropped", MODULAR, "    return _legendre(u1 * u2, p) == 1", "    return True", T_MOD),
    ("mod-lambda-forced-to-1", MODULAR, "    lam = be1 * pow(al1, -1, pk) % pk if e1 < k else 1", "    lam = 1", T_MOD),
    ("mod-completing-square-without-2", MODULAR, "t = b // p**v * pow(2 * (a // p**v), -1, pk)",
     "t = b // p**v * pow(a // p**v, -1, pk)", T_MOD),
    ("mod-other-square-root", MODULAR, "        s = _sqrt_unit(x, p, k - e2)", "        s = -_sqrt_unit(x, p, k - e2) % pj", T_MOD),
    ("mod-2adic-matrix-entry-mod-2m", MODULAR, "T = (((t00 * x1 + t01 * y1) % m,", "T = (((t00 * x1 + t01 * y1) % (2 * m),",
     T_MOD),
    ("mod-2adic-scale-mod-2m", MODULAR, "        lam = pow(a, -1, m)", "        lam = pow(a, -1, 2 * m)", T_MOD),
    ("mod-glued-entry-mod-2n", MODULAR, "((a % n, b % n), (c % n, d % n))", "((a % (2 * n), b % n), (c % n, d % n))", T_MOD),
    ("mod-crt-basis-not-idempotent", MODULAR, "e = n // m * pow(n // m, -1, m)", "e = n // m", T_MOD),
    ("mod-sqrt2-step", MODULAR, "            r += 1 << (j - 1)", "            r += 1 << j", T_MOD),
    ("mod-disc-2adic-classes-mod-4", MODULAR, "% 2 ** min(k - e1, 3) == 0", "% 2 ** min(k - e1, 2) == 0", T_MOD),
    ("mod-valuation-capped-below-k", MODULAR, "    while e < k and x % p == 0:", "    while e < k - 1 and x % p == 0:", T_MOD),
    ("mod-factor-off-by-one-at-root", MODULAR, "            root = isqrt(n)\n", "            root = isqrt(n) - 1\n",
     ["test_modular.py", "test_indefinite.py"]),
    ("mod-factor-miller-rabin-inverted", MODULAR, "n < _MR_PROVEN and _is_prime(n)", "n < _MR_PROVEN and not _is_prime(n)",
     ["test_modular.py", "test_indefinite.py"]),
    ("mod-factor-skips-odd-steps", MODULAR, "d += 1 if d == 2 else 2", "d += 2", ["test_modular.py", "test_indefinite.py"]),
    ("genus-2adic-table", MODULAR, "2: [e], 3: [d]", "2: [d], 3: [d]", T_GENUS),
    ("genus-epsilon", MODULAR, "e = m % 4 == 1, m % 8 in (1, 7)", "e = m % 4 == 1, m % 8 in (1, 3)", T_GENUS),
    ("genus-odd-prime-filter", MODULAR, "for p in ps if p > 2 and D % p == 0]", "for p in ps if p > 2]", T_GENUS),
    ("genus-choice-of-a-or-c", MODULAR, "_legendre(a if a % p else c, p)", "_legendre(a, p)", T_GENUS),
    ("genus-u-minus-one-dropped", MODULAR, "for u in (1, -1))", "for u in (1,))", T_GENUS),
    # -- integral.py: Z --------------------------------------------------------
    ("z-reduced-test-b-below-r", INTEGRAL, "return 0 < b <= r and", "return 0 < b < r and", T_Z),
    ("z-u-minus-one-variants-dropped", INTEGRAL, "        targets.setdefault(g, (T, n, u))",
     "        if u == 1:\n            targets.setdefault(g, (T, n, u))", T_Z),
    ("z-n-variants-dropped", INTEGRAL, "        targets.setdefault(g, (T, n, u))",
     "        if n == 1:\n            targets.setdefault(g, (T, n, u))", T_Z),
    ("z-walk-cut-after-one-step", INTEGRAL, "        if g == f:\n            return None", "        return None", T_Z),
    ("z-definite-targets-not-negated", INTEGRAL, "minus = [((-g[0], -g[1], -g[2]), T) for g, T in plus]",
     "minus = [(g, T) for g, T in plus]", T_Z),
    ("z-rho-root-side", INTEGRAL, "b2 = r - (r + b) % m", "b2 = r - (r - b) % m", T_Z),
    ("z-split-picks-the-minus-line", INTEGRAL, "        if B == s:", "        if B == -s:", T_Z),
    ("z-witness-inverse-sign", INTEGRAL, "((t11, -t01 * n), (-t10, t00 * n))", "((t11, t01 * n), (-t10, t00 * n))", T_Z),
    ("z-equal-triples-widened-to-equal-discriminants", INTEGRAL, "    if f1 == f2:\n        return True",
     "    if True:\n        return True",
     ["test_form.py::test_properly_equivalent", "test_indefinite.py::test_properly_equivalent_against_sl2_search"]),
    ("z-translation-window", INTEGRAL, "        elif not (-a < b <= a):", "        elif not (-a <= b <= a):", T_Z + ["test_picard.py"]),
    # -- clifford.py and pairs.py ---------------------------------------------
    ("alg-quat-mul-sign", CLIFFORD, "+ y1 * v2 - y2 * v1),", "+ y1 * v2 + y2 * v1),", T_ALG),
    ("alg-quat-conj-unnormalized", CLIFFORD, "return (n(x0 + x1 * q.b), n(-x1), n(-y1), n(-y2))",
     "return (x0 + x1 * q.b, n(-x1), n(-y1), n(-y2))", T_ALG),
    ("alg-disc-unreduced", CLIFFORD, "        return d % m if m else d", "        return d", T_ALG),
    ("alg-module-axiom-nm-sign", CLIFFORD, "s, r = a + d - t, b * c + nm", "s, r = a + d - t, b * c - nm", T_ALG),
    ("alg-module-axiom-drops-c-times-s", CLIFFORD, " and n(c * s) == 0", "", T_ALG),
    ("pairs-dual-conic-sign", PAIRS, "Fraction(-4 * L * B, d4)", "Fraction(4 * L * B, d4)", ["test_pairs.py", "test_acceptance.py"]),
    ("pairs-dual-conic-double-line-over-4l", PAIRS, "        d4 = 4 * L * L\n", "        d4 = 4 * L\n",
     ["test_pairs.py", "test_acceptance.py"]),
    ("pairs-dual-conic-square-test-reads-c", PAIRS, "s = q.a if q.a else q.c", "s = q.c", ["test_pairs.py", "test_acceptance.py"]),
    # -- the criteria of acceptance.py over their grids -------------------------
    ("alg-disc-reduced-mod-m-plus-1", CLIFFORD, "        return d % m if m else d", "        return d % (m + 1) if m else d",
     ["test_acceptance.py"]),
    ("alg-module-axiom-d-unnormalized", CLIFFORD, " and n(d * (d - t) + r) == 0", " and d * (d - t) + r == 0",
     ["test_acceptance.py"]),
    ("pairs-traceable-reads-m10", PAIRS, "normalize(self.m[0][0] + self.m[1][1])", "normalize(self.m[0][0] + self.m[1][0])",
     ["test_acceptance.py"]),
    ("pairs-dual-conic-a-over-2-d4", PAIRS, "Fraction(4 * L * C, d4)", "Fraction(4 * L * C, 2 * d4)", ["test_acceptance.py"]),
    ("norm-form-check-every-modulus-a-field", NORM, "isinstance(R, ModularRing) and factor(R.n) == {R.n: 1}",
     "isinstance(R, ModularRing)", ["test_norm.py", "test_acceptance.py"]),
    # -- norm.py and compose.py: the integer lattice core -----------------------
    ("lattice-orientation-rule-widened", NORM, "    if s == 0 and (r * t) % p == 0:", "    if s == 0:",
     ["test_compose.py::test_inverse_form_examples", "test_norm.py::test_conjugate_gives_the_inverse_class"]),
    ("lattice-form-basis-k-off-by-one", NORM, "    k = (b - eps * t) // 2", "    k = (b - eps * t) // 2 + 1",
     ["test_norm.py::test_form_to_ideal_examples", "test_compose.py::test_compose_examples"]),
    ("lattice-invertible-content-4", NORM, "    return _product_basis(t, nm, B, _conjugate_basis(t, B)) == ((g, 0), (0, g))",
     "    return _product_basis(t, nm, B, _conjugate_basis(t, B)) == ((g, 0), (0, g)) or g % 4 == 0",
     ["test_norm.py::test_invertibility_tracks_primitivity", C08]),
    ("lattice-principal-every-r-3", NORM, "    return bool(_represent(", "    return r == 3 or bool(_represent(",
     ["test_norm.py::test_principality_matches_generator_check", "test_picard.py::test_unoriented_count_is_read_off_the_table"]),
    ("lattice-check-det-sign", NORM, "        det = a * d - b * c\n        if det == 0:", "        det = a * d + b * c\n        if det == 0:",
     ["test_norm.py::test_lattice_validation", "test_norm.py::test_canonical_is_a_lattice_invariant"]),
    ("lattice-check-one-closure-side", NORM, "if (d * x - b * y) % det or (a * y - c * x) % det:", "if (d * x - b * y) % det:",
     ["test_norm.py::test_lattice_validation"]),
    ("lattice-check-tau-sign", NORM, "x, y = -nm * v, u + t * v", "x, y = nm * v, u + t * v",
     ["test_norm.py::test_principality_matches_generator_check", "test_picard.py::test_ideal_class_enumeration_matches"]),
    ("lattice-hnf-s-unreduced", NORM, "    return p, w[0] % p, w[1]", "    return p, w[0], w[1]",
     ["test_norm.py::test_hnf_cols_spans_the_columns", "test_picard.py::test_pic_counts_examples"]),
    ("lattice-product-of-the-first-alone", NORM, "for x in zip(*B1) for y in zip(*B2)", "for x in zip(*B1) for y in zip(*B1)",
     ["test_norm.py::test_ideal_multiply_examples", "test_compose.py::test_compose_examples"]),
    ("lattice-represent-half-integers", NORM, "            if num % (2 * A) == 0:", "            if num % A == 0:",
     ["test_norm.py::test_principality_matches_generator_check", "test_picard.py::test_pic_counts_examples"]),
    ("lattice-conjugate-sign", NORM, "[(x + y * t, -y) for x, y in zip(*B)]", "[(x - y * t, -y) for x, y in zip(*B)]",
     ["test_compose.py::test_inverse_form_examples", "test_norm.py::test_conjugate_gives_the_inverse_class"]),
    ("compose-output-moved-in-its-class", COMPOSE, "    return _universal_form(t, nm, B)",
     "    return _universal_form(t, nm, ((B[0][0], B[0][1] + B[0][0]), (B[1][0], B[1][1] + B[1][0])))",
     [LATTICE_ROUTE + "[negative]", LATTICE_ROUTE + "[square]"]),
    ("inverse-output-moved-in-its-class", COMPOSE, "    return _universal_form(b, a * c, _conjugate_basis(b, _form_basis(a, b, b)))",
     "    B = _conjugate_basis(b, _form_basis(a, b, b))\n"
     "    return _universal_form(b, a * c, ((B[0][0], B[0][1] + B[0][0]), (B[1][0], B[1][1] + B[1][0])))",
     ["test_compose.py::test_inverse_form_examples", LATTICE_ROUTE + "[negative]"]),
    # -- compose.shanks ---------------------------------------------------------
    ("shanks-half-difference", COMPOSE, "    s = (b1 + b2) // 2", "    s = (b1 - b2) // 2", T_SHANKS),
    ("shanks-r-sign", COMPOSE, "r = (-y1 * v * n - x2 * c2) % v1", "r = (y1 * v * n - x2 * c2) % v1", T_SHANKS),
    ("shanks-b3-without-2", COMPOSE, "    b3 = b2 + 2 * v2 * r", "    b3 = b2 + v2 * r", T_SHANKS),
    # -- picard.py --------------------------------------------------------------
    ("picard-ambiguous-duplicates-kept", PICARD, "            if a == c and b < 0:\n                continue\n", "",
     ["test_picard.py::test_reduced_forms_are_reduced_and_primitive", "test_picard.py::test_class_numbers"]),
    ("picard-power-orders", PICARD, "            orders[k] = n // gcd(j, n)", "            orders[k] = n",
     ["test_picard.py::test_unoriented_count_is_read_off_the_table", "test_cli.py::test_classgroup_and_picard"]),
    ("picard-unoriented-drops-order-2", PICARD, "for k in self.orders if k <= 2)", "for k in self.orders if k < 2)",
     ["test_picard.py::test_unoriented_count_is_read_off_the_table", "test_cli.py::test_every_verb_answers_byte_for_byte_as_recorded[picard]"]),
    ("picard-orbits-ignore-conjugates", PICARD, "        seen.update((i, _class_index(t, nm, conjs, C)))", "        seen.add(i)",
     ["test_picard.py::test_pic_counts_examples", C08]),
    ("picard-conjugate-of-the-first-representative", PICARD, "conjs.append(_conjugate_basis(t, B))",
     "conjs.append(_conjugate_basis(t, reps[0]))",
     ["test_picard.py::test_pic_counts_examples", "test_picard.py::test_ideal_class_enumeration_matches"]),
    ("picard-principal-drops-s", PICARD, "_is_principal(t, nm, p, s, r)", "_is_principal(t, nm, p, 0, r)",
     ["test_picard.py::test_pic_counts_examples", C08]),
    ("picard-invariant-factor-step", PICARD, "                factors[i] *= p\n", "                factors[i] *= p * p\n",
     ["test_picard.py::test_class_group_structure", "test_cli.py::test_classgroup_and_picard"]),
    # -- cli.py: the verb-table parser and the answers -----------------------------
    ("cli-ambiguity-refusal-dropped", CLI, "    if len(hits) > 1:", "    if False:", T_CLI),
    ("cli-ambiguity-after-help-dropped", CLI, "        elif any(t[:3] == \"--=\" for t in takewhile(\"--\".__ne__, it)):",
     "        elif False:", T_CLI),
    ("cli-last-dashes-kept", CLI, "extra + ([] if rest or after_pos else [tok])", "extra", T_CLI),
    ("cli-hh-is-not-help", CLI, "re.fullmatch(r\"-h(=?h+)?\", tok)", "tok == \"-h\"", T_CLI),
    ("cli-negative-numbers-are-options", CLI, "re.match(r\"^-\\d+$|^-\\d*\\.\\d+$\", tok) or \" \" in tok", "\" \" in tok", T_CLI),
    ("cli-value-lookahead-dropped", CLI, "(value == \"--\" or _match(value, flags))", "value == \"--\"", T_CLI),
    ("cli-spaced-tokens-are-options", CLI, " or \" \" in tok else (\"\", None)", " else (\"\", None)", T_CLI),
    ("cli-verb-compared-in-dispatch", CLI, "    args.ring = _ring(args.ring)\n",
     "    args.ring = _ring(args.ring)\n    if args.verb == \"disc\":\n        pass\n", T_CLI),
    ("cli-unoriented-is-the-order", CLI, "\"unoriented\": g.unoriented", "\"unoriented\": g.order", T_CLI),
    ("cli-abbreviations-refused", CLI, ".replace(\"_\", \"-\").startswith(name)]", ".replace(\"_\", \"-\") == name]", T_CLI),
    ("cli-positional-count-off-by-one", CLI, "len(pos) < len([n for n in names if n[-1] != \"?\"])",
     "len(pos) <= len([n for n in names if n[-1] != \"?\"])", T_CLI),
    ("cli-ring-int-flag-refused", CLI, "    if flag in (None, \"int\"):", "    if flag is None:", T_CLI),
    ("init-package-class-not-set", INIT, "sys.modules[__name__].__class__ = _Package\n", "", T_CLI),
]


def _copy(tmp: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, tmp / name)


def run(entry) -> str:
    """'killed', 'survived', or why the entry could not be tried."""
    _, file, old, new, tests = entry
    with tempfile.TemporaryDirectory(prefix="binquad-mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        path = tmp / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"error: old text occurs {text.count(old)} times"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        # one Hypothesis seed, so that a run can be repeated
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                *(f"tests/{t}" for t in tests)]
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
        except subprocess.TimeoutExpired:
            return "killed"  # the tests did not pass within the time
    # 1: a test failed; 2: collection stopped, on an error raised at import
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, f"error: pytest exited {done.returncode}")


def main() -> int:
    start, outcomes = time.perf_counter(), {}
    for entry in CATALOGUE:
        outcome = outcomes[entry[0]] = run(entry)
        print(f"{outcome:<9} {entry[0]}  ({entry[1].rsplit('/', 1)[1]}: {' '.join(entry[4])})", flush=True)
    bad = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
