"""Pairs (quadratic algebra, traceable rank-2 module) and their exact
correspondence with binary quadratic forms, plus the duality operations:
Wood's alternative normalization, the dual form on the dual module, and
dual conics over the rationals.

The correspondence is two inverse maps: `pair_to_form` reads the form
straight off the action matrix of a traceable pair, and `form_to_pair`
gives a form's (even algebra, left action matrix).  Normalization and
the Wood pair are built from the two.  Pair isomorphism is decided by
one route: form similarity, whose witness is transported to a pair
witness; no search runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .clifford import (
    AlgebraWitness,
    QuadraticAlgebra,
    even_clifford,
    m_left,
    module_axiom_holds,
)
from .errors import NotAModule, NotAPerfectSquare, NotTraceable, UsageError
from .form import BinaryQuadraticForm, SimilarityVerdict, _cleared, similar
from .mat2 import mat, mat_from_json, mat_to_json, mdet
from .ring import IntegerRing, QQ, RationalRing, Ring, RingHom, Value, fraction_sqrt, json_ring


class CliffordPair(Value):
    __slots__ = ("alg", "m")

    def __init__(self, alg: QuadraticAlgebra, m: tuple):
        Value.__init__(self, alg, mat(alg.ring, m))
        if not module_axiom_holds(alg, self.m):
            m = json.dumps(mat_to_json(alg.ring, self.m))
            raise NotAModule(f"action matrix {m} violates the relation of {alg}")

    @property
    def ring(self) -> Ring:
        return self.alg.ring

    def is_traceable(self) -> bool:
        return self.ring.normalize(self.m[0][0] + self.m[1][1]) == self.alg.t

    def to_json(self) -> dict:
        e = self.ring.elem_to_json
        return {
            "alg": {"t": e(self.alg.t), "nm": e(self.alg.nm)},
            "m": mat_to_json(self.ring, self.m),
            "ring": self.ring.to_json(),
        }

    @staticmethod
    def from_json(obj, default_ring: Optional[Ring] = None) -> "CliffordPair":
        ring = json_ring(obj, ("alg", "m"), "a pair", default_ring)
        alg = QuadraticAlgebra.from_json(obj["alg"], default_ring=ring)
        if "ring" in obj and alg.ring != ring:
            raise UsageError(f"the pair lives over {ring!r} but its algebra over {alg.ring!r}")
        return CliffordPair(alg, mat_from_json(ring, obj["m"]))


def pair_to_form(p: CliffordPair) -> BinaryQuadraticForm:
    """Read (a, b, c) = (-m10, m00 - m11, m01) off the action matrix.

    Shifting tau by s = m11 leaves [[b, c], [-a, 0]] with t' = t - 2s
    and nm' = nm - t*s + s^2; traceability gives b = t', and the (2,2)
    entry of the module relation gives a*c = nm', over every ring.
    """
    if not p.is_traceable():
        m = json.dumps(mat_to_json(p.ring, p.m))
        raise NotTraceable(f"action matrix {m} is not traceable for {p.alg}")
    (m00, m01), (m10, m11) = p.m
    return BinaryQuadraticForm(p.ring, -m10, m00 - m11, m01)


def form_to_pair(q: BinaryQuadraticForm) -> CliffordPair:
    return CliffordPair(even_clifford(q), m_left(q))


def normalize_pair(p: CliffordPair):
    """Shift the generator so the action matrix gets a zero lower-right
    entry m: returns (form_to_pair(pair_to_form(p)), m).  Kept as the paper's
    normalization of a pair, though only the tests call it."""
    return form_to_pair(pair_to_form(p)), p.m[1][1]


class PairWitness(Value):
    """psi in GL2 and an algebra witness phi with psi*M = phi(tau)'*psi."""

    __slots__ = ("psi", "phi")

    def __init__(self, psi: tuple, phi: AlgebraWitness):
        _set_psi(self, psi)
        _set_phi(self, phi)

    def verify(self, p: CliffordPair, p2: CliffordPair) -> bool:
        """psi*M == (k + eps*M2)*psi, compared entry by entry."""
        R = p.ring
        if not R.is_unit(mdet(R, self.psi)) or not self.phi.verify(p2.alg, p.alg):
            return False
        ((e, f), (g, h)), ((m00, m01), (m10, m11)), ((n00, n01), (n10, n11)) = self.psi, p.m, p2.m
        k, eps, n = self.phi.k, self.phi.eps, R.normalize
        return (
            n(e * m00 + f * m10 - k * e - eps * (n00 * e + n01 * g)) == 0
            and n(e * m01 + f * m11 - k * f - eps * (n00 * f + n01 * h)) == 0
            and n(g * m00 + h * m10 - k * g - eps * (n10 * e + n11 * g)) == 0
            and n(g * m01 + h * m11 - k * h - eps * (n10 * f + n11 * h)) == 0
        )

    def to_json(self, ring: Ring) -> dict:
        return {"psi": mat_to_json(ring, self.psi), **self.phi.to_json(ring)}


class PairVerdict(Value):
    __slots__ = ("verdict", "witness", "reason", "bound")  # verdict: "isomorphic" | "not_isomorphic" | "unknown"

    def __init__(self, verdict: str, witness: Optional[PairWitness] = None, reason=None, bound=None):
        _set_verdict(self, verdict)
        _set_witness(self, witness)
        _set_reason(self, reason)
        _set_bound(self, bound)

    @property
    def is_isomorphic(self) -> bool:
        return self.verdict == "isomorphic"

    to_json = SimilarityVerdict.to_json  # verdict, then witness, reason and bound where set


_set_psi, _set_phi = PairWitness._setters
_set_verdict, _set_witness, _set_reason, _set_bound = PairVerdict._setters


def _witness_from_similarity(p, p2, shift1, shift2, q2, simw) -> Optional[PairWitness]:
    """Pair witness transported from a form-similarity witness.

    With q2(Wv) = u*q1(v), the module map is W itself and the algebra
    generator goes to u^{-1} * W(e1)W(e2) computed in the rank-4 algebra
    of q2, i.e. k0 + eps*tau with eps = det(W)/u; the normalization
    shifts of the two pairs then move k0 back to the original
    generators."""
    R = p.ring
    if not R.is_unit(simw.u):
        return None
    ui = R.inv(simw.u)
    W = simw.m
    v1, v2 = W[0][0], W[1][0]
    w1, w2 = W[0][1], W[1][1]
    a2, b2, c2 = q2.coeffs()
    # W(e1) * W(e2) = [v1 w1 a2 + v2 w2 c2 + v2 w1 b2] + det(W) tau
    k0 = ui * (v1 * w1 * a2 + v2 * w2 * c2 + v2 * w1 * b2)
    eps = R.normalize(ui * mdet(R, W))
    k = R.normalize(k0 + shift1 - eps * shift2)
    witness = PairWitness(W, AlgebraWitness(k, eps))
    return witness if witness.verify(p, p2) else None


def pairs_isomorphic(p: CliffordPair, p2: CliffordPair) -> PairVerdict:
    """Decide pair isomorphism by converting to forms.

    Both pairs must be traceable.  The read-off forms are compared with
    `similar`, which decides every case by invariants: a similarity
    witness is transported into an explicit (psi, phi) witness and
    verified, a non-similarity keeps its reason, and an `unknown` (a
    modulus that cannot be factored, or cycles past the cycle limit)
    keeps its reason and bound.  Nothing is searched.
    """
    if not p.is_traceable() or not p2.is_traceable():
        raise NotTraceable("pair isomorphism is defined for traceable pairs")
    q2 = pair_to_form(p2)
    verdict = similar(pair_to_form(p), q2)
    if verdict.verdict == "not_similar":
        return PairVerdict("not_isomorphic", reason=verdict.reason)
    if verdict.verdict == "unknown":
        return PairVerdict("unknown", reason=verdict.reason, bound=verdict.bound)
    w = _witness_from_similarity(p, p2, p.m[1][1], p2.m[1][1], q2, verdict.witness)
    if w is None:
        raise AssertionError("similarity transport produced a bad pair witness")
    return PairVerdict("isomorphic", witness=w)


# -- Wood normalization and duality ---------------------------------------


def dual_form(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """(a, b, c) -> (c, -b, a), an exact involution: the induced form on the
    dual module, and, as clifford_form_to_wood_form, the same pair read in the
    normalization tau*x = -c'*y - b'*x, tau*y = a'*x, tau^2 = -b'*tau - a'*c'."""
    return BinaryQuadraticForm(q.ring, q.c, -q.b, q.a)


clifford_form_to_wood_form = dual_form


def wood_pair(w: BinaryQuadraticForm) -> CliffordPair:
    """The pair carved out of a form read as Wood data [A, B, C]; kept as the
    paper's dictionary entry, though only the tests call it."""
    return form_to_pair(clifford_form_to_wood_form(w))


class TraceStage(Value):
    __slots__ = ("label", "module", "form", "pair")  # module: "E" or "E_dual"

    def __init__(self, label: str, module: str, form: BinaryQuadraticForm, pair: Optional[CliffordPair] = None):
        Value.__init__(self, label, module, form, pair)

    def to_json(self) -> dict:
        out = {"stage": self.label, "module": self.module, "form": self.form.to_json()}
        if self.pair is not None:
            pj = self.pair.to_json()
            out["algebra"] = pj["alg"]
            out["action"] = pj["m"]
        return out


def dual_form_trace(q: BinaryQuadraticForm):
    """The five stages carrying q to its dual and back.

    1. q on E with its Clifford pair;
    2. the Wood reading (c, -b, a) on E;
    3. (c, -b, a) as a form on the dual module, with the shifted
       generator's relations (its own Clifford pair);
    4. the Wood reading of stage 3, which is (a, b, c) on the dual;
    5. (a, b, c) back on the double dual = E.
    """
    w = clifford_form_to_wood_form(q)
    dual = dual_form(q)
    stages = [
        TraceStage("classical", "E", q, form_to_pair(q)),
        TraceStage("wood", "E", w),
        TraceStage("kneser_dual", "E_dual", dual, form_to_pair(dual)),
        TraceStage("wood_dual", "E_dual", clifford_form_to_wood_form(dual)),
        TraceStage("classical_double_dual", "E", dual_form(dual)),
    ]
    return stages


def dual_conic(q: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The form cut out by the tangent lines of the conic q = 0.

    Nondegenerate case: (4c, -4b, 4a)/(4ac - b^2) = (4CL, -4BL, 4AL)/(4AC - B^2) over Q, q = (A, B, C)/L.
    Degenerate case q = (alpha*x + beta*y)^2: the exact limit of duals of
    nearby nondegenerate forms, (beta*x - alpha*y)^2.
    """
    R = q.ring
    if not isinstance(R, (IntegerRing, RationalRing)):
        raise UsageError("dual conics are computed over the rationals")
    (A, B, C), L = _cleared(*q.coeffs())
    d4 = 4 * A * C - B * B
    if d4 != 0:
        return BinaryQuadraticForm(QQ, Fraction(4 * L * C, d4), Fraction(-4 * L * B, d4), Fraction(4 * L * A, d4))
    if isinstance(R, IntegerRing):
        q = q.map(RingHom(R, QQ))
    a, b, c = q.coeffs()
    alpha = fraction_sqrt(a)
    if alpha is None:
        raise NotAPerfectSquare(f"{q} has zero determinant but {a} is not a square")
    if alpha != 0:
        beta = b / (2 * alpha)  # beta^2 = b^2/4a = c, as b^2 = 4ac
    else:
        # a = 0 and det = 0 force b = 0
        beta = fraction_sqrt(c)
        if beta is None:
            raise NotAPerfectSquare(f"{q} has zero determinant but {c} is not a square")
    return BinaryQuadraticForm(QQ, beta * beta, -2 * alpha * beta, alpha * alpha)
