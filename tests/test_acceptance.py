"""Acceptance gate: every criterion must pass exactly.

Each criterion prints its own pass/fail line so a full run reads as a
checklist; run with `pytest -s tests/test_acceptance.py` (or through the
CLI: `binquad verify`).
"""

from collections import Counter, defaultdict
from itertools import product

import pytest

from binquad import acceptance, pairs
from binquad.acceptance import CRITERIA
from binquad.form import BinaryQuadraticForm
from binquad.ring import QQ, ZZ, ModularRing

# The exact `binquad verify` line of each criterion, detail included, so a
# changed count or wording shows up as a failure.
GOLDEN = {
    "C01": "C01 discriminant-identity: PASS (10458 forms over 4 rings)",
    "C02": "C02 bijection-round-trips: PASS (2197 exact round trips, 500 shifted pairs, 19701 oracle pairs)",
    "C03": "C03 traceability: PASS (full grid over 4 rings; split counterexample rejected)",
    "C04": "C04 duality-involution: PASS (involution on 9261 forms; 20 traced forms)",
    "C05": "C05 dual-conic: PASS (1299 forms checked)",
    "C06": "C06 composition-vs-oracle: PASS (1248 pairs across D in [-200,-3]; 495 triples)",
    "C07": "C07 class-numbers: PASS (h(-3..-71) table and C5 structure)",
    "C08": "C08 picard-bijections: PASS (all valid D in [-100, -3], both routes)",
    "C09": "C09 quaternion-axioms: PASS (200 random triples over 20 forms)",
    "C10": "C10 universal-norm: PASS (731 recoveries; 303 lattice pairs)",
    "C11": "C11 base-change: PASS (10985 form/hom combinations)",
    "C12": "C12 automorphisms: PASS (100 random algebras; Z/2 and Z/4 refused)",
}


@pytest.mark.parametrize("key,name,fn", CRITERIA, ids=[f"{k}-{n}" for k, n, _ in CRITERIA])
def test_criterion(key, name, fn):
    ok, detail = fn()
    line = f"{key} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, f"{key} {name}: {detail}"
    assert line == GOLDEN[key]


def _count_forms(monkeypatch):
    """Count the forms the criteria build themselves, per ring and coefficients."""
    built = defaultdict(Counter)
    real = acceptance.BinaryQuadraticForm

    def counted(R, a, b, c):
        q = real(R, a, b, c)
        built[R][q.coeffs()] += 1
        return q

    monkeypatch.setattr(acceptance, "BinaryQuadraticForm", counted)
    return built


@pytest.mark.parametrize("fn", [acceptance.criterion_discriminant_identity, acceptance.criterion_traceability],
                         ids=["C01", "C03"])
def test_ring_grids_build_each_form_once(monkeypatch, fn):
    # the Z box [-10, 10]^3, and over Z/n every one of the n^3 forms exactly once
    built = _count_forms(monkeypatch)
    assert fn()[0]
    want = {ZZ: set(product(range(-10, 11), repeat=3))}
    want.update((ModularRing(n), set(product(range(n), repeat=3))) for n in (5, 7, 9))
    assert {R: set(counts) for R, counts in built.items()} == want
    assert all(k == 1 for counts in built.values() for k in counts.values())


@pytest.mark.parametrize("outer,verdict", [
    (lambda x, y, z: (x, y + 1, z), (False, "double dual not projectively (-5, -5, -5) over Z")),
    (lambda x, y, z: (0, 0, 0), (False, "double dual degenerate at (-5, -5, -5) over Z")),
    (lambda x, y, z: (-3 * x, -3 * y, -3 * z), (True, "1299 forms checked")),
], ids=["not-proportional", "zero", "negative-multiple"])
def test_dual_conic_criterion_is_projective(monkeypatch, outer, verdict):
    # the second dual_conic call of C05 takes a form over Q; change its answer
    real = pairs.dual_conic

    def patched(q):
        dq = real(q)
        return dq if q.ring == ZZ else BinaryQuadraticForm(QQ, *outer(*dq.coeffs()))

    monkeypatch.setattr(pairs, "dual_conic", patched)
    assert acceptance.criterion_dual_conic() == verdict
