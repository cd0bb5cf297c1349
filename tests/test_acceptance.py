"""Acceptance gate: every criterion must pass exactly.

Each criterion prints its own pass/fail line so a full run reads as a
checklist; run with `pytest -s tests/test_acceptance.py` (or through the
CLI: `binquad verify`).
"""

import pytest

from binquad.acceptance import CRITERIA

# The exact `binquad verify` line of each criterion, detail included, so a
# changed count or wording shows up as a failure.
GOLDEN = {
    "C01": "C01 discriminant-identity: PASS (37044 forms over 4 rings)",
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
