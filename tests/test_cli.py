import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import binquad
import binquad.compose as composition
from binquad import cli, norm, picard
from binquad.cli import run

INT_RING = '{"ring":{"ring":"int"}}'


def form_json(a, b, c):
    return json.dumps({"a": a, "b": b, "c": c, "ring": {"ring": "int"}})


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_disc_golden(capsys):
    code = run(["disc", form_json(2, 1, 3)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"classical":-23,"paper":23}\n'


def test_compose_proper_reduce(capsys):
    code, out = run_json(capsys, ["compose", form_json(2, 1, 3), form_json(2, 1, 3), "--proper-reduce"])
    assert code == 0
    assert out == {"a": 2, "b": -1, "c": 3, "ring": {"ring": "int"}}


def test_compose_has_no_oracle_flag(capsys):
    # the classical route is checked against the lattice one in verify
    # and the tests, not offered on the command line
    code = run(["compose", form_json(2, 1, 3), form_json(2, 1, 3), "--oracle"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_similar_not_similar_exit_code(capsys):
    code, out = run_json(capsys, ["similar", form_json(1, 0, 1), form_json(1, 1, 1)])
    assert code == 2
    assert out == {"verdict": "not_similar", "reason": "discriminant"}


def test_similar_positive(capsys):
    code, out = run_json(capsys, ["similar", form_json(2, 1, 3), form_json(2, -1, 3)])
    assert code == 0
    assert out["verdict"] == "similar"
    assert "witness" in out


def test_similar_unknown_exit_code(capsys):
    from binquad.form import SimilarityWitness, bqf
    from binquad.ring import ZZ

    code, out = run_json(capsys, ["similar", form_json(1, 0, -34), form_json(2, 0, -17)])
    assert code == 0 and out["verdict"] == "similar"
    assert SimilarityWitness.from_json(out["witness"], ZZ).verify(bqf(1, 0, -34), bqf(2, 0, -17))
    code, out = run_json(capsys, ["similar", form_json(1, 7, 0), form_json(3, 7, 0)])
    assert code == 3
    assert out == {"verdict": "unknown", "bound": 12}


def test_similar_rational_scaled_form(capsys):
    # (1/2, 0, 9/2) = 1/2 * q(x, 3y) for q = x^2 + y^2: the integral
    # witness search could not find it.
    from fractions import Fraction

    from binquad.form import BinaryQuadraticForm, SimilarityWitness
    from binquad.ring import QQ

    q1, q2 = BinaryQuadraticForm(QQ, 1, 0, 1), BinaryQuadraticForm(QQ, Fraction(1, 2), 0, Fraction(9, 2))
    code, out = run_json(capsys, ["similar", json.dumps(q1.to_json()), json.dumps(q2.to_json())])
    assert code == 0 and out["verdict"] == "similar"
    assert SimilarityWitness.from_json(out["witness"], QQ).verify(q1, q2)


def test_reduce(capsys):
    code, out = run_json(capsys, ["reduce", form_json(4, 5, 3)])
    assert code == 0
    assert out["form"] == {"a": 2, "b": -1, "c": 3, "ring": {"ring": "int"}}
    assert len(out["matrix"]) == 2


def test_dual_and_trace(capsys):
    code, out = run_json(capsys, ["dual", form_json(2, 1, 3)])
    assert code == 0
    assert out == {"a": 3, "b": -1, "c": 2, "ring": {"ring": "int"}}
    code, out = run_json(capsys, ["dual", "--trace", form_json(2, 1, 3)])
    assert code == 0
    assert [st["stage"] for st in out] == [
        "classical",
        "wood",
        "kneser_dual",
        "wood_dual",
        "classical_double_dual",
    ]
    assert out[2]["algebra"] == {"nm": 6, "t": -1}


def test_dualconic_fractions(capsys):
    code, out = run_json(capsys, ["dualconic", form_json(1, 3, 1)])
    assert code == 0
    assert out["a"] == {"den": 5, "num": -4}
    assert out["b"] == {"den": 5, "num": 12}
    assert out["ring"] == {"ring": "rat"}


def test_wood(capsys):
    code, out = run_json(capsys, ["wood", form_json(2, 1, 3)])
    assert code == 0
    assert out == {"a": 3, "b": -1, "c": 2, "ring": {"ring": "int"}}


def test_clifford_verb(capsys):
    code, out = run_json(capsys, ["clifford", form_json(2, 1, 3)])
    assert code == 0
    assert out == {"nm": 6, "t": 1, "ring": {"ring": "int"}}


def test_pair_round_trip(capsys):
    code, pair = run_json(capsys, ["form2pair", form_json(2, 1, 3)])
    assert code == 0
    assert pair["alg"] == {"nm": 6, "t": 1}
    assert pair["m"] == [[1, 3], [-2, 0]]
    code, back = run_json(capsys, ["pair2form", json.dumps(pair)])
    assert code == 0
    assert back == {"a": 2, "b": 1, "c": 3, "ring": {"ring": "int"}}
    code, out = run_json(capsys, ["traceable", json.dumps(pair)])
    assert code == 0 and out == {"traceable": True}


def test_ideal_and_normform(capsys):
    code, ideal = run_json(capsys, ["ideal", form_json(2, 1, 3)])
    assert code == 0
    assert ideal["basis"] == [[2, 1], [0, -1]]
    code, out = run_json(capsys, ["normform", json.dumps(ideal)])
    assert code == 0
    assert out["naive"] == {"a": 4, "b": 2, "c": 6, "ring": {"ring": "int"}}
    assert out["universal"] == {"a": 2, "b": 1, "c": 3, "ring": {"ring": "int"}}


def test_inverse_and_identity(capsys):
    code, out = run_json(capsys, ["inverse", form_json(2, 1, 3)])
    assert code == 0 and out == {"a": 2, "b": -1, "c": 3, "ring": {"ring": "int"}}
    code, out = run_json(capsys, ["identity", '{"t":1,"nm":6,"ring":{"ring":"int"}}'])
    assert code == 0 and out == {"a": 1, "b": 1, "c": 6, "ring": {"ring": "int"}}


def test_classgroup_and_picard(capsys):
    code, out = run_json(capsys, ["classgroup", "-23"])
    assert code == 0
    assert out["h"] == 3 and out["invariant_factors"] == [3]
    assert out["oriented"] == 3 and out["unoriented"] == 2
    assert len(out["forms"]) == 3
    code, out2 = run_json(capsys, ["picard", "-23"])
    assert code == 0 and out2 == out


# stdout of `classgroup D`, or its sha256 where it is long
CLASSGROUP_GOLDEN = {
    -3: '{"forms":[{"a":1,"b":1,"c":1,"ring":{"ring":"int"}}],"h":1,"invariant_factors":[],"oriented":1,"unoriented":1}\n',
    -4: '{"forms":[{"a":1,"b":0,"c":1,"ring":{"ring":"int"}}],"h":1,"invariant_factors":[],"oriented":1,"unoriented":1}\n',
    -23: '{"forms":[{"a":1,"b":1,"c":6,"ring":{"ring":"int"}},{"a":2,"b":-1,"c":3,"ring":{"ring":"int"}},'
    '{"a":2,"b":1,"c":3,"ring":{"ring":"int"}}],"h":3,"invariant_factors":[3],"oriented":3,"unoriented":2}\n',
    -47: '{"forms":[{"a":1,"b":1,"c":12,"ring":{"ring":"int"}},{"a":2,"b":-1,"c":6,"ring":{"ring":"int"}},'
    '{"a":2,"b":1,"c":6,"ring":{"ring":"int"}},{"a":3,"b":-1,"c":4,"ring":{"ring":"int"}},'
    '{"a":3,"b":1,"c":4,"ring":{"ring":"int"}}],"h":5,"invariant_factors":[5],"oriented":5,"unoriented":3}\n',
    -3299: "83dfb559cb31b7326e4f8e3bcc10f746ad2a784483f5e63eba9857041037a0e6",
    -10007: "d8bd2774e7e1c9c49ec9248604f3b06aabe4edbcdb34edcb0b01bc96ac5c0db5",
}


@pytest.mark.parametrize("D", sorted(CLASSGROUP_GOLDEN))
def test_classgroup_golden_runs_no_lattice_code(monkeypatch, capsys, D):
    # the counts are read off the composition table; the lattice route
    # (pic_counts and everything under it) is an oracle for verify and tests
    def refuse(*args, **kwargs):
        raise AssertionError("lattice code ran on a classgroup request")

    for mod in (cli, composition, norm, picard):
        for name in ("pic_counts", "ideal_class_representatives", "ideal_is_principal", "ideal_multiply",
                     "form_to_ideal", "compose"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    want = CLASSGROUP_GOLDEN[D]
    for verb in ("classgroup", "picard"):
        assert run([verb, str(D)]) == 0
        out = capsys.readouterr().out
        assert (out if want.startswith("{") else hashlib.sha256(out.encode()).hexdigest()) == want


def test_classgroup_domain_error(capsys):
    code = run(["classgroup", "7"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "BadDiscriminant"


def test_quat(capsys):
    code, out = run_json(capsys, ["quat", form_json(1, 0, 1), "[0,0,1,0]", "[0,0,0,1]"])
    assert code == 0 and out == [0, 1, 0, 0]
    code, out = run_json(capsys, ["quat", form_json(1, 0, 1), "[1,0,1,0]"])
    assert code == 0
    assert out == {"conj": [1, 0, -1, 0], "norm": 0, "trace": 2}


def test_basechange(capsys):
    hom = '{"src":{"ring":"int"},"dst":{"ring":"mod","n":5}}'
    code, out = run_json(capsys, ["basechange", form_json(1, 1, 6), hom])
    assert code == 0
    assert out == {
        "bimodule_left": "pass",
        "bimodule_right": "pass",
        "even_clifford": "pass",
        "norm_form": "pass",
    }


def test_basechange_into_a_large_prime_field_is_prompt(capsys):
    # Z/(2^61 - 1) is a field; deciding that by trial division used to run
    # for minutes
    hom = json.dumps({"src": {"ring": "int"}, "dst": {"ring": "mod", "n": 2**61 - 1}})
    start = time.perf_counter()
    code, out = run_json(capsys, ["basechange", form_json(1, 1, 1), hom])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out == {
        "bimodule_left": "pass",
        "bimodule_right": "pass",
        "even_clifford": "pass",
        "norm_form": "pass",
    }


def test_ring_flag(capsys):
    code, out = run_json(capsys, ["--ring", "mod:7", "disc", '{"a":2,"b":1,"c":3}'])
    assert code == 0
    assert out == {"classical": 5, "paper": 2}


def test_malformed_json_is_a_usage_error(capsys):
    code = run(["disc", "not json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "usage"


def test_domain_error_exit_code(capsys):
    code = run(["compose", form_json(1, 0, 1), form_json(1, 1, 1)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "NotComposable"


def test_verify_filter(capsys):
    code = run(["verify", "--filter", "class-numbers"])
    out = capsys.readouterr().out
    assert code == 0
    assert "C07 class-numbers: PASS" in out


def test_output_is_canonical_json(capsys):
    run(["disc", form_json(2, 1, 3)])
    out = capsys.readouterr().out
    assert out == out.strip() + "\n"
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n" == out


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    # One process serves every call below with the same parser; options of
    # one call must not leak into the next, and each call must print and
    # return exactly what a fresh `binquad` process does.
    monkeypatch.setenv("COLUMNS", "80")
    z4 = ',"ring":{"ring":"mod","n":4}}'
    q1, q2 = '{"a":0,"b":2,"c":0' + z4, '{"a":2,"b":0,"c":0' + z4
    calls = [
        ["similar", "--help"],
        ["similar", q1, q2, "--bound", "3"],
        ["similar", q1, q2],
        ["--ring", "mod:7", "disc", '{"a":1,"b":5,"c":9}'],
        ["disc", '{"a":1,"b":5,"c":9}'],
        ["similar", q1],
        ["verify", "--filter", "C07"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(binquad.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    for argv in calls:
        code = run(argv)
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "binquad.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_similar_odd_modulus_is_decided_in_time(capsys):
    # x^2 + y^2 and x^2 + 3y^2 are similar over Z/p when 3 is a square mod
    # p, as it is for p = 1009 and p = 10007; a witness search over the
    # units used to run for minutes here.
    from binquad.form import BinaryQuadraticForm, SimilarityWitness
    from binquad.ring import ModularRing

    for n in (1009, 10007):
        R = ModularRing(n)
        q1, q2 = BinaryQuadraticForm(R, 1, 0, 1), BinaryQuadraticForm(R, 1, 0, 3)
        start = time.perf_counter()
        code, out = run_json(capsys, ["similar", json.dumps(q1.to_json()), json.dumps(q2.to_json())])
        assert time.perf_counter() - start < 2
        assert code == 0 and out["verdict"] == "similar"
        assert SimilarityWitness.from_json(out["witness"], R).verify(q1, q2)
