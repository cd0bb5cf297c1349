import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import binquad
from binquad import cli, norm, picard
from binquad.cli import VERBS, run
from oracles import build_parser

# binquad.compose names the function re-exported by the package, so the
# module is taken from sys.modules
composition = sys.modules["binquad.compose"]

INT_RING = '{"ring":{"ring":"int"}}'


def form_json(a, b, c):
    return json.dumps({"a": a, "b": b, "c": c, "ring": {"ring": "int"}})


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def assert_usage_error(code, out, err):
    # exit 1, nothing on stdout, and exactly one JSON object on stderr
    assert code == 1 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    obj = json.loads(err)
    assert obj["error"] == "usage" and isinstance(obj["message"], str)


def test_disc_golden(capsys):
    code = run(["disc", form_json(2, 1, 3)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"classical":-23,"paper":23}\n'


def test_answers_take_one_encoder(monkeypatch, capsys):
    # every answer goes through the CLI's one JSONEncoder, with json.dumps's bytes
    def refuse(*args, **kwargs):
        raise AssertionError("an answer built its own encoder")

    argv = ["similar", form_json(2, 1, 3), form_json(3, -1, 2)]
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "__init__", refuse)
    assert run(argv) == 0
    assert capsys.readouterr().out == '{"verdict":"similar","witness":{"m":[[0,-1],[1,0]],"u":1}}\n'


def test_compose_proper_reduce(capsys):
    code, out = run_json(capsys, ["compose", form_json(2, 1, 3), form_json(2, 1, 3), "--proper-reduce"])
    assert code == 0
    assert out == {"a": 2, "b": -1, "c": 3, "ring": {"ring": "int"}}


def test_compose_has_no_oracle_flag(capsys):
    # the classical route is checked against the lattice one in verify
    # and the tests, not offered on the command line
    code = run(["compose", form_json(2, 1, 3), form_json(2, 1, 3), "--oracle"])
    assert code == 1
    captured = capsys.readouterr()
    assert_usage_error(code, captured.out, captured.err)


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
    # D = 49 is a square: the canonical split forms decide it
    code, out = run_json(capsys, ["similar", form_json(1, 7, 0), form_json(3, 7, 0)])
    assert code == 2
    assert out == {"verdict": "not_similar", "reason": "split_form"}
    # a modulus whose least prime factor is past the trial bound
    big = json.dumps({"ring": "mod", "n": 1000003 * 1000033})
    code, out = run_json(capsys, ["similar", '{"a":1,"b":0,"c":1,"ring":%s}' % big, '{"a":1,"b":0,"c":3,"ring":%s}' % big])
    assert code == 3
    assert out == {"verdict": "unknown", "reason": "factoring", "bound": 1000000}


def test_similar_has_no_bound_flag(capsys):
    # no request path searches, so there is no search bound to set
    code = run(["similar", form_json(1, 7, 0), form_json(3, 7, 0), "--bound", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert_usage_error(code, captured.out, captured.err)


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


def test_a_pair_and_its_algebra_name_one_ring(capsys):
    # read mod 5, -2 is 3, which mod 7 would make a module; a ring named by
    # one of the two objects alone, or by both alike, reads as before
    alg7, z5, z7 = '{"t":0,"nm":-3,"ring":{"ring":"mod","n":7}}', '{"ring":"mod","n":5}', '{"ring":"mod","n":7}'
    read = {"pair2form": {"a": 1, "b": 0, "c": 4, "ring": {"n": 7, "ring": "mod"}}, "traceable": {"traceable": True}}
    for verb, want in read.items():
        code = run([verb, '{"alg":%s,"m":[[0,1],[-2,0]],"ring":%s}' % (alg7, z5)])
        out, err = capsys.readouterr()
        assert_usage_error(code, out, err)
        assert json.loads(err)["message"] == "the pair lives over Z/5 but its algebra over Z/7"
        assert run([verb, '{"alg":%s,"m":[[0,1],[-2,0]]}' % alg7]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NotAModule"
        for alg in (alg7, '{"t":0,"nm":-3}'):
            assert run_json(capsys, [verb, '{"alg":%s,"m":[[0,4],[-1,0]],"ring":%s}' % (alg, z7)]) == (0, want)


@pytest.mark.parametrize("ring,name", [('{"ring":"int"}', "Z"), ('{"ring":"mod","n":7}', "Z/7"), ('{"ring":"rat"}', "Q")],
                         ids=["int", "mod", "rat"])
def test_pair_errors_print_json_elements(capsys, ring, name):
    # a matrix that breaks tau^2 = -1, and a module of tau^2 = tau of trace 2
    cases = [
        ("NotAModule", '{"alg":{"t":0,"nm":1},"m":[[1,0],[0,1]],"ring":%s}' % ring,
         f"action matrix [[1, 0], [0, 1]] violates the relation of <1,tau | tau^2 = 0*tau - 1> over {name}"),
        ("NotTraceable", '{"alg":{"t":1,"nm":0},"m":[[1,0],[0,1]],"ring":%s}' % ring,
         f"action matrix [[1, 0], [0, 1]] is not traceable for <1,tau | tau^2 = 1*tau - 0> over {name}"),
    ]
    if name == "Q":
        half = '{"num":1,"den":2}'
        cases += [
            ("NotAModule", '{"alg":{"t":0,"nm":1},"m":[[%s,0],[0,1]],"ring":%s}' % (half, ring),
             'action matrix [[{"num": 1, "den": 2}, 0], [0, 1]] violates the relation of <1,tau | tau^2 = 0*tau - 1> over Q'),
            ("NotTraceable", '{"alg":{"t":0,"nm":{"num":-1,"den":4}},"m":[[%s,0],[0,%s]],"ring":%s}' % (half, half, ring),
             'action matrix [[{"num": 1, "den": 2}, 0], [0, {"num": 1, "den": 2}]] is not traceable for '
             '<1,tau | tau^2 = 0*tau + {"num": 1, "den": 4}> over Q'),
        ]
    for error, pair, message in cases:
        assert run(["pair2form", pair]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": error, "message": message}
        assert "Fraction(" not in err and "Pair(" not in err and "Algebra(" not in err


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
    -10000019: "27e3702dc6a6ba4efacf034d2c2481f105ecdb2316318335707ce80dcaea9430",
}


@pytest.mark.parametrize("D", sorted(CLASSGROUP_GOLDEN))
def test_classgroup_golden_runs_no_lattice_code(monkeypatch, capsys, D):
    # the counts are read off the element orders; the lattice route
    # (pic_counts and everything under it) is an oracle for verify and tests
    def refuse(*args, **kwargs):
        raise AssertionError("lattice code ran on a classgroup request")

    for mod in (cli, composition, norm, picard):
        for name in ("pic_counts", "ideal_class_representatives", "ideal_is_principal", "ideal_multiply",
                     "form_to_ideal", "compose", "_class_bases", "_product_basis", "_product_hermite",
                     "_conjugate_basis", "_is_invertible", "_is_principal"):
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


def test_ring_flag_is_read_once_per_request(capsys, monkeypatch):
    from binquad.ring import ModularRing

    built = []
    init = ModularRing.__init__
    monkeypatch.setattr(ModularRing, "__init__", lambda self, n: built.append(n) or init(self, n))
    # equal forms, and a zero form against a nonzero one, are decided
    # before binquad.modular builds rings of its own
    code, out = run_json(capsys, ["--ring", "mod:7", "similar", '{"a":1,"b":0,"c":3}', '{"a":1,"b":0,"c":3}'])
    assert code == 0 and out["verdict"] == "similar"
    assert built == [7]
    # each request reads its own flag
    code, out = run_json(capsys, ["--ring", "mod:5", "similar", '{"a":1,"b":0,"c":1}', '{"a":0,"b":0,"c":0}'])
    assert code == 2 and out == {"verdict": "not_similar", "reason": "zero"}
    assert built == [7, 5]
    # a bad flag is refused before any input is read, by every verb,
    # whether the verb reads the flag or not
    for argv, message in (
        (["--ring", "mod:x", "similar", "{", "{}"], "bad modulus"),
        (["--ring", "mod:x", "similar", '{"a":1,"b":0,"c":1}', "{"], "bad modulus"),
        (["--ring", "mod:0", "classgroup", "-23"], "modulus must be >= 2"),
        (["--ring", "bogus", "picard", "x"], "bad --ring value"),
        (["--ring=mod:1", "verify", "--filter", "C07"], "modulus must be >= 2"),
    ):
        code = run(argv)
        out, err = capsys.readouterr()
        assert_usage_error(code, out, err)
        assert json.loads(err)["message"].startswith(message)


def test_malformed_json_is_a_usage_error(capsys):
    code = run(["disc", "not json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "usage"


MALFORMED_RINGS_AND_RATIONALS = {
    "zero denominator": '{"a":{"num":1,"den":0},"b":0,"c":1,"ring":{"ring":"rat"}}',
    "string numerator": '{"a":{"num":"1","den":2},"b":0,"c":1,"ring":{"ring":"rat"}}',
    "float denominator": '{"a":{"num":1,"den":2.5},"b":0,"c":1,"ring":{"ring":"rat"}}',
    "bool numerator": '{"a":{"num":true,"den":2},"b":0,"c":1,"ring":{"ring":"rat"}}',
    "bool denominator": '{"a":{"num":1,"den":true},"b":0,"c":1,"ring":{"ring":"rat"}}',
    "string modulus": '{"a":1,"b":0,"c":1,"ring":{"ring":"mod","n":"7"}}',
    "null modulus": '{"a":1,"b":0,"c":1,"ring":{"ring":"mod","n":null}}',
    "float modulus": '{"a":1,"b":0,"c":1,"ring":{"ring":"mod","n":7.5}}',
    "bool modulus": '{"a":1,"b":0,"c":1,"ring":{"ring":"mod","n":true}}',
}


@pytest.mark.parametrize("text", MALFORMED_RINGS_AND_RATIONALS.values(), ids=MALFORMED_RINGS_AND_RATIONALS)
def test_malformed_rings_and_rationals_are_usage_errors(capsys, text):
    code = run(["disc", text])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
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


def test_verify_filter_without_a_match_fails(capsys):
    # a typo must not read as a pass
    code = run(["verify", "--filter", "nosuch"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and "'nosuch'" in err["message"]


def test_output_is_canonical_json(capsys):
    run(["disc", form_json(2, 1, 3)])
    out = capsys.readouterr().out
    assert out == out.strip() + "\n"
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n" == out


def fresh_env() -> dict:
    """The environment of a fresh process that imports binquad from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(binquad.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def fresh(code: str):
    """The JSON that `python -c code` prints in a fresh process."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_parser_reuse_matches_fresh_processes(capsys):
    # One process serves every call below from the same verb table; options
    # of one call must not leak into the next, and each call must print and
    # return exactly what a fresh `binquad` process does.
    z4 = ',"ring":{"ring":"mod","n":4}}'
    q1, q2 = '{"a":0,"b":2,"c":0' + z4, '{"a":2,"b":0,"c":0' + z4
    calls = [
        ["similar", "--help"],
        ["dual", "--trace", q1],
        ["dual", q1],
        ["similar", q1, q2],
        ["--ring", "mod:7", "disc", '{"a":1,"b":5,"c":9}'],
        ["disc", '{"a":1,"b":5,"c":9}'],
        ["similar", q1],
        ["verify", "--filter", "C07"],
    ]
    env = fresh_env()
    for argv in calls:
        code = run(argv)
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "binquad.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv




def test_import_pulls_in_no_dataclasses():
    # the request path's modules import no dataclasses and no inspect (with
    # ast, dis and tokenize behind it), and no argparse or the gettext it
    # imports: their import cost is paid by every fresh process
    code = (
        "import binquad.cli, binquad.pairs, binquad.acceptance, json, sys\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules))))"
    )
    assert fresh(code) == []


FORM_LAYER = ["binquad", "binquad.cli", "binquad.errors", "binquad.form", "binquad.integral", "binquad.mat2",
              "binquad.modular", "binquad.ring"]


def _verify_layers(*layers):
    return sorted(FORM_LAYER + ["binquad.acceptance"] + [f"binquad.{layer}" for layer in layers])


@pytest.mark.parametrize("argv, loaded", [
    (["similar", form_json(2, 1, 3), form_json(3, -1, 2)], FORM_LAYER),
    (["similar", form_json(1, 0, 1), form_json(1, 1, 1)], FORM_LAYER),
    (["disc", form_json(2, 1, 3)], FORM_LAYER),
    (["reduce", form_json(3, 1, 2)], FORM_LAYER),
    (["identity", '{"t":1,"nm":6}'], sorted(FORM_LAYER + ["binquad.clifford"])),
    (["verify", "--filter", "C01"], _verify_layers("clifford")),
    (["verify", "--filter", "C05"], _verify_layers("clifford", "pairs")),
    (["verify", "--filter", "C08"], _verify_layers("clifford", "compose", "norm", "picard")),
    (["verify", "--filter", "C11"], _verify_layers("clifford", "norm")),
])
def test_a_verb_loads_the_layers_it_runs(argv, loaded):
    # similar, disc and reduce run on the form layer alone, so a fresh
    # process that answers them compiles no pairs, ideal lattices,
    # composition or class groups; identity adds only the algebra layer;
    # verify loads the layers of the criteria it runs
    code = (
        "import io, json, sys\nfrom contextlib import redirect_stdout\nfrom binquad.cli import run\n"
        f"with redirect_stdout(io.StringIO()):\n    run({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'binquad')))"
    )
    assert fresh(code) == loaded


@pytest.mark.parametrize("first, loaded", [
    ("binquad", ["binquad"]),
    ("binquad.modular", ["binquad", "binquad.errors", "binquad.modular", "binquad.ring"]),
    ("binquad.integral", ["binquad", "binquad.errors", "binquad.integral", "binquad.mat2", "binquad.modular",
                          "binquad.ring"]),
    ("binquad.acceptance", sorted(set(FORM_LAYER) - {"binquad.cli"} | {"binquad.acceptance"})),
])
def test_an_import_loads_only_the_layers_below_it(first, loaded):
    # the package loads no layer, the similarity kernels load as the first
    # binquad import of a process, without form, and the acceptance suite
    # loads the form layer alone until a criterion runs
    code = f"import json, sys\nimport {first}\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('binquad'))))"
    assert fresh(code) == loaded


# binquad.__all__ as the package listed it when it imported every layer
ALL = [
    "AlgebraWitness", "BinaryQuadraticForm", "ClassGroup", "CliffordPair", "IdealLattice", "IntegerRing",
    "ModularRing", "PairVerdict", "PairWitness", "QQ", "QuadraticAlgebra", "RationalRing", "Ring", "RingHom",
    "SimilarityVerdict", "SimilarityWitness", "ZZ", "algebra_isomorphic", "automorphisms", "base_change_checks",
    "bqf", "class_group", "class_number", "clifford", "clifford_form_to_wood_form", "compose", "content",
    "dirichlet_compose", "dual_conic", "dual_form", "dual_form_trace", "errors", "even_clifford",
    "even_clifford_of_ideal", "form", "form_to_ideal", "form_to_pair", "ideal_class_representatives",
    "ideal_conjugate", "ideal_is_invertible", "ideal_is_principal", "ideal_multiply", "identity_form", "integral",
    "inverse_form", "m_left", "m_right", "mat2", "modular", "naive_norm_form", "norm", "normalize_pair",
    "pair_to_form", "pairs", "pairs_isomorphic", "pic_counts", "picard", "proper_reduce", "properly_equivalent",
    "quat_conj", "quat_mul", "quat_norm", "quat_trace", "reduce_definite", "reduced_forms", "ring",
    "ring_from_json", "similar", "universal_norm_form", "wood_pair",
]


def test_star_import_binds_every_public_name_to_its_definition():
    # a submodule name binds the module and every other name the object its
    # module defines; binquad.compose is the function, as it was re-exported
    code = (
        "import json, sys\nfrom binquad import *\nimport binquad\nsame = []\n"
        "for n in binquad.__all__:\n"
        "    obj, home = globals()[n], sys.modules.get('binquad.' + n)\n"
        "    want = home if home is not None and n != 'compose' else getattr(sys.modules[obj.__module__], n)\n"
        "    same.append(obj is want is getattr(binquad, n))\n"
        "print(json.dumps([binquad.__all__, same.count(True), callable(compose)]))"
    )
    assert fresh(code) == [ALL, len(ALL), True]
    assert binquad.__all__ == ALL


@pytest.mark.parametrize("first", [
    "import binquad.picard",
    "import binquad.acceptance",
    "import binquad.compose",
    "from binquad.cli import run; run(['compose', '{\"a\":2,\"b\":1,\"c\":3}', '{\"a\":2,\"b\":1,\"c\":3}'])",
], ids=["picard", "acceptance", "compose-module", "compose-verb"])
def test_compose_names_the_function_in_every_import_order(first):
    # the submodule binquad.compose is bound on the package whenever a module
    # first imports it; the package's compose stays the composition function
    code = (
        f"import io, json, sys\nfrom contextlib import redirect_stdout\nwith redirect_stdout(io.StringIO()):\n"
        f"    {first}\nimport binquad\nfrom binquad import norm, picard\n"
        "print(json.dumps([binquad.compose is sys.modules['binquad.compose'].compose, norm.__name__, picard.__name__]))"
    )
    assert fresh(code) == [True, "binquad.norm", "binquad.picard"]


Q = form_json(1, 0, 1)
BAD_COMMAND_LINES = {
    "no verb": [],
    "unknown verb": ["nosuch"],
    "missing positional": ["similar", Q],
    "global flag after the verb": ["disc", Q, "--ring", "int"],
    "flag without its value": ["verify", "--filter"],
    "last -- after a flag": ["dual", Q, "--trace", "--"],
    "switch with a value": ["dual", Q, "--trace=yes"],
}


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES)
def test_bad_command_lines_are_json_usage_errors(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert_usage_error(code, captured.out, captured.err)


def test_help_is_read_off_the_verb_table(capsys):
    assert run(["-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: binquad [--ring RING] VERB ...\n") and captured.err == ""
    for verb, (_, _, text, _) in VERBS.items():
        assert f"  {verb:<12}{text}\n" in captured.out
    assert run(["compose", Q, "--help", "--nosuch"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "usage: binquad compose [--proper-reduce] [--twist] form1 form2\n\nGauss composition\n"
    assert captured.err == ""


# One success and one failure case per verb where it has one: argv, then the
# exit code, stdout and stderr recorded for it.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN)
def test_every_verb_answers_byte_for_byte_as_recorded(capsys, case):
    argv, code, out, err = GOLDEN[case]
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


def test_verbs_are_named_once_in_the_cli():
    # VERBS is the one list of verbs: the golden cases reach every row, and
    # cli.py spells each verb once, apart from its uses as a positional's
    # name (normform reads an "ideal")
    assert {next(t for t in argv if t in VERBS) for argv, *_ in GOLDEN.values()} == set(VERBS)
    text = Path(cli.__file__).read_text()
    for verb in VERBS:
        named = sum(names.count(verb) for names, *_ in VERBS.values())
        assert text.count(f'"{verb}"') == 1 + named, verb


_ARGPARSE = build_parser()


def _oracle(argv):
    # ("ok", attributes), ("help",) or ("error",) from the argparse parser
    # the verb table replaced
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return "ok", vars(_ARGPARSE.parse_args(argv))
    except SystemExit as e:
        return ("help",) if e.code == 0 else ("error",)


_OTHER_FLAGS = ["--ring", "--ring=int", "--trace", "--proper-reduce", "--twist", "--filter", "--oracle", "--bound"]
_HELP = ["-h", "--help", "--h", "-hh", "-h=h", "-hx", "--help=1"]


@st.composite
def command_lines(draw):
    """An argv built from the verb table: global flags, a verb, its
    positionals (one short or one over at times), its flags spelled out,
    abbreviated or with "=", flags of other verbs, help, "--" anywhere."""
    head = draw(st.lists(st.sampled_from(["--ring", "mod:7", "--ring=rat", "--r", "--ri=int", "--bogus", "-5"]
                                         + _HELP + ["--", "--=x"]), max_size=3))
    verb = draw(st.sampled_from([*VERBS, "nosuch"]))
    names, flags, _, _ = VERBS.get(verb, ((), {}, "", None))
    count = max(0, len(names) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    tail = [draw(st.sampled_from([Q, "-23", "-1.5", "-.5", "-", "", "x y", "-x y", "--"])) for _ in range(count)]
    for f in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else []:
        spelled = "--" + f.replace("_", "-")
        spelled = spelled[: draw(st.integers(3, len(spelled)))]
        if flags[f] is None:
            tail += draw(st.sampled_from([[spelled, "C07"], [spelled + "=C0"], [spelled + "="], [spelled, "-7"],
                                          [spelled], [spelled, "--"], [spelled, "-h"]]))
        else:
            tail += draw(st.sampled_from([[spelled], [spelled + "=1"], [spelled + "="]]))
    tail += draw(st.lists(st.sampled_from(_OTHER_FLAGS + _HELP + ["-x", "-1e5", "---", "--=x", "--", "3"]), max_size=2))
    tail = draw(st.permutations(tail))
    if draw(st.booleans()):
        tail.insert(draw(st.integers(0, len(tail))), "--")
    return head + [verb] + tail


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["--ring=mod:7", "disc", Q])
@example(["--r", "rat", "compose", "--twist", Q, "--proper", Q])
@example(["verify", "--fil=C07"])
@example(["classgroup", "-23"])
@example(["dual", "--", "--trace"])
@example(["quat", Q, "[1,0,0,0]"])
@example(["similar", Q, "--", "--"])
@example(["dual", "-x y"])
def test_parser_reads_command_lines_as_argparse_did(argv):
    # Python 3.11's argparse drops a literal "--" that follows the first
    # "--" from the positional it lands on: a required one then read [],
    # on which the verb crashed with a TypeError, and quat's w read as
    # absent.  The table parser keeps it as the operand "--", so the oracle
    # is asked with those operands renamed.
    cut = argv.index("--") + 1 if "--" in argv else len(argv)
    want = _oracle(argv[:cut] + ["<dashes>" if t == "--" else t for t in argv[cut:]])
    if want[0] == "ok":
        assert vars(cli._parse(argv)) == {k: "--" if v == "<dashes>" else v for k, v in want[1].items()}
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    if want[0] == "error":
        assert_usage_error(code, out.getvalue(), err.getvalue())
    else:
        assert code == 0 and out.getvalue().startswith("usage: binquad") and err.getvalue() == ""


_RING_FLAGS = ["int", "rat", "mod:7", "mod:12", "bogus", "mod:x", "mod:0", "mod:1"]
_RINGS = [{"ring": "int"}, {"ring": "rat"}, {"ring": "mod", "n": 7}, {"ring": "mod", "n": 12}, {"ring": "mod", "n": 0},
          {"ring": "bogus"}, "int"]


@st.composite
def _elem(draw):
    kind = draw(st.sampled_from(["int"] * 6 + ["frac", "bad"]))
    if kind == "int":
        return draw(st.integers(-30, 30))
    if kind == "frac":
        return {"num": draw(st.integers(-9, 9)), "den": draw(st.integers(-4, 4))}
    return draw(st.sampled_from([None, "1", 1.5, True, [1], {"num": 1}]))


@st.composite
def _obj(draw, keys, ring=True):
    """A JSON object with keys, which at times lacks one or carries a ring of its own."""
    obj = {k: draw(_elem()) for k in keys}
    if obj and draw(st.integers(0, 9)) == 0:
        del obj[draw(st.sampled_from(sorted(obj)))]
    if ring and draw(st.booleans()):
        obj["ring"] = draw(st.sampled_from(_RINGS))
    return obj


@st.composite
def _operand(draw, name):
    """The JSON text of a positional, read off its name in the verb table:
    well formed, of the wrong shape, or malformed and truncated."""
    a, b, c = (draw(st.integers(-12, 12)) for _ in range(3))
    if name in ("form", "form1", "form2"):
        obj = {"a": a, "b": b, "c": c} if draw(st.booleans()) else draw(_obj("abc"))
        if draw(st.booleans()):
            obj["ring"] = draw(st.sampled_from(_RINGS[:4]))
    elif name == "pair":  # the pair of (a, b, c), or any matrix
        m = [[b, c], [-a, 0]] if draw(st.booleans()) else [[draw(_elem()) for _ in "xy"] for _ in "xy"]
        obj = {"alg": {"t": b, "nm": a * c}, "m": m}
        if draw(st.booleans()):
            obj["ring"] = draw(st.sampled_from(_RINGS))
    elif name == "algebra":
        obj = draw(_obj(("t", "nm")))
    elif name == "ideal":  # the ideal of (2, 1, 3), or any basis
        basis = [[2, 1], [0, -1]] if draw(st.booleans()) else [[draw(_elem()) for _ in "xy"] for _ in "xy"]
        obj = {"alg": draw(_obj(("t", "nm"), ring=False)) if draw(st.booleans()) else {"t": 1, "nm": 6}, "basis": basis}
    elif name == "D":
        return draw(st.sampled_from([str(draw(st.integers(-10**4, 10**4))), "-23", "x", "1.5", "", "-10000"]))
    elif name in ("z", "w"):
        obj = [draw(_elem()) for _ in range(draw(st.sampled_from([4, 4, 4, 3])))]
    else:  # hom
        obj = {"src": draw(st.sampled_from(_RINGS)), "dst": draw(st.sampled_from(_RINGS))}
    text = json.dumps(obj)
    cut = draw(st.sampled_from(["whole"] * 4 + ["truncated", "garbage"]))
    if cut == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    return draw(st.sampled_from(["{", "[1,2", "nul", "", "{}", "[]", "7"])) if cut == "garbage" else text


@st.composite
def cli_requests(draw):
    """An argv for one verb other than verify, with its operands and switches
    and at times a --ring flag, good or bad."""
    verb = draw(st.sampled_from([v for v in VERBS if v != "verify"]))
    names, flags, _, _ = VERBS[verb]
    head = ["--ring", draw(st.sampled_from(_RING_FLAGS))] if draw(st.booleans()) else []
    tail = [draw(_operand(n.rstrip("?"))) for n in names if n[-1] != "?" or draw(st.booleans())]
    tail += ["--" + f.replace("_", "-") for f in flags if draw(st.booleans())]
    return head + [verb] + tail


# a request takes milliseconds; the deadline flags one that takes seconds
@settings(max_examples=300, deadline=2000)
@given(cli_requests())
@example(["--ring", "bogus", "classgroup", "-23"])
@example(["--ring", "mod:0", "normform", '{"alg":{"t":1,"nm":6},"basis":[[2,1],[0,-1]]}'])
@example(["dual", '{"a":2,"b":1,"c":3}', "--trace"])
@example(["similar", '{"a":1,"b":0,"c":1,"ring":{"ring":"mod","n":12}}', '{"a":1,"b":0,'])
def test_every_verb_answers_any_request_with_one_json_line(argv):
    # any request ends in an exit code of the CLI's four, with one line of
    # JSON on stdout or one error object on stderr, and no traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and (out == "") != (err == ""), (argv, out, err)
    text = out or err
    assert text.endswith("\n") and text.count("\n") == 1, argv
    obj = json.loads(text)
    if err:
        assert code in (1, 2) and set(obj) == {"error", "message"}, argv
    else:  # dual --trace and quat's product answer with a list
        assert isinstance(obj, (dict, list)), argv


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


def test_similar_even_modulus_and_square_discriminant_in_time(capsys):
    # Z/2018 = Z/2 x Z/1009 and Z/(2^20 * 1009) are decided prime power by
    # prime power, and D = 49 by canonical split forms.
    from binquad.form import BinaryQuadraticForm, SimilarityWitness
    from binquad.ring import ModularRing, ZZ

    cases = [
        (ModularRing(2018), (1, 0, 1), (1, 0, 3)),
        (ModularRing(2**20 * 1009), (1, 0, 1), (1, 0, 41)),
        (ZZ, (1, 7, 0), BinaryQuadraticForm(ZZ, 1, 7, 0).act(((2, 3), (1, 2)), -1).coeffs()),
    ]
    for R, f, g in cases:
        q1, q2 = BinaryQuadraticForm(R, *f), BinaryQuadraticForm(R, *g)
        start = time.perf_counter()
        code, out = run_json(capsys, ["similar", json.dumps(q1.to_json()), json.dumps(q2.to_json())])
        assert time.perf_counter() - start < 2
        assert code == 0 and out["verdict"] == "similar"
        assert SimilarityWitness.from_json(out["witness"], R).verify(q1, q2)


def test_oversized_integer_in_json_is_a_usage_error(capsys):
    code = run(["disc", '{"a":' + "7" * 5000 + ',"b":0,"c":1}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and str(sys.get_int_max_str_digits()) in err["message"]


def test_deeply_nested_json_on_stdin_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
    code = run(["disc", "-"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


def test_answer_past_the_digit_limit_is_a_usage_error(capsys):
    # the input is valid, but b^2 - 4ac has 6001 digits
    code = run(["disc", form_json(10**3000, 0, 10**3000)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and f"{sys.get_int_max_str_digits()}-digit" in err["message"]


def test_error_message_past_the_digit_limit_is_a_usage_error(capsys):
    # the discriminants differ, and NotComposable's message would print one
    # with 6001 digits
    big = str(10**3000)
    code = run(["compose", '{"a":' + big + ',"b":1,"c":' + big + "}", '{"a":1,"b":1,"c":1}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and f"{sys.get_int_max_str_digits()}-digit" in err["message"]


def test_other_value_errors_are_not_caught(monkeypatch):
    def broken(args):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(cli, "_dispatch", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        run(["disc", form_json(1, 0, 1)])


@pytest.mark.parametrize("ring, n, shown", [({"ring": "rat"}, 5, "Q"), ({"ring": "mod", "n": 5}, 3, "Z/5")])
def test_basechange_rejects_a_hom_from_another_ring(capsys, ring, n, shown):
    # checked anyway, a Z/5 form under Z -> Z/3 would fail bimodule_left,
    # which reads as base change not being functorial
    form = json.dumps({"a": 1, "b": 3, "c": 1, "ring": ring})
    hom = json.dumps({"src": {"ring": "int"}, "dst": {"ring": "mod", "n": n}})
    code = run(["basechange", form, hom])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "usage", "message": f"hom starts at Z but the form lives over {shown}"}
