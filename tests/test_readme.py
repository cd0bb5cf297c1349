import ast
import re
from graphlib import TopologicalSorter
from pathlib import Path

from binquad.acceptance import CRITERIA
from binquad.cli import VERBS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "binquad"

# Public functions, classes and methods of src/binquad that no other module
# of the library names, no verb answers with and no criterion is, each with
# the reason it stays.
KEPT = {
    "cli.run": "the in-process entry point that the tests and perfbench call",
    "cli.main": "the console script named in pyproject.toml",
    "errors.BinquadError": "the base class that callers catch",
    "clifford.QuadraticAlgebra.norm": "AlgebraWitness.verify reads it, on the witness-check path",
    "form.BinaryQuadraticForm.is_zero": "the zero test that similar and is_primitive read",
    "form.BinaryQuadraticForm.evaluate": "q(x, y), the form as a map, which bounded_witness_search and column_search "
                                         "evaluate",
    "form.BinaryQuadraticForm.polar": "b_q(v, w), which bounded_witness_search and column_search evaluate",
    "form.BinaryQuadraticForm.act": "the GL2 x units action that the README names",
    "form.BinaryQuadraticForm.conjugate": "(a, -b, c), which definite_reduction_oracle compares",
    "form.bqf": "the short constructor of about 300 test call sites",
    "form.SimilarityWitness": "the witness that similar returns",
    "mat2.minv": "perfbench's tracer counts it by name until ROADMAP item 8 drops it",
    "norm.IdealLattice.columns": "the basis as elements, read by the lattice's comparison, hash and canonical basis",
    "norm.IdealLattice.canonical": "the Hermite-canonical basis that the README names",
    "norm.ideal_is_invertible": "a README capability",
    "norm.ideal_is_principal": "a README capability",
    "pairs.normalize_pair": "the paper's normalization of a pair",
    "pairs.wood_pair": "the paper's Wood pair",
    "pairs.PairWitness": "the witness that pairs_isomorphic returns",
    "pairs.PairVerdict": "the verdict that pairs_isomorphic returns",
    "pairs.TraceStage": "a stage of dual_form_trace",
    "picard.ClassGroup": "the value that class_group returns",
    "picard.ideal_class_representatives": "a README capability",
    "ring.Ring.add": "the seed definitions of test_arithmetic are written in it",
    "ring.Ring.mul": "the seed definitions of test_arithmetic are written in it, and ModularRing.half calls it",
    "ring.Ring.sub": "the seed definitions of test_arithmetic are written in it",
}


def test_layout_lists_every_module_once():
    # the Layout block of the README names each module of src/binquad
    # exactly once, so that a rename cannot leave it stale
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\S+\.py)\s", block, flags=re.MULTILINE)
    modules = sorted(p.name for p in (ROOT / "src" / "binquad").glob("*.py"))
    assert sorted(listed) == modules


def test_verbs_list_every_subcommand_once():
    # the README `Verbs:` list names each verb of the CLI's verb table once
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"^Verbs: `([^`]*)`", readme, flags=re.MULTILINE).group(1).split()
    assert sorted(listed) == sorted(VERBS)


def test_readme_names_every_reason():
    # every reason="..." literal that a verdict can carry is explained in
    # the README
    readme = (ROOT / "README.md").read_text()
    text = "\n".join(p.read_text() for p in sorted((ROOT / "src" / "binquad").glob("*.py")))
    reasons = set(re.findall(r'reason="([^"]+)"', text))
    assert "genus" in reasons
    assert sorted(r for r in reasons if not re.search(f'[`"]{r}[`"]', readme)) == []


def _public(tree):
    """(qualified name, name) of each public function, class and method of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_public_name_is_reached_or_kept():
    # each public name is named in another library module, answers a row of
    # cli.VERBS, is a criterion, or has its reason in KEPT; the re-exports of
    # __init__.py do not count as a use
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    named = {
        mod: {getattr(n, "id", None) or getattr(n, "attr", None) or n.name
              for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
        for mod, tree in trees.items()
    }
    rows = [row[3] for row in VERBS.values()] + [fn for _, _, fn in CRITERIA]
    roots = {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}" for fn in rows}
    defined, unreached = set(), []
    for mod, tree in trees.items():
        elsewhere = set().union(*(names for other, names in named.items() if other != mod))
        for qual, name in _public(tree):
            key = f"{mod}.{qual}"
            defined.add(key)
            if name not in elsewhere and key not in roots and key not in KEPT:
                unreached.append(key)
    assert unreached == []
    assert sorted(set(KEPT) - defined) == []


def test_module_imports_form_no_cycle():
    # the module-level `from .x import` statements of src/binquad order the
    # layers, so that any module can be the first a process imports;
    # static_order raises CycleError on a cycle
    graph = {}
    for p in SRC.glob("*.py"):
        graph[p.stem] = {
            name
            for node in ast.parse(p.read_text()).body if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
    order = list(TopologicalSorter(graph).static_order())
    assert order.index("errors") < order.index("ring") < order.index("form")


def test_every_mutant_applies_to_the_source():
    # the catalogue of tests/mutants.py, which is run by hand, keeps step with
    # src: each fault's old text occurs once in its file, and its tests exist:
    # a test file, or a node id whose file defines the named test function
    from mutants import CATALOGUE

    texts, defined = {}, {}
    for name, file, old, _, tests in CATALOGUE:
        text = texts.setdefault(file, (ROOT / file).read_text())
        assert text.count(old) == 1, name
        for t in tests:
            path, _, test = t.partition("::")
            assert (ROOT / "tests" / path).is_file(), name
            if path not in defined:
                tree = ast.parse((ROOT / "tests" / path).read_text())
                defined[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert not test or test.split("[")[0] in defined[path], (name, t)
    assert len({entry[0] for entry in CATALOGUE}) == len(CATALOGUE)
