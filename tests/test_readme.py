import re
from pathlib import Path

from binquad.cli import VERBS

ROOT = Path(__file__).resolve().parents[1]


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
