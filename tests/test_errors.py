import inspect
import re
from pathlib import Path

from binquad import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "binquad"


def test_every_leaf_error_is_raised_somewhere():
    # a leaf exception class that no module constructs is dead code
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.BinquadError)]
    leaves = [c.__name__ for c in classes if not any(o is not c and issubclass(o, c) for o in classes)]
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "errors.py")
    assert sorted(n for n in leaves if not re.search(rf"\b{n}\(", text)) == []
