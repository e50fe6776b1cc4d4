"""Each module imports only the modules before it in the pipeline."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadpic"

# pipeline order; cli and acceptance share the top rank, and a module
# missing here fails the test with a KeyError once it imports a sibling
RANK = {
    "errors": 0,
    "forms": 1,
    "modelfile": 1,
    "fields": 2,
    "twists": 3,
    "tower": 4,
    "decomp": 5,
    "pic": 6,
    "cli": 7,
    "acceptance": 7,
}
EXEMPT = {"__init__", "__main__"}


def test_modules_import_only_earlier_layers():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        # ast.walk also reaches imports made inside functions
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                target = node.module or ""
                if RANK.get(target, RANK[path.stem]) >= RANK[path.stem]:
                    offences.append(f"{path.name}:{node.lineno} imports .{target}")
    assert not offences, offences


def test_no_layer_from_fields_through_pic_imports_json():
    """The JSON file formats live in modelfile: no layer from fields through
    pic reads or writes JSON itself."""
    offences = []
    for path in sorted(SRC.glob("*.py")):
        if not RANK["fields"] <= RANK.get(path.stem, -1) <= RANK["pic"]:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "json" for name in names):
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, offences
