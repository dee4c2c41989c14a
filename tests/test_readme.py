"""The README's simulate-spec table lists exactly what sim.TOPOLOGIES holds,
and every code reference in it names something the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import momabs
from momabs import sim

README = Path(__file__).resolve().parents[1] / "README.md"
FIELD = re.compile(r"`(\w+)`(?: ([\w×]+))?")


def spec_table() -> dict:
    """topology -> (models, links, initial) cells of the README table, each
    as a dict from field name to its shape text ('' for a model)."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| topology "))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, models, links, initial, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = tuple(
            {field: shape or "" for field, shape in FIELD.findall(cell)}
            for cell in (models, links, initial)
        )
    return rows


def test_readme_table_matches_topologies():
    want = {
        name: (
            {model: "" for model in topo.models},
            {link: "×".join(dims) for link, dims in topo.links.items()},
            {state: "×".join(dims) for state, dims in topo.initial.items()},
        )
        for name, topo in sim.TOPOLOGIES.items()
    }
    assert spec_table() == want


def code_spans() -> list:
    """The README's inline code spans, outside fenced blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", text)


def resolves(ref: str) -> bool:
    """Whether a dotted ``momabs.<module>...`` or ``<module>.<name>...`` reference resolves."""
    parts = ref.split(".")
    if parts[0] != "momabs":
        parts = ["momabs", *parts]
    obj = momabs
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:  # a submodule not imported yet, or a missing name
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_readme_code_references_resolve():
    modules = sorted(m.name for m in pkgutil.iter_modules(momabs.__path__))
    reference = re.compile(rf"\b(?:momabs|{'|'.join(modules)})(?:\.\w+)+")
    refs = [ref for span in code_spans() for ref in reference.findall(span)]
    assert refs
    assert [ref for ref in refs if not resolves(ref)] == []
