"""The README's simulate-spec table lists exactly what sim.TOPOLOGIES holds."""

import re
from pathlib import Path

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
