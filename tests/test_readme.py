"""Tooling: every JSON config in README.md passes validation, its registry
bullets list exactly the entries of the registries and their parameters, and
every name it quotes from a package module exists."""

import importlib
import json
import re
from pathlib import Path

import pytest

from preqholo.config import FAMILIES, HAMILTONIANS, Scenario

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "preqholo"


def test_every_json_block_of_the_readme_is_a_valid_scenario():
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3  # the schema and the two examples
    for block in blocks:
        Scenario.from_dict(json.loads(block))


def _readme_registry(section: str) -> dict:
    """{name: parameters} of the entries listed under the README bullet '- `<section>` registry:'."""
    block = re.search(rf"^- `{section}` registry:\n((?:  .*\n)+)", README.read_text(), flags=re.MULTILINE)
    entries = re.findall(r"^  - `([\w-]+) \{(.*?)\}`", block.group(1), flags=re.MULTILINE)
    return {name: [p.strip() for p in params.split(",") if p.strip()] for name, params in entries}


@pytest.mark.parametrize("section, registry", [("hamiltonian", HAMILTONIANS), ("family", FAMILIES)])
def test_the_readme_lists_every_registry_entry_with_its_parameters(section, registry):
    assert _readme_registry(section) == {name: list(readers) for name, (_, readers, _) in registry.items()}


def test_every_name_the_readme_quotes_from_a_package_module_exists():
    # a quoted `module.name` of a package module (`dynamics.linear_axis`,
    # also as the start of a call such as `dynamics.constant_axis(w)`) must
    # be an attribute of that module, so that a deleted or renamed name
    # cannot stay in the docs; a file of the package such as `dop853.py` is
    # no name
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    quoted = set(re.findall(r"`(\w+)\.(\w+)", README.read_text()))
    names = sorted((module, name) for module, name in quoted if module in modules)
    names = [(module, name) for module, name in names if not (PACKAGE / f"{module}.{name}").exists()]
    assert len(names) >= 20
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"preqholo.{module}"), name)]
    assert missing == []
