"""Tooling: every JSON config in README.md passes validation."""

import json
import re
from pathlib import Path

from preqholo.config import Scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_json_block_of_the_readme_is_a_valid_scenario():
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3  # the schema and the two examples
    for block in blocks:
        Scenario.from_dict(json.loads(block))
