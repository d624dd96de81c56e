"""The README's design notes name tests that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_test_the_readme_names_exists():
    named = re.findall(r"`(test_\w+\.py)::(test_\w+)`", (ROOT / "README.md").read_text())
    assert len(named) >= 20
    for path, name in named:
        source = (ROOT / "tests" / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"
