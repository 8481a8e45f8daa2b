"""The package's top-level names: the README's Library list plus the CLI."""

import re
from pathlib import Path

import tumornet

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_list():
    """The backticked names of the list items in the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_all_is_the_library_list():
    library = _library_list()
    assert len(library) == len(set(library))
    assert sorted(tumornet.__all__) == sorted(library + ["ConfigError", "SweepError", "main"])
    for name in tumornet.__all__:
        assert getattr(tumornet, name) is not None
