"""No documentation teaches a storage spelling the program refuses.

A store URL is the only way to name storage.  Outside the short
"Removed spellings" note in ``docs/STORAGE.md`` (which exists to list
them), the README, ``docs/``, ``examples/`` and the verify skill never
mention the removed separate document-store flags, and every
literal ``--store <value>`` there and in the CI workflows parses with
:func:`repro.storage.parse_store_url`.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.storage import parse_store_url

ROOT = Path(__file__).resolve().parents[2]

#: Prose and examples a user copies spellings from.
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    + [p for folder in ("docs", "examples")
       for p in (ROOT / folder).rglob("*") if p.suffix in (".md", ".py")]
)
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))

REMOVED_FLAG = re.compile(r"--doc-?store\b")

#: ``--store VALUE``, ``--store=VALUE`` or the argv-list form
#: ``"--store", "VALUE"``; the value stops at whitespace, quotes,
#: backticks, commas and parentheses.
STORE_VALUE = re.compile(r"""--store(?:=|\s+|",\s*)"?([^\s`"',()]+)""")


def _text(path: Path) -> str:
    """The checked text of ``path``: ``docs/STORAGE.md`` without its
    removed-spellings note."""
    text = path.read_text(encoding="utf-8")
    if path == ROOT / "docs" / "STORAGE.md":
        head, _, note = text.partition("## Removed spellings")
        _, _, tail = note.partition("\n## ")
        text = head + tail
    return text


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", [p for p in DOCUMENTS if p.exists()],
                         ids=_rel)
def test_no_removed_flags(path):
    found = REMOVED_FLAG.findall(_text(path))
    assert not found, f"{_rel(path)} still mentions {sorted(set(found))}"


@pytest.mark.parametrize(
    "path", [p for p in DOCUMENTS + WORKFLOWS if p.exists()], ids=_rel,
)
def test_store_values_are_urls(path):
    for value in STORE_VALUE.findall(_text(path)):
        if value.startswith("$"):  # a shell variable
            continue
        try:
            parse_store_url(value)
        except ValueError as error:
            pytest.fail(f"{_rel(path)}: --store {value}: {error}")
