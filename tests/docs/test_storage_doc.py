"""``docs/STORAGE.md`` is generated-checked against the code.

The storage document's load-bearing claims are diffed against their
sources of truth: the URL scheme list against
``repro.storage.SCHEMES``, the pragma table against
``repro.storage.sqlite.PRAGMAS``, and the removed-spellings table
against what :func:`repro.storage.parse_store_url` refuses and
accepts.  The ``>>>`` examples run via
``tests/docs/test_doc_examples.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.storage import SCHEMES, parse_store_url
from repro.storage.sqlite import PRAGMAS

DOC = Path(__file__).resolve().parents[2] / "docs" / "STORAGE.md"

#: A pragma-table row looks like ``| `journal_mode` | `wal` | ... |``.
PRAGMA_ROW = re.compile(r"^\| `([a-z_]+)` \| `([a-z0-9]+)` \|",
                        re.MULTILINE)

#: A removed-spellings row: ``| `old spelling` | `replacement` |``.
REMOVED_ROW = re.compile(r"^\| `([^`]+)` \| `([^`]+)` \|$", re.MULTILINE)

#: The store value in a CLI spelling (any ``--...store`` flag) or a
#: ``ServeConfig(..._path="...")`` call.
STORE_VALUE = re.compile(r"--[a-z-]*store (\S+)|_path=\"([^\"]*)\"")


def test_document_exists():
    assert DOC.is_file(), "docs/STORAGE.md is missing"


def test_every_scheme_documented():
    """Each URL scheme the parser accepts appears as ``scheme://``."""
    text = DOC.read_text()
    for scheme in SCHEMES:
        assert f"{scheme}://" in text, (
            f"store URL scheme {scheme!r} is not documented"
        )


def test_pragma_table_matches_code():
    """The documented pragma table is exactly ``PRAGMAS`` -- name,
    value, and order (the table reads in application order)."""
    documented = PRAGMA_ROW.findall(DOC.read_text())
    expected = [(name, str(value)) for name, value in PRAGMAS]
    assert documented == expected, (
        "docs/STORAGE.md pragma table has drifted from "
        f"repro.storage.sqlite.PRAGMAS:\n  documented: {documented}\n"
        f"  code:       {expected}"
    )


def _removed_rows() -> list[tuple[str, str]]:
    """The ``(removed, use instead)`` rows of the removed-spellings
    note."""
    note = DOC.read_text().split("## Removed spellings", 1)[1]
    return REMOVED_ROW.findall(note.split("\n## ", 1)[0])


def _store_value(spelling: str) -> str:
    match = STORE_VALUE.search(spelling)
    assert match, f"no store value in {spelling!r}"
    return match.group(1) or match.group(2)


def test_migration_documents_deprecated_spellings():
    """Every deprecated spelling has a migration row: each row of the
    removed-spellings note pairs a value the parser refuses with a
    store URL it accepts (one row per removed serve, load and
    ``ServeConfig`` spelling)."""
    rows = _removed_rows()
    assert len(rows) >= 5, rows
    for old, new in rows:
        with pytest.raises(ValueError):
            parse_store_url(_store_value(old))
        parse_store_url(_store_value(new))


def test_rejections_point_here():
    """The error for a non-URL store names this document, so following
    it always lands on the current spelling."""
    for value in ("verdicts.db", ":memory:", ""):
        with pytest.raises(ValueError, match="docs/STORAGE.md"):
            parse_store_url(value)


def test_cross_references():
    """The doc suite cross-links: ARCHITECTURE and PROTOCOL point at
    STORAGE, and STORAGE names the conformance suite."""
    docs = DOC.parent
    assert "docs/STORAGE.md" in (docs / "ARCHITECTURE.md").read_text()
    assert "docs/STORAGE.md" in (docs / "PROTOCOL.md").read_text()
    assert "tests/storage/test_conformance.py" in DOC.read_text()


def test_postgres_extra_documented():
    """The psycopg install extra in the doc matches pyproject."""
    text = DOC.read_text()
    assert "[postgres]" in text
    pyproject = (DOC.parents[1] / "pyproject.toml").read_text()
    assert "postgres" in pyproject, (
        "pyproject.toml lost the documented 'postgres' extra"
    )
