"""``docs/PROTOCOL.md`` is generated-checked against the code.

Three artifacts must agree on the op list: the canonical tuple in
``repro.serve.protocol.OPS``, the server's dispatch table, and the op
headings of the protocol document (order included, so the document
reads in dispatch order).  Every wire error code must be documented.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.serve.protocol import ERROR_CODES, OPS
from repro.serve.server import IndependenceService

DOC = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"

#: An op section heading looks like ``### `analyze` ``.
OP_HEADING = re.compile(r"^### `([a-z.]+)`\s*$", re.MULTILINE)


def test_document_exists():
    assert DOC.is_file(), "docs/PROTOCOL.md is missing"


def test_documented_ops_match_protocol_exactly():
    documented = tuple(OP_HEADING.findall(DOC.read_text()))
    assert documented == OPS, (
        "docs/PROTOCOL.md op sections have drifted from "
        f"repro.serve.protocol.OPS:\n  documented: {documented}\n"
        f"  protocol:   {OPS}"
    )


def test_server_dispatch_table_matches_protocol():
    assert set(IndependenceService.OP_HANDLERS) == set(OPS)


def test_every_error_code_documented():
    text = DOC.read_text()
    for code in ERROR_CODES:
        assert f"`{code}`" in text, (
            f"error code {code!r} is not documented in docs/PROTOCOL.md"
        )


def test_documented_codes_all_exist():
    """No phantom codes: every backticked kebab-case token that looks
    like an error code in the error table must be a real constant."""
    table = DOC.read_text().split("## Error codes", 1)[1]
    codes = set(re.findall(r"^\| `([a-z-]+)` \|", table, re.MULTILINE))
    assert codes == set(ERROR_CODES)
