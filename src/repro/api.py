"""The one-import facade over the package's stable surface.

Everything an embedding application needs lives here, re-exported from
its home module (where it is documented):

* **analysis** -- :func:`analyze` (one-shot static independence),
  :class:`AnalysisEngine` / :func:`engine_for` (the cached per-schema
  engine behind the server), :func:`schema_digest` (the content hash
  that keys engines and verdicts);
* **schemas & documents** -- :class:`DTD`, :func:`load_xml` /
  :func:`load_document` (streaming projected parse into an
  interval-encoded tree);
* **storage** -- :func:`open_store` / :func:`parse_store_url`
  (``memory://``, ``sqlite:///...``, ``postgresql://...``) and the
  :class:`StorageBackend` interface with its :class:`VerdictKV` and
  :class:`DocumentStore` facets (see ``docs/STORAGE.md``);
* **serving** -- :class:`ServeConfig`, :func:`run_service`, the
  :class:`IndependenceService` it runs, and :class:`LoadgenConfig` for
  driving one.

Typical embedding::

    from repro.api import DTD, analyze, engine_for, open_store

    dtd = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
                                "b": "c", "c": "EMPTY"})
    assert analyze("//a//c", "delete //b//c", dtd).independent

    with open_store("sqlite:///verdicts.db") as backend:
        engine = engine_for(dtd)
        engine.attach_store(backend)   # warm-starts from the KV

The re-exports are aliases, not copies: ``repro.api.AnalysisEngine is
repro.analysis.engine.AnalysisEngine``.  ``tests/test_public_api.py``
pins that every name in ``__all__`` resolves, and the docstring gate
(``tests/docs/test_docstrings.py``) covers this module.
"""

from __future__ import annotations

from . import __version__
from .analysis import analyze
from .analysis.engine import (
    AnalysisEngine,
    PairVerdict,
    engine_for,
    schema_digest,
)
from .docstore.streamload import load_path as load_document
from .docstore.streamload import load_xml
from .schema import DTD
from .serve.loadgen import LoadgenConfig, run_loadgen
from .serve.server import IndependenceService, ServeConfig, run_service
from .storage import (
    DocumentStore,
    StorageBackend,
    VerdictKV,
    open_store,
    parse_store_url,
)

__all__ = [
    "__version__",
    # analysis
    "AnalysisEngine",
    "PairVerdict",
    "analyze",
    "engine_for",
    "schema_digest",
    # schemas & documents
    "DTD",
    "load_document",
    "load_xml",
    # storage
    "DocumentStore",
    "StorageBackend",
    "VerdictKV",
    "open_store",
    "parse_store_url",
    # serving
    "IndependenceService",
    "LoadgenConfig",
    "ServeConfig",
    "run_loadgen",
    "run_service",
]
