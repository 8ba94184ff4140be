"""Public-API docstring coverage for the serving layer, the engine,
the document store, and the storage backends.

The PR 4 docstring pass is enforced, not aspirational: every public
module, class, function, and method across ``repro.serve``,
``repro.analysis.engine``, ``repro.docstore``, ``repro.storage``, and
the ``repro.api`` facade must carry a docstring.  Private names
(leading underscore) and inherited/generated members are exempt.
"""

from __future__ import annotations

import inspect

import pytest

import repro.analysis.engine
import repro.api
import repro.docstore.adapter
import repro.docstore.axes
import repro.docstore.encode
import repro.docstore.pushdown
import repro.docstore.streamload
import repro.obs
import repro.obs.export
import repro.obs.metrics
import repro.obs.plan
import repro.obs.tracing
import repro.schema.graph
import repro.serve.batching
import repro.serve.loadgen
import repro.serve.protocol
import repro.serve.registry
import repro.serve.server
import repro.storage
import repro.storage.base
import repro.storage.postgres
import repro.storage.sqlite

MODULES = [
    repro.analysis.engine,
    repro.api,
    repro.docstore.adapter,
    repro.docstore.axes,
    repro.docstore.encode,
    repro.docstore.pushdown,
    repro.docstore.streamload,
    repro.obs,
    repro.obs.export,
    repro.obs.metrics,
    repro.obs.plan,
    repro.obs.tracing,
    repro.schema.graph,
    repro.serve.batching,
    repro.serve.loadgen,
    repro.serve.protocol,
    repro.serve.registry,
    repro.serve.server,
    repro.storage,
    repro.storage.base,
    repro.storage.postgres,
    repro.storage.sqlite,
]


def public_api():
    """Yield ``(qualified name, object)`` for everything that needs a
    docstring: the modules, their public classes/functions, and public
    methods defined (not inherited) on those classes."""
    for module in MODULES:
        yield module.__name__, module
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or
                    inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their home
            yield f"{module.__name__}.{name}", member
            if inspect.isclass(member):
                for attr, value in vars(member).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(value):
                        yield (f"{module.__name__}.{name}.{attr}",
                               value)
                    elif isinstance(value, property) and value.fget:
                        yield (f"{module.__name__}.{name}.{attr}",
                               value.fget)


@pytest.mark.parametrize(
    "qualified,member",
    list(public_api()),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_has_docstring(qualified, member):
    doc = inspect.getdoc(member)
    assert doc and doc.strip(), f"{qualified} has no docstring"
