"""Multi-tenant schema registry: aliases, LRU bounds, eviction."""

from __future__ import annotations

import pytest

from repro.schema import DTD
from repro.serve.registry import SchemaRegistry, UnknownSchemaError
from repro.storage import open_store


@pytest.fixture
def store():
    with open_store("memory://") as backend:
        yield backend.verdicts


def _distinct_schema(n: int) -> DTD:
    """Distinct digest per ``n``: alphabet ``{doc, t0..tn}``."""
    rules = {"doc": "(" + ", ".join(f"t{i}" for i in range(n + 1)) + ")"}
    for i in range(n + 1):
        rules[f"t{i}"] = "EMPTY"
    return DTD.from_dict("doc", rules)


class TestRegistration:
    def test_register_returns_digest_and_resolves(self):
        registry = SchemaRegistry()
        digest = registry.register(_distinct_schema(1), name="one")
        assert registry.resolve(digest) == digest
        assert registry.resolve("one") == digest
        assert registry.engine("one") is registry.engine(digest)

    def test_same_digest_reuses_engine(self):
        registry = SchemaRegistry()
        first = registry.register(_distinct_schema(1))
        second = registry.register(_distinct_schema(1))
        assert first == second
        assert len(registry) == 1
        assert registry.registrations == 1

    def test_builtins_materialize_lazily(self):
        registry = SchemaRegistry()
        assert len(registry) == 0
        engine = registry.engine("xmark")
        assert len(registry) == 1
        assert engine.schema.start == "site"

    def test_unknown_schema_raises(self):
        registry = SchemaRegistry()
        with pytest.raises(UnknownSchemaError):
            registry.resolve("nope")

    def test_store_attached_to_new_engines(self, store):
        registry = SchemaRegistry(store=store)
        registry.register(_distinct_schema(1))
        digest = registry.resolve(
            registry.register(_distinct_schema(1))
        )
        assert registry.engine(digest).store is store


class TestLRU:
    def test_overflow_evicts_least_recently_used(self):
        registry = SchemaRegistry(max_schemas=2)
        first = registry.register(_distinct_schema(1))
        second = registry.register(_distinct_schema(2))
        registry.engine(first)          # touch: second becomes LRU
        registry.register(_distinct_schema(3))
        assert registry.resolve(first) == first
        with pytest.raises(UnknownSchemaError):
            registry.resolve(second)
        assert registry.evictions == 1

    def test_eviction_drops_aliases(self):
        registry = SchemaRegistry(max_schemas=1)
        registry.register(_distinct_schema(1), name="one")
        registry.register(_distinct_schema(2), name="two")
        with pytest.raises(UnknownSchemaError):
            registry.resolve("one")
        assert registry.resolve("two")

    def test_explicit_evict(self):
        registry = SchemaRegistry()
        digest = registry.register(_distinct_schema(1), name="one")
        assert registry.evict("one")
        with pytest.raises(UnknownSchemaError):
            registry.resolve(digest)
        assert not registry.evict("one")
        # Counted apart from capacity pressure, so /stats can tell an
        # operator whether max_schemas is actually too small.
        assert registry.explicit_evictions == 1
        assert registry.evictions == 0

    def test_evicting_unmaterialized_builtin_is_a_noop(self):
        # evict must not lazily register the builtin first: at the LRU
        # bound that would push an unrelated tenant schema out.
        registry = SchemaRegistry(max_schemas=1)
        tenant = registry.register(_distinct_schema(1))
        assert registry.evict("bib") is False
        assert registry.resolve(tenant) == tenant
        assert len(registry) == 1
        assert registry.evictions == 0
        assert registry.explicit_evictions == 0

    def test_evicted_schema_warm_starts_from_store(self, store):
        # Eviction costs RAM only: the store still has the verdicts.
        registry = SchemaRegistry(store=store, max_schemas=1)
        digest = registry.register(_distinct_schema(1))
        registry.engine(digest).analyze_pair(
            "//t0", "delete //t1", collect_witnesses=False
        )
        assert store.count() == 1
        registry.register(_distinct_schema(2))     # evicts digest
        fresh = registry.register(_distinct_schema(1))
        assert fresh == digest
        engine = registry.engine(fresh)
        engine.analyze_pair("//t0", "delete //t1",
                            collect_witnesses=False)
        assert engine.stats.store_hits == 1
        assert engine.stats.universes_built == 0

    def test_pair_cache_size_propagates(self):
        registry = SchemaRegistry(pair_cache_size=2)
        digest = registry.register(_distinct_schema(1))
        assert registry.engine(digest).pair_cache_size == 2

    def test_describe_and_stats(self):
        registry = SchemaRegistry()
        registry.register(_distinct_schema(1), name="one")
        rows = registry.describe()
        assert len(rows) == 1
        assert rows[0]["names"] == ["one"]
        assert rows[0]["start"] == "doc"
        stats = registry.stats()
        assert stats["schemas"] == 1
        assert set(stats["engines"]) == {rows[0]["digest"]}
