"""CLI subcommands (exercised in-process)."""

import pytest

from repro.cli import main


class TestAnalyze:
    def test_independent_pair_exit_zero(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-doc",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        assert code == 0
        assert "independent" in capsys.readouterr().out

    def test_dependent_pair_exit_one(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-doc",
            "--query", "//a//c", "--update", "delete //a//c",
        ])
        assert code == 1

    def test_explain_output(self, capsys):
        main([
            "analyze", "--builtin", "paper-doc", "--explain",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        out = capsys.readouterr().out
        assert "INDEPENDENT" in out
        assert "doc.a.c" in out
        assert "doc.b.c" in out

    def test_types_flag(self, capsys):
        main([
            "analyze", "--builtin", "paper-doc", "--types",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        out = capsys.readouterr().out
        assert "type baseline" in out
        assert "dependent" in out

    def test_k_override(self, capsys):
        code = main([
            "analyze", "--builtin", "paper-d1", "--k", "4",
            "--query", "/descendant::b",
            "--update", "delete /descendant::c",
        ])
        assert code == 1

    def test_missing_schema_errors(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--query", "//a", "--update", "delete //b"])


class TestFileCommands:
    @pytest.fixture()
    def dtd_file(self, tmp_path):
        path = tmp_path / "schema.dtd"
        path.write_text(
            "<!ELEMENT doc (a | b)*>\n<!ELEMENT a (c)>\n"
            "<!ELEMENT b (c)>\n<!ELEMENT c EMPTY>\n"
        )
        return str(path)

    def test_generate_and_validate(self, dtd_file, tmp_path, capsys):
        out_file = str(tmp_path / "doc.xml")
        code = main([
            "generate", "--dtd", dtd_file, "--root", "doc",
            "--bytes", "400", "--seed", "3", "--out", out_file,
        ])
        assert code == 0
        code = main(["validate", "--dtd", dtd_file, "--root", "doc",
                     out_file])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_invalid(self, dtd_file, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<doc><a/></doc>")  # a requires a c child
        code = main(["validate", "--dtd", dtd_file, "--root", "doc",
                     str(bad)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_infer_dtd(self, tmp_path, capsys):
        doc = tmp_path / "d.xml"
        doc.write_text("<doc><a><c/></a><b><c/></b></doc>")
        code = main(["infer-dtd", str(doc)])
        assert code == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT doc" in out
        assert "<!ELEMENT c EMPTY>" in out

    def test_dtd_file_analysis(self, dtd_file, capsys):
        code = main([
            "analyze", "--dtd", dtd_file, "--root", "doc",
            "--query", "//a//c", "--update", "delete //b//c",
        ])
        assert code == 0


class TestFuzz:
    def test_small_campaign_exit_zero_and_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "fuzz", "--count", "16", "--seed", "0",
            "--queries", "2", "--updates", "2",
            "--docs", "2", "--doc-bytes", "300",
            "--json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "precision vs oracle" in out

        import json

        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["pairs"] >= 16
        assert data["violations"]["soundness"] == 0

    def test_corpus_dir_stays_empty_without_violations(self, tmp_path,
                                                       capsys):
        corpus = tmp_path / "corpus"
        code = main([
            "fuzz", "--count", "8", "--seed", "3",
            "--queries", "2", "--updates", "2",
            "--docs", "2", "--doc-bytes", "300",
            "--corpus-dir", str(corpus),
        ])
        assert code == 0
        assert not list(corpus.glob("*.json")) if corpus.exists() else True


class TestExplainModule:
    def test_explain_dependent(self):
        from repro.analysis.explain import explain
        from repro.schema import paper_doc_dtd

        text = explain("//a//c", "delete //a//c", paper_doc_dtd())
        assert "DEPENDENT" in text
        assert "return-update" in text

    def test_explain_multiplicity(self):
        from repro.analysis.explain import explain_multiplicity
        from repro.schema import paper_d1_dtd
        from repro.xquery.parser import parse_query

        text = explain_multiplicity(
            parse_query("/descendant::b"), paper_d1_dtd()
        )
        assert "k = 1" in text
        assert "1 recursive" in text

    def test_explain_handles_huge_chain_sets(self):
        from repro.analysis.explain import explain
        from repro.bench.rbench import recursive_schema

        text = explain("/descendant::node()",
                       "delete /descendant::node()",
                       recursive_schema(5))
        assert "DEPENDENT" in text


class TestParserMatchesConfigs:
    """Argparse smoke tests: the CLI surface cannot drift from the
    serve/loadgen config dataclasses or from its own help text."""

    def test_serve_defaults_match_serveconfig(self):
        from repro.cli import build_parser
        from repro.serve.server import ServeConfig

        args = build_parser().parse_args(["serve"])
        config = ServeConfig()
        assert args.host == config.host
        assert args.port == config.port
        assert args.store == config.store_path
        assert args.max_batch == config.max_batch
        assert args.mode == config.analysis_mode
        assert args.max_schemas == config.max_schemas
        assert args.max_documents == config.max_documents
        assert args.pair_cache == config.pair_cache_size

    def test_batching_has_no_window_flag(self):
        # Batching is work-conserving: there is no admission timer to
        # configure on serve or serve-bench.
        from repro.cli import build_parser

        for command in ("serve", "serve-bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--window", "2"])

    def test_loadgen_defaults_match_loadgenconfig(self):
        from repro.cli import build_parser
        from repro.serve.loadgen import LoadgenConfig

        args = build_parser().parse_args(["loadgen"])
        config = LoadgenConfig()
        assert args.host == config.host
        assert args.port == config.port
        # --schema unset falls through to LoadgenConfig's own default
        # (the CLI never hardcodes a schema name).
        assert args.schema is None
        assert args.source == config.source
        assert args.queries == config.n_queries
        assert args.updates == config.n_updates
        assert args.clients == config.clients
        assert args.requests == config.requests
        assert args.seed == config.seed

    def test_serve_help_quotes_real_defaults(self):
        """The epilog and flag help must carry the live default values
        (the PR 3 -> PR 4 drift this guards against)."""
        from repro.cli import build_parser
        from repro.serve.server import ServeConfig

        parser = build_parser()
        serve_parser = parser._subparsers._group_actions[0] \
            .choices["serve"]
        text = serve_parser.format_help()
        config = ServeConfig()
        assert f"max-documents {config.max_documents}" in text
        assert f"max-batch {config.max_batch}" in text
        assert "docs/PROTOCOL.md" in text

    def test_loadgen_expect_coalescing_semantics_documented(self):
        """--expect-coalescing requires coalesced_requests > 0, not
        just batches > 0; the help text must say so."""
        from repro.cli import build_parser

        loadgen_parser = build_parser()._subparsers \
            ._group_actions[0].choices["loadgen"]
        text = loadgen_parser.format_help()
        assert "coalesced_requests" in text
        assert "batches > 0" in text

    def test_loadgen_schema_repeatable(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--schema", "xmark", "--schema", "gen:11"]
        )
        assert args.schema == ["xmark", "gen:11"]

    def test_service_has_no_shards_knob(self):
        # One serving topology: no command takes --shards, and the
        # service config has no shard fields.
        import dataclasses

        from repro.cli import main
        from repro.serve.server import ServeConfig

        for command in ("serve", "loadgen", "serve-bench"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--shards", "2"])
            assert exit_info.value.code == 2
        fields = {field.name for field in dataclasses.fields(ServeConfig)}
        assert not fields & {"shards", "shard_index", "doc_id_prefix"}


class TestLoadCommand:
    """`repro load`: streaming (projected) loads from the CLI."""

    @pytest.fixture()
    def xmark_file(self, tmp_path):
        from repro.schema import xmark_dtd
        from repro.xmldm import generate_document, serialize

        tree = generate_document(xmark_dtd(), 60_000, seed=9)
        path = tmp_path / "doc.xml"
        path.write_text(serialize(tree.store, tree.root))
        return str(path)

    def test_full_load_reports_counts(self, xmark_file, capsys):
        code = main(["load", xmark_file, "--builtin", "xmark"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept" in out and "100.0%" in out

    def test_projected_load_keeps_fewer(self, xmark_file, capsys):
        code = main([
            "load", xmark_file, "--builtin", "xmark",
            "--project", "//emailaddress",
            "--project", "/site/people/person/name",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[projected]" in out
        assert "skipped" in out

    def test_load_persists_into_docstore(self, xmark_file, tmp_path,
                                         capsys):
        from repro.storage import open_store

        db = str(tmp_path / "docs.sqlite")
        code = main([
            "load", xmark_file, "--builtin", "xmark",
            "--project", "//emailaddress",
            "--store", f"sqlite:///{db}", "--doc", "cli-doc",
        ])
        assert code == 0
        assert "persisted" in capsys.readouterr().out
        with open_store(f"sqlite:///{db}") as backend:
            documents = backend.documents
            stored = documents.describe("cli-doc")
            assert stored is not None
            # Same meta shape as the server's persistence, so a served
            # reload can check projection coverage.
            assert stored.meta == {
                "projected": True,
                "project_for": ["//emailaddress"],
            }
            loaded, _ = documents.load("cli-doc")
            assert loaded.size() == stored.nodes

    def test_load_store_url_persists_identically(self, xmark_file,
                                                 tmp_path, capsys):
        """A `--store` URL load writes the same node table an in-process
        load saves (the URL database also carries the verdict facet)."""
        import sqlite3

        from repro.docstore.streamload import load_path
        from repro.storage import open_store

        url_db = str(tmp_path / "unified.sqlite")
        assert main([
            "load", xmark_file, "--builtin", "xmark",
            "--store", f"sqlite:///{url_db}", "--doc", "d",
        ]) == 0
        out = capsys.readouterr().out
        assert f"sqlite:///{url_db}" in out

        def rows(path):
            with sqlite3.connect(path) as conn:
                return conn.execute(
                    "SELECT loc, parent, level, size, tag, text "
                    "FROM nodes WHERE doc = 'd' ORDER BY loc"
                ).fetchall()

        direct_db = str(tmp_path / "direct.sqlite")
        with open_store(f"sqlite:///{direct_db}") as backend:
            backend.documents.save("d", load_path(xmark_file).tree, "x")
        url_rows = rows(url_db)
        assert url_rows and url_rows == rows(direct_db)
        with sqlite3.connect(url_db) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM verdicts"
            ).fetchone() == (0,)

    def test_docstore_bench_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["docstore-bench"])
        assert args.bytes == 4_500_000
        assert args.seed == 7
        assert args.repeats == 3


class TestExplainCommand:
    """`repro explain`: plan rendering over a persisted document,
    without a serve loop."""

    @pytest.fixture()
    def store_url(self, tmp_path):
        xml = tmp_path / "bib.xml"
        xml.write_text(
            "<bib><book><title>a</title><author>x</author></book>"
            "<book><title>b</title></book></bib>"
        )
        url = f"sqlite:///{tmp_path / 'docs.sqlite'}"
        assert main(["load", str(xml), "--builtin", "bib",
                     "--store", url, "--doc", "d"]) == 0
        return url

    def test_pushdown_plan_carries_steps_and_sql(self, store_url,
                                                 capsys):
        assert main(["explain", "//title",
                     "--store", store_url, "--doc", "d"]) == 0
        out = capsys.readouterr().out
        assert "pushdown: compiled" in out
        assert "descendant-child::name(title)" in out
        assert "SELECT" in out
        assert "answer: pushdown" in out
        assert "count = 2" in out

    def test_ineligible_query_falls_back_with_a_reason(self, store_url,
                                                       capsys):
        assert main(["explain", "for $x in //title return <t>n</t>",
                     "--store", store_url, "--doc", "d"]) == 0
        out = capsys.readouterr().out
        assert "pushdown: ineligible" in out
        assert "reason = non-step-source" in out
        assert "answer: fallback" in out

    def test_missing_document_errors(self, store_url):
        with pytest.raises(SystemExit, match="not persisted"):
            main(["explain", "//title", "--store", store_url,
                  "--doc", "nope"])

    def test_unparsable_query_errors(self, store_url):
        with pytest.raises(SystemExit, match="does not parse"):
            main(["explain", "((", "--store", store_url, "--doc", "d"])


class TestMetricsCommand:
    """`repro metrics`: flag surface and address validation (the live
    scrape paths are covered in tests/serve/test_observability.py)."""

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["metrics", "127.0.0.1:7700"])
        assert args.timeout == 5.0
        assert args.raw is False

    def test_malformed_address_errors(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["metrics", "not-an-address"])


class TestStoreURLs:
    """A store URL is the only storage spelling: the CLI refuses a
    plain path, naming the URL to use, before it binds a socket,
    loads a document or writes a file."""

    @pytest.fixture()
    def serve_stub(self, monkeypatch):
        """Stub the blocking serve loop so `main(["serve", ...])`
        returns after flag resolution; yields the captured configs."""
        import asyncio

        configs = []

        async def run_service(config, ready=None):
            configs.append(config)

        monkeypatch.setattr("repro.serve.server.run_service",
                            run_service)
        def run(coro):
            loop = asyncio.new_event_loop()
            try:
                return loop.run_until_complete(coro)
            finally:
                loop.close()

        monkeypatch.setattr(asyncio, "run", run)
        return configs

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        """An empty working directory (so a written store would show)
        beside a small bib document; yields ``(cwd, document)``."""
        document = tmp_path / "bib.xml"
        document.write_text("<bib><book><title>a</title></book></bib>")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        return cwd, str(document)

    @staticmethod
    def _refused(argv, capsys) -> str:
        """Run ``argv``; assert a non-zero usage exit and return the
        error text."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code not in (0, None)
        return capsys.readouterr().err

    def test_serve_plain_store_path_rejected(self, serve_stub, capsys,
                                             workdir):
        err = self._refused(["serve", "--store", "verdicts.db"], capsys)
        assert "sqlite:///verdicts.db" in err
        assert serve_stub == []
        assert list(workdir[0].iterdir()) == []

    def test_serve_store_url_never_warns(self, serve_stub, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main([
                "serve", "--store", "sqlite:///verdicts.db",
            ]) == 0
        assert serve_stub[0].store_path == "sqlite:///verdicts.db"

    def test_programmatic_config_never_warns(self, tmp_path):
        """Building a ServeConfig and opening its backend directly
        stays silent for every local store URL (libraries must not
        nag)."""
        import asyncio
        import gc
        import warnings

        from repro.serve.server import IndependenceService, ServeConfig

        gc.collect()  # earlier tests' garbage must not warn in here
        for url in ("memory://", f"sqlite:///{tmp_path / 'v.db'}"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                service = IndependenceService(
                    ServeConfig(port=0, store_path=url))
                asyncio.run(service.aclose())

    def test_load_plain_store_path_rejected(self, capsys, workdir):
        cwd, document = workdir
        err = self._refused(["load", document, "--builtin", "bib",
                             "--store", "docs.db"], capsys)
        assert "sqlite:///docs.db" in err
        assert list(cwd.iterdir()) == []

    def test_query_plain_store_path_rejected(self, capsys, workdir):
        err = self._refused(["query", "//title", "--store", "docs.db",
                             "--doc", "d"], capsys)
        assert "sqlite:///docs.db" in err
        assert list(workdir[0].iterdir()) == []
