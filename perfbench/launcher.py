"""Start the service under test as its own process.

Run by :mod:`run` as ``python perfbench/launcher.py --store URL ...``
with ``src`` on ``PYTHONPATH``.  It calls
:func:`repro.serve.server.run_service` with the ``repro serve``
defaults -- one process, ``batched`` analysis mode, the ``xmark``
schema preloaded -- changing only the store URL (and binding port 0).

Protocol with the parent: once listening, the launcher prints one line
``READY <port> <import_ms>`` on stdout, where ``import_ms`` is the wall
time of ``import repro.serve.server``.  It exits after the service
answers a ``shutdown`` request.

``--trace FILE`` installs the span wrappers of :mod:`tracer` before
serving and writes the spans to ``FILE`` at shutdown.  ``--corrupt``
deliberately falsifies some responses; the benchmark's own tests use
it to show that the correctness check fails such a run.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import sys
import time

#: One in this many verdicts or answers is falsified under --corrupt.
CORRUPT_EVERY = 10


def _corrupt(kind: str) -> None:
    """Falsify one in :data:`CORRUPT_EVERY` verdicts or answers."""
    from repro.serve import batching, server

    calls = itertools.count(1)

    def hit() -> bool:
        return next(calls) % CORRUPT_EVERY == 0

    if kind == "verdict":
        wire_verdict = batching.wire_verdict

        def wrong_verdict(report):
            verdict = wire_verdict(report)
            if hit():
                return batching.WireVerdict(
                    not verdict.independent, verdict.k, verdict.k_query,
                    verdict.k_update,
                )
            return verdict

        batching.wire_verdict = wrong_verdict
    else:
        serialize_answers, serialize = server.serialize_answers, \
            server.serialize

        def wrong_answers(*args, **kwargs):
            answers = serialize_answers(*args, **kwargs)
            return [text + " " for text in answers] if hit() else answers

        def wrong_answer(*args, **kwargs):
            text = serialize(*args, **kwargs)
            return text + " " if hit() else text

        server.serialize_answers = wrong_answers
        server.serialize = wrong_answer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True,
                        help="store URL, e.g. sqlite:///dir/store.db")
    parser.add_argument("--trace", default="",
                        help="record spans and write them to this file")
    parser.add_argument("--corrupt", choices=("verdict", "answer"),
                        default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    from repro.serve.server import ServeConfig, run_service
    import_ms = (time.perf_counter() - started) * 1e3

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    if args.corrupt:
        _corrupt(args.corrupt)

    # The `repro serve` defaults, except an ephemeral port and the
    # store URL the benchmark owns.
    config = ServeConfig(port=0, store_path=args.store,
                         preload=("xmark",))

    def ready(service, host, port):
        print(f"READY {port} {import_ms:.3f}", flush=True)

    try:
        asyncio.run(run_service(config, ready=ready))
    finally:
        if recorder is not None:
            recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
