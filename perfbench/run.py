"""The repository's benchmark: one workload, one run, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-warm --seed 1 \\
        --seconds 10 --trace 0

The service runs as its own process (:mod:`launcher`); this process is
the single load generator.  A run

1. generates the workload's inputs from ``--seed`` and encodes them;
2. launches the service :data:`SETUP_LAUNCHES` times on fresh stores,
   each time timing launch -> listening -> warm-up done (``setup_s`` is
   the median), and keeps the last launch;
3. ``--trace 0``: drives a closed loop (``rps``) then an open loop at
   the workload's fixed rate (latencies from each request's due time);
   ``--trace 1``: drives the open loop against the plain service and
   then against a traced one, and prints the per-layer ledger;
4. checks a seeded sample of replies against an in-process reference;
5. prints a human-readable report and, as its last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

See ``README.md`` for the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import ledger
from wire import Client

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
#: Scratch space for stores, logs and span dumps (inside the checkout).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: Launches per run whose set-up time is measured (median reported).
SETUP_LAUNCHES = 3
#: Share of ``--seconds`` budgeted for the closed loop; the rest is the
#: open loop.  A traced run splits its open loop between the plain
#: baseline (:data:`BASELINE_SHARE`) and the traced service.
CLOSED_SHARE = 0.3
BASELINE_SHARE = 0.4
#: A run whose open-loop generator was later than this at p99 is
#: invalid: its latencies measure the generator, not the service.
LATE_P99_BOUND_MS = 25.0
#: The closed loop completes a fixed list of requests (the same work on
#: every run, whatever the service's speed): this many per second of
#: its budget, about the throughput the service had when the benchmark
#: was defined, so the phase takes about its budget.
CLOSED_OPS_PER_S = {"analyze-warm": 5000, "analyze-cold": 180,
                    "documents": 80}
#: A percentile is stated only with at least this many samples beyond it.
BEYOND = 10
#: The open-loop p50 and p90 of the primary op are the median over
#: consecutive blocks of at least this many requests (p90 of a block
#: then has 20 samples beyond it), which keeps a few seconds of host
#: contention from deciding a whole run; pooled values are printed too.
BLOCK = 200
READY_TIMEOUT = 60.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(count: int, q: float) -> bool:
    """Does a sample of ``count`` hold :data:`BEYOND` values past ``q``?"""
    return count * (1.0 - q) >= BEYOND


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the package sources (identifies the code measured
    even where the checkout is not a git repository)."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, spec) -> dict:
    from repro.storage.sqlite import PRAGMAS

    pragmas = dict(PRAGMAS)
    synchronous = {0: "OFF", 1: "NORMAL", 2: "FULL"}[pragmas["synchronous"]]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": connections(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "open_loop_rate": spec.rate,
        "in_flight_per_connection": spec.depth,
        "store": "sqlite (unified verdicts + documents), journal_mode="
                 f"{pragmas['journal_mode']}, synchronous={synchronous}",
        "server": "repro serve defaults (1 process, batched mode, "
                  "xmark preloaded); fresh sqlite:/// store per run",
    }


class StealMeter:
    """Share of CPU time the host stole from this machine since
    construction (``/proc/stat``); printed so that a run taken while
    the host was contended can be recognised."""

    def __init__(self) -> None:
        self.start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
        return fields[7], sum(fields)

    def share(self) -> float:
        steal, total = self._read()
        elapsed = total - self.start[1]
        return (steal - self.start[0]) / elapsed if elapsed else 0.0


def connections() -> int:
    """Generator connections: one per core this process may use."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# the service process
# ---------------------------------------------------------------------------


class Service:
    """One launched service process."""

    def __init__(self, store_dir: str, trace: str = "",
                 corrupt: str | None = None):
        self.store_dir = store_dir
        self.trace = trace
        self.corrupt = corrupt
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.import_ms = 0.0
        self.launched = 0.0

    async def start(self) -> None:
        os.makedirs(self.store_dir, exist_ok=True)
        url = "sqlite:///" + os.path.join(self.store_dir, "store.db")
        argv = [sys.executable, LAUNCHER, "--store", url]
        if self.trace:
            argv += ["--trace", self.trace]
        if self.corrupt:
            argv += ["--corrupt", self.corrupt]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log = open(os.path.join(self.store_dir, "service.log"), "ab")
        self.launched = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE, stderr=self.log,
            cwd=ROOT, env=env,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      READY_TIMEOUT)
        parts = line.decode().split()
        if len(parts) != 3 or parts[0] != "READY":
            self.log.flush()
            with open(self.log.name, errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise RuntimeError(f"service did not start: {line!r}\n{tail}")
        self.port, self.import_ms = int(parts[1]), float(parts[2])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the service process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> None:
        """Ask for shutdown, then wait; kill if it does not exit."""
        if self.proc is None:
            return
        try:
            _, writer = await asyncio.open_connection("127.0.0.1",
                                                      self.port)
            writer.write(b'{"id":0,"op":"shutdown"}\n')
            await writer.drain()
            writer.close()
            await asyncio.wait_for(self.proc.wait(), 60)
        except (OSError, asyncio.TimeoutError):
            self.proc.kill()
            await self.proc.wait()
        finally:
            self.log.close()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Run:
    """All launches and phases of one benchmark run."""

    def __init__(self, args):
        import workloads  # needs src on sys.path (see main)

        self.workloads = workloads
        self.args = args
        self.spec = workloads.SPECS[args.workload]
        closed = 0 if args.trace else int(
            CLOSED_OPS_PER_S[args.workload] * args.seconds * CLOSED_SHARE)
        self.open_s = args.seconds * (1.0 - CLOSED_SHARE)
        self.inputs = workloads.WORKLOAD_CLASSES[args.workload](
            args.seed, closed, int(self.spec.rate * self.open_s) + 1)
        self.phases = []          # every PhaseResult, all launches
        #: Replies to analyze / doc.query, keyed by ``id(req)`` (request
        #: ids repeat across launches, request objects do not).
        self.replies: dict[int, dict] = {}
        self.checked = 0
        self.shares = {"modes": {}, "kept": []}
        #: XML bytes of the inline loads the service persisted.
        self.persisted_bytes = 0
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
        self.launches = 0
        self.services: list[Service] = []

    # -- reply bookkeeping ---------------------------------------------------

    def on_reply(self, req, response) -> None:
        if req.op == "doc.query":
            mode = response.get("mode")
            self.shares["modes"][mode] = \
                self.shares["modes"].get(mode, 0) + 1
        elif req.op == "doc.load":
            name, project_for, inline = req.info
            if inline:
                self.persisted_bytes += len(self.inputs.xml[name])
            if project_for and response.get("nodes_seen"):
                self.shares["kept"].append(
                    response["nodes"] / response["nodes_seen"])
        if req.op in ("analyze", "doc.query"):
            self.replies[id(req)] = response

    # -- launches ------------------------------------------------------------

    async def launch(self, store_dir: str, trace: str = "",
                     corrupt: str | None = None):
        self.launches += 1
        tag = f"r{self.launches}"
        plan = self.inputs.launch(tag)
        service = Service(store_dir, trace, corrupt)
        self.services.append(service)
        await service.start()
        client = Client(service.port, connections(), self.on_reply)
        await client.start()
        for name, reqs in (("register", plan.register),
                           *(("warm-up", step) for step in plan.warmup)):
            if reqs:
                self.phases.append(await client.batch(
                    f"{tag} {name}", reqs, self.spec.depth))
        setup = time.perf_counter() - service.launched
        return service, client, plan, setup

    async def close(self, service, client) -> None:
        await client.close()
        await service.stop()

    async def prepare_store(self) -> str | None:
        """The documents corpus, persisted by a preparation launch."""
        if not hasattr(self.inputs, "corpus_reqs"):
            return None
        store = os.path.join(self.scratch, "corpus")
        service = Service(store)
        self.services.append(service)
        await service.start()
        client = Client(service.port, connections(), self.on_reply)
        await client.start()
        self.phases.append(await client.batch(
            "corpus", self.inputs.corpus_reqs(), 2))
        await self.close(service, client)
        return store

    def store_for(self, shared: str | None) -> str:
        if shared is not None:
            return shared
        return os.path.join(self.scratch, f"store{self.launches + 1}")

    # -- the two run shapes --------------------------------------------------

    async def untraced(self) -> dict:
        shared = await self.prepare_store()
        setups = []
        for index in range(SETUP_LAUNCHES):
            service, client, plan, setup = await self.launch(
                self.store_for(shared), corrupt=self.args.corrupt)
            setups.append(setup)
            if index < SETUP_LAUNCHES - 1:
                await self.close(service, client)
        self.import_ms = service.import_ms
        steal = StealMeter()
        closed = await client.closed_loop("closed", plan.closed,
                                          self.spec.depth)
        self.phases.append(closed)
        opened = await client.open_loop("open", plan.open, self.spec.rate,
                                        self.open_s)
        self.phases.append(opened)
        rss = service.peak_rss_mb()
        await self.close(service, client)
        return {"setups": setups, "closed": closed, "open": opened,
                "rss": rss, "steal": steal.share()}

    async def traced(self) -> dict:
        shared = await self.prepare_store()
        baseline_s = self.open_s * BASELINE_SHARE
        service, client, plan, _ = await self.launch(self.store_for(shared))
        base = await client.open_loop("baseline open", plan.open,
                                      self.spec.rate, baseline_s)
        self.phases.append(base)
        await self.close(service, client)

        spans = os.path.join(self.scratch, "spans.json")
        service, client, plan, _ = await self.launch(
            self.store_for(shared), trace=spans, corrupt=self.args.corrupt)
        self.import_ms = service.import_ms
        opened = await client.open_loop("traced open", plan.open,
                                        self.spec.rate,
                                        self.open_s - baseline_s)
        self.phases.append(opened)
        await self.close(service, client)
        return {"baseline": base, "open": opened,
                "spans": ledger.load_spans(spans),
                "bytes_per_doc_byte": self.bytes_per_doc_byte(
                    service.store_dir)}

    def bytes_per_doc_byte(self, store_dir: str) -> float | None:
        """Store file bytes per XML byte the service persisted (the
        documents workload's launches share one store)."""
        if not self.persisted_bytes:
            return None
        size = sum(os.path.getsize(os.path.join(store_dir, name))
                   for name in os.listdir(store_dir)
                   if name.startswith("store.db"))
        return size / self.persisted_bytes

    # -- correctness ---------------------------------------------------------

    def check(self) -> list[str]:
        """Compare a seeded sample of the timed phases' successful
        replies with the in-process reference; a mismatch marks the
        request failed."""
        workloads = self.workloads
        candidates = [o for phase in self.phases if phase.timed
                      for o in phase.outcomes
                      if o.ok and id(o.req) in self.replies]
        rng = random.Random(f"sample/{self.args.seed}")
        sample = rng.sample(candidates,
                            min(workloads.SAMPLE_SIZE, len(candidates)))
        self.checked = len(sample)
        wrong = []
        for outcome in sample:
            req, response = outcome.req, self.replies[id(outcome.req)]
            if req.op == "analyze":
                error = workloads.check_verdict(self.inputs.schemas, req,
                                                response)
            else:
                error = self.inputs.check_answer(req, response)
            if error is not None:
                wrong.append(error)
                outcome.ok, outcome.error = False, error
        return wrong

    def kill_all(self) -> None:
        """Stop any service a failed run left behind."""
        for service in self.services:
            proc = service.proc
            if proc is not None and proc.returncode is None:
                proc.kill()


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def latencies(phase, op: str | None, origin: str = "due") -> list[float]:
    """Open-loop latencies in ms (failures count as infinitely slow)."""
    out = []
    for outcome in phase.outcomes:
        if op is not None and outcome.req.op != op:
            continue
        if not outcome.ok or outcome.done is None:
            out.append(math.inf)
        else:
            start = outcome.due if origin == "due" else outcome.sent
            out.append((outcome.done - start) * 1e3)
    return out


def block_percentile(values: list[float], q: float) -> tuple[float, int]:
    """Median over consecutive :data:`BLOCK`-sized blocks of each
    block's percentile ``q`` (values in due-time order); returns the
    value and the number of blocks."""
    blocks = max(1, len(values) // BLOCK)
    size = len(values) / blocks
    per_block = [percentile(values[round(i * size):round((i + 1) * size)],
                            q) for i in range(blocks)]
    return statistics.median(per_block), blocks


def describe(values: list[float], q: float) -> str:
    if not values:
        return "n/a (no requests)"
    if not supported(len(values), q):
        return f"n/a (n={len(values)}, fewer than {BEYOND} beyond)"
    return f"{percentile(values, q):.3f} ms (n={len(values)})"


def phase_table(phases) -> list[str]:
    lines = [f"{'phase':<18}{'sent':>7}{'ok':>7}{'failed':>7}"
             f"{'seconds':>9}{'late p99 ms':>13}"]
    for phase in phases:
        late = f"{late_p99(phase):.3f}" if "open" in phase.name else "-"
        lines.append(f"{phase.name:<18}{phase.sent:>7}{phase.succeeded:>7}"
                     f"{phase.failed:>7}"
                     f"{phase.ended - phase.started:>9.3f}{late:>13}")
    return lines


def late_p99(phase) -> float:
    """The generator's p99 lateness (send minus due time) in ms."""
    late = [(o.sent - o.due) * 1e3 for o in phase.outcomes]
    return percentile(late, 0.99) if late else 0.0


def property_shares(run: Run) -> list[str]:
    name = run.args.workload
    if name == "analyze-warm":
        warmed = set(run.inputs.pairs)
        timed = run.inputs.open_pairs + run.inputs.closed_pairs
        share = sum(1 for p in timed if p in warmed) / max(len(timed), 1)
        return [f"pair-memo hit share (timed pairs analyzed in warm-up): "
                f"{share:.3f}"]
    if name == "analyze-cold":
        return ["fresh-pair share (query and update never sent before, "
                "deduplicated client-side): 1.000",
                "store-miss share (fresh store per launch, fresh pairs): "
                "1.000"]
    modes = run.shares["modes"]
    total = sum(modes.values()) or 1
    kept = run.shares["kept"]
    lines = ["answer-path shares over all doc.query replies: " + ", ".join(
        f"{mode}={count / total:.3f}" for mode, count in sorted(
            modes.items(), key=lambda item: str(item[0])))]
    if kept:
        lines.append(f"kept ratio of projected loads: mean "
                     f"{statistics.fmean(kept):.4f} (n={len(kept)})")
    return lines


def report_untraced(run: Run, result: dict) -> dict:
    spec = run.spec
    closed, opened = result["closed"], result["open"]
    completed = closed.succeeded
    duration = closed.ended - closed.started
    primary = latencies(opened, spec.primary_op)
    p50, blocks = block_percentile(primary, 0.5)
    p90, _ = block_percentile(primary, 0.9)
    rps = completed / duration if duration > 0 else 0.0
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "p50_ms": (p50, "ms"),
        "server_rss_mb": (result["rss"], "MB"),
    }
    print("end-to-end (untraced):")
    print(f"  setup_s        {metrics['setup_s'][0]:.4f} s  (median of "
          + ", ".join(f"{s:.3f}" for s in result["setups"]) + ")")
    # rps and p90 are printed, not gated: on a host with CPU steal
    # their spread over runs exceeds any admissible bound (README.md).
    print(f"  rps            {rps:.2f} ops/s  ({completed} of "
          f"{closed.sent} completed in {duration:.2f} s closed loop, "
          f"{spec.depth} in flight x {connections()} connections; "
          f"diagnostic)")
    for name, q, value in (("p50_ms", 0.5, p50),
                           ("p90_ms", 0.9, p90)):
        print(f"  {name:<14} {value:.3f} ms, {spec.primary_op}: median of "
              f"{blocks} block(s) of >= {min(BLOCK, len(primary))} "
              f"requests; pooled " + describe(primary, q)
              + (" (diagnostic)" if name == "p90_ms" else ""))
    print(f"  server_rss_mb  {result['rss']:.2f} MB (VmHWM)")
    print(f"host CPU steal during the timed phases: "
          f"{result['steal'] * 100:.1f}%")
    print("open-loop latency by op, from due time:")
    for op, label in (("analyze", "analyze"), ("doc.query", "query"),
                      ("doc.load", "load")):
        values = latencies(opened, op)
        print(f"  {label}_p50_ms {describe(values, 0.5)}; "
              f"{label}_p90_ms {describe(values, 0.9)}; "
              f"{label}_p99_ms {describe(values, 0.99)} (diagnostic)")
    return metrics


def report_traced(run: Run, result: dict) -> dict:
    spec = run.spec
    # Both from send time: tracing slows the service, and with it the
    # generator that shares the machine.
    base = latencies(result["baseline"], spec.primary_op, origin="sent")
    traced_phase = result["open"]
    traced = latencies(traced_phase, spec.primary_op, origin="sent")
    overhead = percentile(traced, 0.5) - percentile(base, 0.5)
    sent = [v for v in latencies(traced_phase, None, origin="sent")
            if v != math.inf]
    client_ms = statistics.fmean(sent) if sent else 0.0
    window = (int(traced_phase.started * 1e9),
              int(max((o.done or 0) for o in traced_phase.outcomes) * 1e9))
    spans = result["spans"]
    table = ledger.build(spans, window, client_ms)
    metrics = dict(table["metrics"])
    metrics["setup.import_ms"] = run.import_ms
    metrics["trace.overhead_ms"] = overhead
    metrics["storage.bytes_per_doc_byte"] = result["bytes_per_doc_byte"]
    print(f"per-layer ledger, traced open loop ({len(spans)} spans "
          f"recorded; self/wait per request, mean):")
    print(ledger.render(table, client_ms))
    print(f"trace.overhead_ms {overhead:.4f} (traced {spec.primary_op} "
          f"p50 {percentile(traced, 0.5):.3f} ms, n={len(traced)}, minus "
          f"untraced {percentile(base, 0.5):.3f} ms, n={len(base)})")
    print("layer metrics:")
    for name in sorted(metrics):
        value = metrics[name]
        shown = "n/a (layer not exercised)" if value is None \
            else f"{value:.6g}"
        print(f"  {name:<36} {shown}")
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def per_layer_units() -> list[tuple[str, str]]:
    """``(name, unit)`` of every ``per_layer`` metric the benchmark
    declares in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"])
                for m in json.load(handle)["per_layer"]]


async def main_async(args) -> int:
    run = Run(args)
    # The generator's own collector pauses would show up as lateness:
    # freeze the inputs built so far and collect only between runs.
    gc.freeze()
    gc.disable()
    spec = run.spec
    env = environment(args, spec)
    print(f"perfbench {args.workload}: {spec.why}")
    print("environment: " + json.dumps(env))
    try:
        if args.trace:
            result = await run.traced()
        else:
            result = await run.untraced()
        wrong = run.check()
    finally:
        run.kill_all()
        for service in run.services:
            if service.proc is not None:
                await service.proc.wait()
        shutil.rmtree(run.scratch, ignore_errors=True)
    print("phases:")
    for line in phase_table(run.phases):
        print("  " + line)
    attempted = sum(phase.sent for phase in run.phases)
    failed = sum(phase.failed for phase in run.phases)
    late = late_p99(result["open"])
    # Only due-time latencies depend on the generator keeping its
    # schedule; the traced run's ledger times requests from send.
    valid = late <= LATE_P99_BOUND_MS or args.trace
    print(f"generator: open-loop late p99 {late:.3f} ms (bound "
          f"{LATE_P99_BOUND_MS} ms) -> {'valid' if valid else 'INVALID'}"
          + (" (traced run: latencies from send)" if args.trace else ""))
    print(f"correctness: {run.checked} sampled replies checked "
          f"against the in-process reference, {len(wrong)} wrong")
    for error in wrong[:5]:
        print("  " + error)
    for line in property_shares(run):
        print("property: " + line)
    print(f"failed_frac {failed / max(attempted, 1):.6f} ratio "
          f"({failed} of {attempted} requests over all phases)")
    if args.trace:
        layer = report_traced(run, result)
        metrics = {name: {"value": 0.0 if layer.get(name) is None
                          else layer[name], "unit": unit}
                   for name, unit in per_layer_units()}
    else:
        e2e = report_untraced(run, result)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    if not valid:
        print("run invalid: the generator fell behind its schedule; no "
              "result is reported", file=sys.stderr)
        return 3
    correct = failed == 0 and not wrong
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze-warm", "analyze-cold",
                                 "documents"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("verdict", "answer"),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from the root of a repository checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
