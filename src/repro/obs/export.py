"""Prometheus text-format exposition and the ``/metrics`` HTTP listener.

:func:`render` turns a registry snapshot into the Prometheus text
exposition format, version 0.0.4:

- ``# HELP`` / ``# TYPE`` header lines per family, families sorted by
  name;
- histograms as cumulative ``<name>_bucket{le="..."}`` series with a
  terminal ``le="+Inf"`` bucket equal to ``<name>_count``, plus
  ``<name>_sum`` and ``<name>_count``;
- label values escaped per the exposition grammar (backslash, quote,
  newline).

:func:`serve_metrics_http` is a deliberately tiny asyncio HTTP/1.1
server answering ``GET /metrics`` so a real Prometheus can scrape the
service without any extra dependency.  :func:`parse_exposition` is its
inverse: it reads exposition text back into a snapshot-shaped dict, so
the ``repro metrics`` CLI can summarize an HTTP scrape exactly like a
wire-op snapshot.
"""

from __future__ import annotations

import asyncio
import json
import re
from collections.abc import Callable

__all__ = ["CONTENT_TYPE", "parse_exposition", "render", "serve_metrics_http"]

#: The exposition content type served over HTTP.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return format(bound, ".10g")


def _labelstr(names: list[str], values: list[str], extra: tuple[str, str] | None = None) -> str:
    pairs = [f'{n}="{_escape(str(v))}"' for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render(snapshot: dict) -> str:
    """Render a registry snapshot to exposition text."""
    out: list[str] = []
    for name, family in sorted(snapshot.get("families", {}).items()):
        kind = family["kind"]
        out.append(f"# HELP {name} {family['help']}")
        out.append(f"# TYPE {name} {kind}")
        labelnames = list(family["labels"])
        for key, child in sorted(family["children"].items()):
            values = json.loads(key)
            if kind == "histogram":
                cumulative = 0
                for i, bucket_count in enumerate(child["counts"]):
                    cumulative += bucket_count
                    le = (
                        _format_bound(child["bounds"][i])
                        if i < len(child["bounds"])
                        else "+Inf"
                    )
                    labels = _labelstr(labelnames, values, extra=("le", le))
                    out.append(f"{name}_bucket{labels} {cumulative}")
                labels = _labelstr(labelnames, values)
                out.append(f"{name}_sum{labels} {_format_value(child['sum'])}")
                out.append(f"{name}_count{labels} {child['count']}")
            else:
                labels = _labelstr(labelnames, values)
                out.append(f"{name}{labels} {_format_value(child['value'])}")
    return "\n".join(out) + "\n" if out else ""


#: One ``label="value"`` pair inside a series' label braces.
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_series(line: str) -> tuple[str, dict[str, str], float] | None:
    """Split one sample line into ``(name, labels, value)``."""
    if line.startswith("{"):
        return None
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            return None
        name = line[:brace]
        labels = {
            key: _unescape(raw)
            for key, raw in _LABEL_RE.findall(line[brace + 1:close])
        }
        rest = line[close + 1:].strip()
    else:
        name, _, rest = line.partition(" ")
        labels = {}
        rest = rest.strip()
    try:
        value = float(rest.split()[0])
    except (IndexError, ValueError):
        return None
    return name, labels, value


def parse_exposition(text: str) -> dict:
    """Parse exposition text back into a snapshot-shaped dict.

    The inverse of :func:`render`, shaped like
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` --
    ``{"families": {name: {kind, help, labels, children}}}`` with
    histogram children carrying per-bucket (non-cumulative) ``counts``
    alongside ``bounds``/``sum``/``count`` -- so snapshot consumers
    (:func:`repro.obs.metrics.histogram_quantile`, the ``repro
    metrics`` CLI table) work identically on an HTTP scrape.  Series
    without a ``# TYPE`` header are treated as untyped gauges.
    """
    families: dict[str, dict] = {}

    def family(name: str, kind: str | None = None) -> dict:
        entry = families.setdefault(
            name, {"kind": "gauge", "help": "", "labels": [], "children": {}}
        )
        if kind is not None:
            entry["kind"] = kind
        return entry

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "HELP":
                family(parts[2])["help"] = parts[3] if len(parts) > 3 else ""
            elif len(parts) >= 4 and parts[1] == "TYPE":
                family(parts[2], kind=parts[3])
            continue
        parsed = _parse_series(line)
        if parsed is None:
            continue
        name, labels, value = parsed
        base = name
        suffix = None
        for candidate in ("_bucket", "_sum", "_count"):
            stem = name[: -len(candidate)] if name.endswith(candidate) else None
            if stem and families.get(stem, {}).get("kind") == "histogram":
                base, suffix = stem, candidate
                break
        entry = family(base)
        if suffix == "_bucket":
            bound = labels.pop("le", "+Inf")
        labelnames = sorted(labels)
        if len(labelnames) > len(entry["labels"]):
            entry["labels"] = labelnames
        key = json.dumps([labels[n] for n in labelnames])
        if entry["kind"] == "histogram":
            child = entry["children"].setdefault(
                key, {"bounds": [], "cumulative": [], "sum": 0.0, "count": 0}
            )
            if suffix == "_bucket":
                if bound != "+Inf":
                    child["bounds"].append(float(bound))
                child["cumulative"].append(value)
            elif suffix == "_sum":
                child["sum"] = value
            elif suffix == "_count":
                child["count"] = int(value)
        else:
            entry["children"][key] = {"value": value}
    for entry in families.values():
        if entry["kind"] != "histogram":
            continue
        for child in entry["children"].values():
            cumulative = child.pop("cumulative", [])
            counts, previous = [], 0.0
            for total in cumulative:
                counts.append(int(total - previous))
                previous = total
            # render() always emits a terminal +Inf bucket, so counts
            # already covers len(bounds) + 1 slots.
            child["counts"] = counts
    return {"families": families}


async def serve_metrics_http(
    host: str,
    port: int,
    supplier: Callable[[], str],
) -> asyncio.Server:
    """Start an HTTP listener answering ``GET /metrics`` from ``supplier``.

    ``supplier`` is called per scrape and must return exposition text.
    Anything but ``GET /metrics`` gets a 404; responses close the
    connection.  Returns the ``asyncio.Server`` (caller owns shutdown).
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.split()
            path = parts[1].decode("ascii", "replace").split("?", 1)[0] if len(parts) > 1 else ""
            if len(parts) > 1 and parts[0] == b"GET" and path == "/metrics":
                body = supplier().encode("utf-8")
                status, ctype = b"200 OK", CONTENT_TYPE.encode("ascii")
            else:
                body = b"not found\n"
                status, ctype = b"404 Not Found", b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + ctype + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.start_server(handle, host, port)
