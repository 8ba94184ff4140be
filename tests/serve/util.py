"""Shared helpers for the serve tests: an in-process service session
and a minimal JSON-lines client."""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager

from repro.serve.protocol import MAX_LINE_BYTES, encode
from repro.serve.server import IndependenceService, ServeConfig


@asynccontextmanager
async def running_service(**config_kwargs):
    """A started service on an ephemeral loopback port."""
    config_kwargs.setdefault("port", 0)
    service = IndependenceService(ServeConfig(**config_kwargs))
    host, port = await service.start()
    server_task = asyncio.create_task(service.serve_until_stopped())
    try:
        yield service, host, port
    finally:
        service.stop()
        await server_task


class ServiceClient:
    """One connection; requests tagged with sequential ids."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0

    async def __aenter__(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def call(self, op: str, **params) -> dict:
        """Send one request and await its (id-matched) response."""
        self._next_id += 1
        request_id = self._next_id
        self._writer.write(encode({"op": op, "id": request_id, **params}))
        await self._writer.drain()
        response = json.loads(await self._reader.readline())
        assert response["id"] == request_id, response
        return response

    async def send_raw(self, payload: bytes) -> dict:
        self._writer.write(payload)
        await self._writer.drain()
        return json.loads(await self._reader.readline())
