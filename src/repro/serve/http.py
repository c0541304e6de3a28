"""The asyncio HTTP front-end for the trace-checking service.

Stdlib-only (``asyncio.start_server`` plus a minimal HTTP/1.1 reader):
the container policy bans third-party frameworks, and the protocol is
deliberately small —

* ``POST /check`` — body is JSONL, one request per line (bare
  :mod:`repro.io` document or an options envelope, see
  :func:`repro.serve.service.parse_request`).  The response streams
  back as chunked ``application/x-ndjson``: one verdict object per
  line **in completion order**, each carrying its batch ``index``, so
  a client watching a long batch sees verdicts as they land instead of
  waiting for the stragglers.  A W3C ``traceparent`` request header
  joins the whole batch to the caller's trace; every verdict then
  echoes ``trace_id`` and a per-item ``request_id``.
* ``GET /healthz`` — liveness plus service counters and verdict-cache
  occupancy as JSON.

Checking itself runs in a worker thread (the service's dispatch to its
worker processes is blocking); verdicts hop back onto the event loop
through ``call_soon_threadsafe``, so one slow batch never blocks other
connections' accepts.

Graceful shutdown: SIGTERM/SIGINT stop the listener, let every
in-flight request run to completion (the drain the ISSUE requires —
accepted work is never abandoned), then stop the workers and return.
The crash-safe journal plus :func:`repro.serve.service.replay_serve_ledger`
covers the impolite case (SIGKILL).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any, Callable, TextIO

from repro import obs
from repro.serve.service import ItemResult, TraceCheckService

__all__ = ["serve_http", "run_batch_file", "MAX_BODY_BYTES"]

MAX_BODY_BYTES = 64 * 1024 * 1024
"""Largest accepted request body (a 1,000-item litmus batch is ~1 MB)."""

_NDJSON = "application/x-ndjson"


def _response(
    status: str, body: bytes, content_type: str = "application/json"
) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + body


def _json_response(status: str, payload: dict) -> bytes:
    return _response(
        status, (json.dumps(payload) + "\n").encode("utf-8")
    )


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode() + data + b"\r\n"


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on EOF/garbage."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"content-length {length} out of range")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _stream_batch(
    service: TraceCheckService,
    lines: list[str],
    writer: asyncio.StreamWriter,
    traceparent: str | None = None,
) -> None:
    """Run one batch on a worker thread, streaming verdicts as chunks.

    ``traceparent`` is the inbound trace header, forwarded verbatim;
    the executor thread has no ambient context of its own (contextvars
    do not cross ``run_in_executor``), so the header must travel by
    value into :meth:`TraceCheckService.check_batch`.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[ItemResult | None] = asyncio.Queue()

    def on_result(item: ItemResult) -> None:
        loop.call_soon_threadsafe(queue.put_nowait, item)

    writer.write(
        (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {_NDJSON}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    task = loop.run_in_executor(
        None,
        lambda: service.check_batch(
            lines, on_result=on_result, traceparent=traceparent
        ),
    )
    task.add_done_callback(
        lambda _: loop.call_soon_threadsafe(queue.put_nowait, None)
    )
    while True:
        item = await queue.get()
        if item is None:
            break
        payload = json.dumps(item.to_json()) + "\n"
        writer.write(_chunk(payload.encode("utf-8")))
        await writer.drain()
    await task  # surface executor exceptions after draining results
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def _health_payload(service: TraceCheckService) -> dict:
    return {
        "status": "ok",
        "batches": service.batches,
        "items": service.items,
        "errors": service.errors,
        "jobs": service.jobs,
        "cache": service.cache.info(),
    }


async def _handle_connection(
    service: TraceCheckService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            request = await _read_request(reader)
        except (ValueError, asyncio.IncompleteReadError):
            writer.write(
                _json_response(
                    "400 Bad Request", {"error": "malformed request"}
                )
            )
            await writer.drain()
            return
        if request is None:
            return
        method, path, headers, body = request
        path = path.split("?", 1)[0]
        if obs.enabled():
            obs.add("serve.requests")
        if method == "GET" and path in ("/healthz", "/"):
            writer.write(
                _json_response("200 OK", _health_payload(service))
            )
            await writer.drain()
        elif method == "POST" and path == "/check":
            lines = [
                line
                for line in body.decode("utf-8", errors="replace").splitlines()
                if line.strip()
            ]
            await _stream_batch(
                service,
                lines,
                writer,
                traceparent=headers.get("traceparent"),
            )
        else:
            writer.write(
                _json_response(
                    "404 Not Found",
                    {"error": f"no route {method} {path}"},
                )
            )
            await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass  # client went away mid-stream; the batch still completes
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def serve_http(
    service: TraceCheckService,
    host: str = "127.0.0.1",
    port: int = 8533,
    *,
    ready: Callable[[str, int], None] | None = None,
    stop_event: asyncio.Event | None = None,
    install_signal_handlers: bool = True,
    log: TextIO | None = None,
) -> None:
    """Serve until SIGTERM/SIGINT (or ``stop_event``), then drain.

    ``ready(host, port)`` fires with the *actual* bound port once the
    listener is up (``port=0`` binds an ephemeral port); by default the
    bound address is also announced on ``log`` (stderr) so callers —
    tests, the smoke job, humans — can discover it.  Shutdown closes
    the listener first, then awaits every in-flight connection (each a
    tracked task), then shuts the process pool down; accepted batches
    always finish and the journal records them.
    """
    log = sys.stderr if log is None else log
    stop = stop_event or asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or exotic platform

    active: set[asyncio.Task] = set()

    async def client_connected(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            active.add(task)
            task.add_done_callback(active.discard)
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(client_connected, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    print(
        f"repro serve: listening on http://{host}:{bound_port}/ "
        f"(jobs={service.jobs})",
        file=log,
        flush=True,
    )
    if ready is not None:
        ready(host, bound_port)
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        if active:
            print(
                f"repro serve: draining {len(active)} in-flight "
                f"request(s)",
                file=log,
                flush=True,
            )
            await asyncio.gather(*active, return_exceptions=True)
        for sig in installed:
            loop.remove_signal_handler(sig)
        service.close()
        print("repro serve: drained, shutting down", file=log, flush=True)


def run_batch_file(
    service: TraceCheckService,
    in_path: str,
    out_path: str = "-",
    log: TextIO | None = None,
) -> int:
    """Offline batch mode: check a JSONL file, write verdicts as JSONL.

    Verdict lines come out in batch order (the streaming front-end's
    completion order matters for interactive clients; a file does not
    race itself).  Returns 0 even when individual items error — the
    per-item ``ok`` field is the authoritative signal, and a batch
    checker that aborts on the first malformed line would be useless
    against machine-generated input.
    """
    log = sys.stderr if log is None else log
    with open(in_path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    results = service.check_batch(lines, label=in_path)
    out: Any
    if out_path == "-":
        out = sys.stdout
    else:
        out = open(out_path, "w", encoding="utf-8")
    try:
        for item in sorted(results, key=lambda r: r.index):
            out.write(json.dumps(item.to_json()) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    errors = sum(1 for r in results if not r.verdict.get("ok"))
    cached = sum(1 for r in results if r.cached)
    print(
        f"repro serve: {len(results)} item(s) checked "
        f"({cached} dedupe hit(s), {errors} error(s))",
        file=log,
        flush=True,
    )
    return 0
