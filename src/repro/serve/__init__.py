"""``repro serve`` — the batch trace-checking service.

The paper's computation-centric framing makes trace checking
embarrassingly batchable: every request is a self-contained
``(computation, observer constraints)`` pair, so a long-running service
can fan thousands of machine-generated litmus traces out to worker
processes and answer each independently (SNIPPETS.md's axe workload — "check
millions of generated traces against the model" — is the shape this
package serves).

Layering:

* :mod:`repro.serve.service` — the engine: request parsing and
  canonical fingerprinting (both done in the workers), the bounded LRU
  verdict cache, the two-round-trip worker dispatch (heartbeats + stall
  watchdog reused from :mod:`repro.runtime.parallel`), journal records,
  and the SIGKILL-replay ledger.
* :mod:`repro.serve.http` — the asyncio front-end: JSONL over HTTP
  with streamed verdicts, graceful SIGTERM/SIGINT drain, and the
  offline ``--input FILE`` batch mode.

The CLI entry point is ``repro serve`` (see ``repro serve --help``).
"""

from repro.serve.service import (
    CheckOptions,
    ItemResult,
    TraceCheckService,
    VerdictCache,
    check_document,
    check_object,
    parse_request,
    replay_serve_ledger,
    request_fingerprint,
)
from repro.serve.http import run_batch_file, serve_http

__all__ = [
    "CheckOptions",
    "ItemResult",
    "TraceCheckService",
    "VerdictCache",
    "check_document",
    "check_object",
    "parse_request",
    "replay_serve_ledger",
    "request_fingerprint",
    "run_batch_file",
    "serve_http",
]
