"""Continuous monitoring daemon (``repro monitor``).

Grows ``repro watch`` into something the paper's operators could have
left running for months: the same :class:`~repro.stream.live.LiveWatch`
drives the streaming engine, with a
:class:`~repro.obs.rotate.RotatingTraceWriter` as its trace writer — the
capture becomes a sequence of bounded ``.rtb.gz`` segments under a
retention budget instead of one unbounded file.  Writer and engine are
sinks of the same released stream, so the segments concatenate to the
trace ``repro simulate`` writes for the same run, in the same order.
Every snapshot tick also publishes a Prometheus text snapshot and a
live span tail to a :class:`MonitorServer`, so ``curl
localhost:PORT/metrics`` works while the simulation runs.

:class:`MonitorServer` is a stdlib ``http.server`` bound to the
loopback interface only.  It serves *cached strings* — the simulation
thread publishes under a lock, the daemon thread serves — so a scrape
can never block or reenter the event loop.  Memory stays bounded end
to end: the engine's ``max_items`` budget still applies (a
:class:`~repro.errors.StreamMemoryError` stops the run loudly), the
span tail is a fixed-size deque, and rotation caps the disk footprint.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MonitorServer"]


class MonitorServer:
    """A loopback HTTP endpoint serving the monitor's cached state.

    Routes:
        ``/metrics``  Prometheus text exposition (as of the last tick).
        ``/spans``    the most recent sampled span records, JSON lines.
        ``/healthz``  ``ok`` — liveness only.

    The handler thread only ever reads strings the simulation published
    with :meth:`publish`; it never touches live simulator state.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._payloads = {"/metrics": "", "/spans": "", "/healthz": "ok\n"}
        publisher = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                with publisher._lock:
                    body = publisher._payloads.get(path)
                if body is None:
                    self.send_error(404, "unknown endpoint")
                    return
                payload = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; charset=utf-8")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:  # quiet by design
                pass

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        """``host:port`` actually bound (port 0 picks an ephemeral one)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        """Serve forever on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-monitor-http",
                daemon=True,
            )
            self._thread.start()

    def publish(self, path: str, body: str) -> None:
        """Atomically replace the payload served at ``path``."""
        with self._lock:
            self._payloads[path] = body

    def close(self) -> None:
        """Stop serving and release the socket."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "MonitorServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

