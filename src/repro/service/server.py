"""The socket layer: stdlib threaded HTTP over :class:`QueryService`.

One :class:`~http.server.ThreadingHTTPServer` (daemon threads, one per
connection) adapts HTTP to :meth:`QueryService.dispatch`.  Everything
interesting — routing, admission, clamping, journaling, error mapping —
lives transport-side in :mod:`repro.service.handlers`; this module only
reads bodies (enforcing the 413 cap *before* buffering unbounded input),
writes responses with explicit ``Content-Length``, and wires shutdown.

:func:`serve` is the blocking entry point the CLI uses: it installs
SIGINT/SIGTERM handlers that drain the service (new work → 503), stop
the listener, and flush the journal sink — a clean shutdown leaves a
valid journal artifact behind.
"""

from __future__ import annotations

import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable

from repro.service.errors import payload_too_large
from repro.service.handlers import QueryService, ServiceResponse, _error_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.config import ServiceConfig

__all__ = ["ServiceServer", "serve"]


class _Handler(BaseHTTPRequestHandler):
    """Byte adapter: one request in, one :class:`ServiceResponse` out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    #: injected by :class:`ServiceServer`
    service: QueryService

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the journal and /metrics are the observability surface

    def _read_body(self) -> bytes | None:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            return None
        try:
            length = int(length_header)
        except ValueError:
            return None
        limit = self.service.config.max_body_bytes
        if length > limit:
            raise payload_too_large(length, limit)
        return self.rfile.read(length) if length > 0 else b""

    def _respond(self, response: ServiceResponse) -> None:
        body = response.body()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        try:
            self.end_headers()  # the first write: a client may be gone already
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _handle(self, method: str) -> None:
        try:
            body = self._read_body()
        except Exception as exc:  # 413 (or any read failure surfaced as it)
            from repro.service.errors import ServiceError

            if isinstance(exc, ServiceError):
                self._respond(_error_response(exc))
            else:
                self._respond(
                    _error_response(
                        ServiceError(
                            "failed to read request body",
                            status=400,
                            code="bad_request",
                        )
                    )
                )
            return
        self._respond(self.service.dispatch(method, self.path, body))

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server contract
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server contract
        self._handle("DELETE")


class ServiceServer:
    """A running (or startable) daemon around one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        *,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.service = service
        bind_host = host if host is not None else service.config.host
        bind_port = port if port is not None else service.config.port
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = ThreadingHTTPServer((bind_host, bind_port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound port (resolved when configured port was 0)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve from a background thread (tests, embedding)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain, stop the listener, flush the journal (idempotent)."""
        self.service.drain()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(
    service: QueryService,
    *,
    host: str | None = None,
    port: int | None = None,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; returns the exit code.

    The signal handler only sets an event — drain, listener stop and
    journal flush run on the main thread after the wait, so shutdown
    work never happens in signal context.
    """
    server = ServiceServer(service, host=host, port=port)
    stop = threading.Event()

    def _signalled(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signalled)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.start()
        if announce is not None:
            announce(server.url)
        stop.wait()
    finally:
        server.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
