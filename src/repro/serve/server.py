"""Pure-stdlib HTTP transport over :class:`~repro.serve.handlers.ServeApp`.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no third-party
dependencies.  The transport does three things only: read the request,
call ``app.handle``, write the JSON response.  All routing, validation,
admission and error typing live in the transport-independent app, so
tests exercise them without sockets and this module stays a thin shell.

The one ``except Exception`` here is the outermost serving boundary: a
non-taxonomy bug must surface as a well-formed ``internal`` error body
(and a counted metric) rather than a dropped connection.  The load
harness asserts that chaos runs never actually produce one.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import BadRequestError
from repro.log import get_logger
from repro.obs.metrics import METRICS
from repro.serve.handlers import ERROR_SCHEMA_VERSION, ServeApp, error_body

__all__ = ["ReproHTTPServer", "serve_forever"]

_log = get_logger(__name__)

#: Cap on accepted request bodies; larger payloads get a typed 400
#: without being read, and the connection is closed (a link request is a
#: few hundred bytes).
MAX_BODY_BYTES = 64 * 1024


def _internal_error_body(message: str) -> bytes:
    document = {
        "schema_version": ERROR_SCHEMA_VERSION,
        "error": {"type": "internal", "status": 500, "message": message},
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # set by ReproHTTPServer
    app: ServeApp = None  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._read_body() is not None:
            self._dispatch("GET", body=None)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if self._read_body() is not None:
            self._dispatch("DELETE", body=None)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self._read_body()
        if body is not None:
            self._dispatch("POST", body=body)

    def _read_body(self) -> Optional[bytes]:
        """Consume the declared request body — for every verb, so the
        next request on a keep-alive connection starts where this one
        ended.  ``None`` means the framing was refused and the typed 400
        is already written."""
        if self.headers.get("Transfer-Encoding") is not None:
            # only Content-Length framing is read here; a chunked body
            # would be parsed as the next requests
            self._reject_body("Transfer-Encoding is not supported")
            return None
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._reject_body(f"invalid Content-Length {raw!r}")
            return None
        if length > MAX_BODY_BYTES:
            self._reject_body(f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length) if length else b""

    def _reject_body(self, message: str) -> None:
        """Typed 400 for a body this transport will not read.

        The unread bytes are still on the socket, so the connection is
        closed: on a keep-alive connection they would otherwise be parsed
        as the next requests.
        """
        status, document = error_body(BadRequestError(message))
        METRICS.incr("serve.error.bad_request")
        self.close_connection = True
        self._write(status, json.dumps(document, sort_keys=True).encode("utf-8"))

    def _dispatch(self, method: str, body: Optional[bytes]) -> None:
        try:
            headers = {key.lower(): value for key, value in self.headers.items()}
            status, document = self.app.handle(method, self.path, body, headers)
            payload = json.dumps(document, sort_keys=True).encode("utf-8")
        except Exception as error:
            _log.exception("unhandled error serving %s %s", method, self.path)
            METRICS.incr("serve.error.internal")
            status, payload = 500, _internal_error_body(
                f"{type(error).__name__}: {error}"
            )
        self._write(status, payload)

    def _write(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, message_format: str, *args) -> None:
        _log.debug("%s - %s", self.address_string(), message_format % args)


class ReproHTTPServer:
    """Owns the listening socket and its serving thread.

    ``with ReproHTTPServer(app, port=0) as server:`` binds an ephemeral
    port (``server.port``), serves on a daemon thread, and shuts down
    cleanly on exit — the shape both the CLI and the smoke tests need.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 8355) -> None:
        handler = type("_BoundHandler", (_Handler,), {"app": app})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> None:
        if self._thread is not None:
            raise ValueError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        _log.info("serving on http://%s:%d", *self.address)

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ReproHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_forever(app: ServeApp, host: str = "127.0.0.1", port: int = 8355) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = ReproHTTPServer(app, host=host, port=port)
    server.start()
    try:
        while True:
            server._thread.join(timeout=1.0)  # noqa: SLF001
            if not server._thread.is_alive():
                return
    except KeyboardInterrupt:
        _log.info("shutting down")
        server.stop()
