"""Stub language-model server for the ``remote-lm`` workload.

Speaks the remote scorer's protocol: ``POST {"text": T}`` answers
``{"logprob": f(sha256(T))}``, deterministic and with no injected delay.
``GET /requests`` returns the number of scoring requests served so far.

Run as its own process: ``python stub_lm.py``. It binds an ephemeral port
on 127.0.0.1, prints the port on one line once it is listening, and shuts
down when its standard input reaches end of file, so it also stops when
the process that started it dies.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


def logprob(text: str) -> float:
    """A fixed value in (-10, -1] derived from the text's sha256."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return -1.0 - 9.0 * int.from_bytes(digest[:8], "big") / 2.0 ** 64


class _Handler(BaseHTTPRequestHandler):
    # headers and body go out in separate writes; with Nagle's algorithm
    # on, the body can wait for the client's delayed ACK
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            text = json.loads(self.rfile.read(length))["text"]
        except (ValueError, KeyError, TypeError):
            self._reply(400, {"error": "expected {\"text\": ...}"})
            return
        self.server.requests += 1
        self._reply(200, {"logprob": logprob(text)})

    def do_GET(self):
        if self.path != "/requests":
            self._reply(404, {"error": "not found"})
            return
        self._reply(200, {"requests": self.server.requests})

    def log_message(self, format, *args):
        pass


def main() -> int:
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = 0

    def stop_at_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_at_eof, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
