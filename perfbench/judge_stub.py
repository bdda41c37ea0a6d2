"""Deterministic loopback stand-in for the multimodal judge.

One server thread on 127.0.0.1 and an ephemeral port. Each request carries
the final latent as a base64 JSON frame (see ``dcr.cli._latent_frame``); the
stub answers from the latent's nearest mixture mode, so the verdicts are a
pure function of the sampled finals:

- dominant mode: ``score: 1, collapsed: true``
- rare mode:     ``score: 5, collapsed: false``
- any other:     ``score: 3, collapsed: false``

It counts HTTP requests and request bytes and keeps every decoded latent, so
the benchmark can check the judged count and ``cvr`` against the same finals.
"""

from __future__ import annotations

import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np


def verdict_text(mode: int, dominant: int, rare: int) -> str:
    """The completion the stub returns for a latent nearest to ``mode``."""
    if mode == dominant:
        score, collapsed = 1, "true"
    elif mode == rare:
        score, collapsed = 5, "false"
    else:
        score, collapsed = 3, "false"
    return f"Frames reviewed.\nscore: {score}, collapsed: {collapsed}"


def nearest_mode(latent: np.ndarray, means: np.ndarray) -> int:
    """Index of the nearest mean; ties go to the lower index."""
    return int(np.argmin(np.sum((means - latent) ** 2, axis=1)))


def decode_latent(frame: dict) -> np.ndarray:
    raw = base64.b64decode(frame["data_b64"].encode("ascii"))
    return np.asarray(json.loads(raw.decode("utf-8")), dtype=np.float64)


class JudgeStub:
    """Loopback judge server; use as a context manager or call start/close."""

    def __init__(self, means, dominant: int, rare: int):
        self.means = np.asarray(means, dtype=np.float64)
        self.dominant = dominant
        self.rare = rare
        self._lock = threading.Lock()
        self.http_requests = 0
        self.request_bytes = 0
        self.latents: list[np.ndarray] = []
        self._server: HTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/judge"

    def answer(self, body: bytes) -> str:
        """Decode one request body, record it and return the completion."""
        doc = json.loads(body.decode("utf-8"))
        latent = decode_latent(doc["frames"][0])
        with self._lock:
            self.latents.append(latent)
        return verdict_text(nearest_mode(latent, self.means), self.dominant, self.rare)

    def take_latents(self) -> list[np.ndarray]:
        """Latents received since the previous call, in arrival order."""
        with self._lock:
            out, self.latents = self.latents, []
        return out

    def counters(self) -> tuple[int, int]:
        with self._lock:
            return self.http_requests, self.request_bytes

    def start(self) -> "JudgeStub":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                with stub._lock:
                    stub.http_requests += 1
                    stub.request_bytes += length
                try:
                    text = stub.answer(body)
                except (ValueError, KeyError, IndexError, TypeError):
                    self.send_error(400, "malformed judge request")
                    return
                out = json.dumps({"completion": text}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def log_message(self, format, *args):
                pass  # one line per request would flood stderr

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        name="judge-stub", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("judge stub thread did not stop")
        self._server = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
