"""The four JSON-over-HTTP clients, exercised over the wire against a
loopback ``http.server``: the body each one sends, the bearer header when its
key variable is set, and the error type each raises on a server error or a
malformed response."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import dcr.judge
from dcr.bench import HttpTextClient
from dcr.cli import main
from dcr.errors import MetricError, TransportError
from dcr.judge import (EncodedFrame, JudgeClientConfig, JudgeRequest,
                       build_rubric_message, judge)
from dcr.metrics import ExternalCaptionClient, ExternalEmbeddingClient


class Loopback:
    """One-thread HTTP server on 127.0.0.1 that records each request and
    answers with the configured status and raw body."""

    def __init__(self):
        self.requests: list[dict] = []
        self.status = 200
        self.reply = b"{}"
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                stub.requests.append({"body": json.loads(body),
                                      "headers": dict(self.headers)})
                self.send_response(stub.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(stub.reply)))
                self.end_headers()
                self.wfile.write(stub.reply)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def respond(self, doc=None, status=200, raw=None):
        self.status = status
        self.reply = raw if raw is not None else json.dumps(doc).encode("utf-8")


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    for name in ("DCR_JUDGE_API_KEY", "DCR_TEXT_API_KEY", "DCR_EMBED_API_KEY",
                 "DCR_CAPTION_API_KEY"):
        monkeypatch.delenv(name, raising=False)
    stub = Loopback()
    stub.thread.start()
    try:
        yield stub
    finally:
        stub.server.shutdown()
        stub.server.server_close()
        stub.thread.join(timeout=5)
    assert not stub.thread.is_alive()


def judge_request():
    frame = EncodedFrame(data_b64="ZnJhbWU=", width=2, height=1,
                         source_width=2, source_height=1)
    return JudgeRequest(prompt_p="a snowy beach", factors=("snowy", "beach"),
                        attractor="a tropical beach", frames=(frame,))


def call_judge(url):
    cfg = JudgeClientConfig(endpoint=url, model="m1", max_retries=0,
                            backoff_base_s=0.0)
    return judge(judge_request(), cfg)


# Each client: (key variable, call against the url, body it must send,
#               reply that succeeds, check of the result, error type)
CLIENTS = {
    "judge": ("DCR_JUDGE_API_KEY", call_judge,
              build_rubric_message(judge_request()) | {"model": "m1"},
              {"completion": "ok\nscore: 4, collapsed: false"},
              lambda v: v.score == 4 and v.collapsed is False, TransportError),
    "text": ("DCR_TEXT_API_KEY",
             lambda url: HttpTextClient(endpoint=url).complete("rewrite this"),
             {"instruction": "rewrite this", "temperature": 0.0, "n": 1},
             {"completion": "a tropical beach"},
             lambda v: v == "a tropical beach", TransportError),
    "embedding": ("DCR_EMBED_API_KEY",
                  lambda url: ExternalEmbeddingClient(endpoint=url).embed_text("hi"),
                  {"kind": "text", "content": "hi"},
                  {"embedding": [0.5, -1.0, 2.0]},
                  lambda v: np.array_equal(v, [0.5, -1.0, 2.0]), MetricError),
    "caption": ("DCR_CAPTION_API_KEY",
                lambda url: ExternalCaptionClient(endpoint=url).caption("frame-7"),
                {"frame": "frame-7"},
                {"caption": "a beach in snow"},
                lambda v: v == "a beach in snow", MetricError),
}


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_sends_json_body_without_auth_by_default(server, name):
    _, call, body, reply, check, _ = CLIENTS[name]
    server.respond(reply)
    assert check(call(server.url))
    assert len(server.requests) == 1
    sent = server.requests[0]
    assert sent["body"] == body
    assert sent["headers"]["Content-Type"] == "application/json"
    assert "Authorization" not in sent["headers"]


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_bearer_header_when_key_is_set(server, monkeypatch, name):
    key_env, call, _, reply, check, _ = CLIENTS[name]
    monkeypatch.setenv(key_env, "sekrit")
    server.respond(reply)
    assert check(call(server.url))
    assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_server_error_raises_client_error_type(server, name):
    _, call, _, reply, _, error = CLIENTS[name]
    server.respond(reply, status=500)
    with pytest.raises(error):
        call(server.url)


@pytest.mark.parametrize("name", sorted(CLIENTS))
@pytest.mark.parametrize("raw", [b"not json", b'{"unexpected": 1}',
                                 b'{"completion": 5}', b'{"completion": null}'])
def test_malformed_body_raises_client_error_type(server, name, raw):
    _, call, _, _, _, error = CLIENTS[name]
    server.respond(raw=raw)
    with pytest.raises(error):
        call(server.url)


def test_caption_client_rejects_empty_caption(server):
    server.respond({"caption": ""})
    with pytest.raises(MetricError, match="empty caption"):
        ExternalCaptionClient(endpoint=server.url).caption("frame-7")


def test_bench_counts_a_non_string_judge_completion_as_missing(server, monkeypatch,
                                                               tmp_path):
    # the judge retries a malformed response as a transport failure
    monkeypatch.setattr(dcr.judge.time, "sleep", lambda s: None)
    server.respond({"completion": 5})
    monkeypatch.setenv("DCR_JUDGE_ENDPOINT", server.url)
    out = tmp_path / "bench"
    assert main(["bench", "--with-judge", "--n-per-item", "1", "--seed", "2",
                 "--steps", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "bench_report.json").read_text())
    assert "judge verdicts missing for 16 items" in doc["notes"]
    assert len(server.requests) == 16 * 4
