"""The judge's JSON-over-HTTP client, exercised over the wire against a
loopback ``http.server``: the body it sends, the bytes of every body a
``dcr bench --with-judge`` run sends, the bearer header when its key
variable is set, the error it raises on a server error, a malformed response
or a failed connection, recovery once the server answers again, the
endpoints it refuses and the proxy variable it follows."""

import functools
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import dcr.cli
import dcr.judge
from dcr.cli import main
from dcr.errors import ConfigurationError, TransportError
from dcr.judge import (ENDPOINT_VARIABLE, KEY_VARIABLE, EncodedFrame,
                       JudgeClientConfig, JudgeRequest, build_rubric_message, judge)

class Loopback:
    """One-thread HTTP server on 127.0.0.1 that records each request and
    answers with the configured status and raw body, or with a 500 to the
    next ``fail_next`` requests."""

    def __init__(self):
        self.requests: list[dict] = []
        self.status = 200
        self.reply = b"{}"
        self.fail_next = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                stub.requests.append({"path": self.path, "body": json.loads(body),
                                      "raw": body, "headers": dict(self.headers)})
                status = 500 if stub.fail_next else stub.status
                stub.fail_next = max(stub.fail_next - 1, 0)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(stub.reply)))
                self.end_headers()
                self.wfile.write(stub.reply)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)

    def respond(self, doc=None, status=200, raw=None):
        self.status = status
        self.reply = raw if raw is not None else json.dumps(doc).encode("utf-8")


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.delenv(KEY_VARIABLE, raising=False)
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


def judge_client(url, max_retries=0):
    cfg = JudgeClientConfig(endpoint=url, max_retries=max_retries, backoff_base_s=0.0)
    return functools.partial(judge, judge_request(), cfg)


BODY = build_rubric_message(judge_request())
REPLY = {"completion": "ok\nscore: 4, collapsed: false"}


def is_reply(verdict):
    return verdict.score == 4 and verdict.collapsed is False


def test_the_variables_are_the_documented_ones():
    assert (ENDPOINT_VARIABLE, KEY_VARIABLE, dcr.judge.TIMEOUT_S) == \
        ("DCR_JUDGE_ENDPOINT", "DCR_JUDGE_API_KEY", 60.0)


def test_missing_endpoint_names_its_variable(monkeypatch):
    monkeypatch.delenv(ENDPOINT_VARIABLE, raising=False)
    with pytest.raises(ConfigurationError, match=ENDPOINT_VARIABLE):
        judge_client(None)()


def verdict_file_uri(tmp_path) -> str:
    """A file:// URL of a readable file holding a well-formed reply."""
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps({"completion": "score: 5, collapsed: false"}))
    return fake.as_uri()


@pytest.mark.parametrize("given", [True, False])
def test_an_endpoint_that_is_not_http_is_refused(monkeypatch, tmp_path, given):
    uri = verdict_file_uri(tmp_path)
    if given:
        monkeypatch.delenv(ENDPOINT_VARIABLE, raising=False)
    else:
        monkeypatch.setenv(ENDPOINT_VARIABLE, uri)
    with pytest.raises(ConfigurationError, match=ENDPOINT_VARIABLE):
        judge_client(uri if given else None)()


def test_bench_refuses_a_file_judge_endpoint_before_sampling(monkeypatch, tmp_path):
    monkeypatch.setenv("DCR_JUDGE_ENDPOINT", verdict_file_uri(tmp_path))
    sampled = []
    monkeypatch.setattr(dcr.cli, "run_batch", lambda *a: sampled.append(a))
    out = tmp_path / "bench"
    assert main(["bench", "--with-judge", "--n-per-item", "1", "--out", str(out)]) == 1
    assert sampled == [] and not out.exists()


def test_sends_json_body_without_auth_by_default(server):
    server.respond(REPLY)
    assert is_reply(judge_client(server.url)())
    assert len(server.requests) == 1
    sent = server.requests[0]
    assert sent["body"] == BODY
    assert sent["headers"]["Content-Type"] == "application/json"
    assert "Authorization" not in sent["headers"]


def test_bearer_header_when_key_is_set(server, monkeypatch):
    monkeypatch.setenv(KEY_VARIABLE, "sekrit")
    server.respond(REPLY)
    assert is_reply(judge_client(server.url)())
    assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_server_error_raises_transport_error(server):
    server.respond(REPLY, status=503)
    with pytest.raises(TransportError, match="request to .* failed: HTTP Error 503"):
        judge_client(server.url)()


def test_client_recovers_once_the_server_answers_again(server):
    # the judge is called without retries here
    call = judge_client(server.url)
    server.respond(REPLY, status=500)
    with pytest.raises(TransportError):
        call()
    server.respond(REPLY)
    assert is_reply(call())
    assert len(server.requests) == 2


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_a_refused_connection_is_retried_then_raised(monkeypatch):
    sleeps, posts = [], []
    real = dcr.judge.post_completion

    def spy(*args):
        posts.append(args)
        return real(*args)

    monkeypatch.setattr(dcr.judge.time, "sleep", sleeps.append)
    monkeypatch.setattr(dcr.judge, "post_completion", spy)
    with pytest.raises(TransportError, match="request to .* failed"):
        judge_client(f"http://127.0.0.1:{closed_port()}/judge", max_retries=2)()
    assert len(posts) == 3 and len(sleeps) == 2


def test_the_endpoint_path_and_query_reach_the_server(server):
    server.respond(REPLY)
    assert is_reply(judge_client(server.url + "v1/judge?key=a%20b&x=1")())
    assert server.requests[0]["path"] == "/v1/judge?key=a%20b&x=1"


def test_a_proxy_variable_routes_the_request(server):
    # in a fresh interpreter, because urllib reads the proxy variables once,
    # when it builds its shared opener; the loopback server stands in for the
    # proxy of an endpoint on a port where nothing listens
    endpoint = f"http://127.0.0.1:{closed_port()}/v1/judge"
    src = str(Path(dcr.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k.lower() != "no_proxy"}
    env |= {"PYTHONPATH": os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)}
    env |= {"http_proxy": server.url, "HTTP_PROXY": server.url}
    server.respond({"completion": "ok"})
    code = f"import dcr.judge; dcr.judge.post_completion({endpoint!r}, {{}})"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [r["path"] for r in server.requests] == [endpoint]


def test_https_to_a_plain_server_is_a_transport_error(server, monkeypatch):
    # a short timeout bounds the case where the server waits on the handshake
    monkeypatch.setattr(dcr.judge, "TIMEOUT_S", 5.0)
    server.respond(REPLY)
    with pytest.raises(TransportError, match="request to https://"):
        judge_client(server.url.replace("http://", "https://"))()


def test_judge_retry_recovers_from_one_server_error_in_one_call(server):
    server.respond(REPLY)
    server.fail_next = 1
    assert is_reply(judge_client(server.url, max_retries=1)())
    assert len(server.requests) == 2


@pytest.mark.parametrize("raw", [b"not json", b'{"unexpected": 1}',
                                 b'{"completion": 5}', b'{"completion": null}',
                                 b'{"caption": 5}', b'{"embedding": {"a": 1}}'])
def test_malformed_body_raises_transport_error(server, raw):
    server.respond(raw=raw)
    with pytest.raises(TransportError):
        judge_client(server.url)()


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


def test_second_bench_run_starts_a_new_judge_audit_log(server, monkeypatch, tmp_path):
    # a rerun into the same directory must not find the earlier run's
    # exchanges in its log
    server.respond(REPLY)
    monkeypatch.setenv("DCR_JUDGE_ENDPOINT", server.url)
    out = tmp_path / "bench"
    for _ in range(2):
        assert main(["bench", "--with-judge", "--n-per-item", "1", "--seed", "2",
                     "--steps", "4", "--out", str(out)]) == 0
    assert len(server.requests) == 2 * 16
    assert len((out / "judge_audit.jsonl").read_text().splitlines()) == 16


def test_bench_judge_request_bodies_are_pinned(server, monkeypatch, tmp_path):
    # the bytes of every request body, in arrival order: the bench loop, the
    # request builder and the transport must keep them; headers are left
    # out, since User-Agent names the Python version
    server.respond(REPLY)
    monkeypatch.setenv("DCR_JUDGE_ENDPOINT", server.url)
    assert main(["bench", "--with-judge", "--n-per-item", "2", "--steps", "6",
                 "--seed", "5", "--out", str(tmp_path / "bench")]) == 0
    assert len(server.requests) == 32
    assert not any("model" in r["body"] for r in server.requests)
    bodies = b"\n".join(r["raw"] for r in server.requests)
    assert hashlib.sha256(bodies).hexdigest() == \
        "71219b4618044f3e40798298226a742099b37bcef0dc52ac958e336a12a11930"
