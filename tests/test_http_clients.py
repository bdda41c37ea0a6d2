"""The judge's JSON-over-HTTP client, exercised over the wire against a
loopback ``http.server``: the body it sends, the bytes of every body a
``dcr bench --with-judge`` run sends, the bearer header when its key
variable is set, the error it raises on a server error, a malformed response
or a failed connection, recovery once the server answers again, the
endpoints it refuses and the proxy variable it follows."""

import base64
import functools
import hashlib
import http.client
import json
import os
import re
import socket
import ssl
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
    """One-thread HTTP server on 127.0.0.1 that records each request, of any
    method, and answers with the configured status, extra headers and raw
    body, or with a 500 to the next ``fail_next`` requests. Header lookups on
    a recorded request ignore case, as HTTP does."""

    def __init__(self):
        self.requests: list[dict] = []
        self.status = 200
        self.reply = b"{}"
        self.extra_headers: dict[str, str] = {}
        self.fail_next = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                stub.requests.append({"method": self.command, "path": self.path,
                                      "body": json.loads(body) if body else None,
                                      "raw": body, "headers": self.headers})
                status = 500 if stub.fail_next else stub.status
                stub.fail_next = max(stub.fail_next - 1, 0)
                self.send_response(status)
                for name, value in stub.extra_headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(stub.reply)))
                self.end_headers()
                self.wfile.write(stub.reply)

            do_GET = do_CONNECT = do_POST

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


@pytest.fixture
def judge_client(monkeypatch):
    """``judge_client(url, retries=0)``: a call of ``judge`` on one request to
    ``url`` that retries a transport failure ``retries`` times, at once."""
    def make(url, retries=0):
        monkeypatch.setattr(dcr.judge, "MAX_RETRIES", retries)
        monkeypatch.setattr(dcr.judge, "BACKOFF_BASE_S", 0.0)
        return functools.partial(judge, judge_request(), JudgeClientConfig(endpoint=url))
    return make


BODY = build_rubric_message(judge_request())
REPLY = {"completion": "ok\nscore: 4, collapsed: false"}


def is_reply(verdict):
    return verdict.score == 4 and verdict.collapsed is False


def test_the_variables_are_the_documented_ones():
    assert (ENDPOINT_VARIABLE, KEY_VARIABLE, dcr.judge.TIMEOUT_S) == \
        ("DCR_JUDGE_ENDPOINT", "DCR_JUDGE_API_KEY", 60.0)


def test_missing_endpoint_names_its_variable(monkeypatch, judge_client):
    monkeypatch.delenv(ENDPOINT_VARIABLE, raising=False)
    with pytest.raises(ConfigurationError, match=ENDPOINT_VARIABLE):
        judge_client(None)()


def verdict_file_uri(tmp_path) -> str:
    """A file:// URL of a readable file holding a well-formed reply."""
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps({"completion": "score: 5, collapsed: false"}))
    return fake.as_uri()


@pytest.mark.parametrize("given", [True, False])
def test_an_endpoint_that_is_not_http_is_refused(monkeypatch, tmp_path, given,
                                                 judge_client):
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


KEY = "s3kr1t"


@pytest.mark.parametrize("endpoint, key", [
    ("http://127.0.0.1:notaport/judge", KEY),
    ("http://127.0.0.1:99999/judge", KEY),
    ("http://127.0.0.1:0/judge", KEY),
    ("http://:80/judge", KEY),
    ("http://user:pw@127.0.0.1:9/judge", KEY),
    ("http://[::1/judge", KEY),
    ("http://127.0.0.1:9/a b", KEY),
    ("http://127.0.0.1:9/caf\u00e9", KEY),
    ("http://127.0.0.1:9/judge", KEY + "\r\nX-Injected: 1"),
    ("http://127.0.0.1:9/judge", KEY + "\u2603"),
], ids=["port-not-a-number", "port-above-65535", "port-0", "no-host", "credentials",
        "unclosed-ipv6-bracket", "space", "non-ascii", "key-crlf", "key-not-latin-1"])
def test_bench_refuses_an_unsendable_judge_endpoint_or_key(monkeypatch, tmp_path,
                                                           capsys, endpoint, key):
    # each request to it would fail and be retried with backoff; the check
    # refuses it before sampling, without quoting the key or the credentials
    monkeypatch.setenv(ENDPOINT_VARIABLE, endpoint)
    monkeypatch.setenv(KEY_VARIABLE, key)
    sampled, sleeps = [], []
    monkeypatch.setattr(dcr.cli, "run_batch", lambda *a: sampled.append(a))
    monkeypatch.setattr(dcr.judge.time, "sleep", sleeps.append)
    out = tmp_path / "bench"
    assert main(["bench", "--with-judge", "--n-per-item", "1", "--out", str(out)]) == 1
    assert sampled == [] and sleeps == [] and not out.exists()
    err = capsys.readouterr().err
    assert ENDPOINT_VARIABLE in err or KEY_VARIABLE in err
    assert KEY not in err and "pw" not in err


@pytest.mark.parametrize("endpoint", ["http://[::1]:8080/x", "https://judge.example/v1",
                                      "http://h:/x"])
def test_a_sendable_endpoint_is_accepted(monkeypatch, endpoint):
    monkeypatch.setenv(KEY_VARIABLE, "Ab-9._~+/= \u00e9")
    assert dcr.judge.judge_endpoint(endpoint) == endpoint


def test_sends_json_body_without_auth_by_default(server, judge_client):
    server.respond(REPLY)
    assert is_reply(judge_client(server.url)())
    assert len(server.requests) == 1
    sent = server.requests[0]
    assert sent["body"] == BODY
    assert sent["headers"]["Content-Type"] == "application/json"
    assert "Authorization" not in sent["headers"]


def test_bearer_header_when_key_is_set(server, monkeypatch, judge_client):
    monkeypatch.setenv(KEY_VARIABLE, "sekrit")
    server.respond(REPLY)
    assert is_reply(judge_client(server.url)())
    assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_server_error_raises_transport_error(server, judge_client):
    server.respond(REPLY, status=503)
    with pytest.raises(TransportError, match="request to .* failed: HTTP Error 503"):
        judge_client(server.url)()


def test_client_recovers_once_the_server_answers_again(server, judge_client):
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


def test_a_refused_connection_is_retried_then_raised(monkeypatch, judge_client):
    sleeps, posts = [], []
    real = dcr.judge.post_completion

    def spy(*args):
        posts.append(args)
        return real(*args)

    monkeypatch.setattr(dcr.judge.time, "sleep", sleeps.append)
    monkeypatch.setattr(dcr.judge, "post_completion", spy)
    with pytest.raises(TransportError, match="request to .* failed"):
        judge_client(f"http://127.0.0.1:{closed_port()}/judge", retries=2)()
    assert len(posts) == 3 and len(sleeps) == 2


class RawReply:
    """One-thread TCP server on 127.0.0.1 that reads each request whole and
    answers it with the same raw bytes, HTTP or not, then closes the
    connection; ``connections`` counts the requests."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.connections = 0
        self.stop = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.01)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/"
        self.thread = threading.Thread(target=self.serve, daemon=True)

    def serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                head = b""
                while b"\r\n\r\n" not in head and (chunk := conn.recv(65536)):
                    head += chunk
                head, _, body = head.partition(b"\r\n\r\n")
                length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
                while len(body) < length and (chunk := conn.recv(65536)):
                    body += chunk
                self.connections += 1
                conn.sendall(self.reply)


@pytest.fixture
def raw_server():
    servers = []

    def start(reply):
        servers.append(RawReply(reply))
        servers[-1].thread.start()
        return servers[-1]

    yield start
    for srv in servers:
        srv.stop.set()
        srv.thread.join(timeout=5)
        srv.sock.close()
        assert not srv.thread.is_alive()


@pytest.mark.parametrize("reply, cause", [
    (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
     b"Content-Length: 100\r\n\r\n{\"completion\": \"ok", http.client.IncompleteRead),
    (b"garbage\r\n\r\n", http.client.BadStatusLine),
], ids=["truncated-body", "garbage-status-line"])
def test_a_malformed_reply_is_retried_then_raised(raw_server, monkeypatch, reply, cause,
                                                  judge_client):
    # a ResourceWarning, an error under pytest.ini, would show a leaked socket
    sleeps = []
    monkeypatch.setattr(dcr.judge.time, "sleep", sleeps.append)
    srv = raw_server(reply)
    with pytest.raises(TransportError, match="request to .* failed") as raised:
        judge_client(srv.url, retries=2)()
    assert isinstance(raised.value.__cause__, cause)
    assert srv.connections == 3 and len(sleeps) == 2


def test_a_redirect_is_not_followed(server, judge_client):
    # urllib re-sent a redirected POST as a GET without its body
    server.respond(REPLY, status=302)
    server.extra_headers = {"Location": server.url + "moved"}
    with pytest.raises(TransportError, match="request to .* failed: HTTP Error 302: Found"):
        judge_client(server.url)()
    assert [(r["method"], r["path"]) for r in server.requests] == [("POST", "/")]


def test_the_endpoint_path_and_query_reach_the_server(server, judge_client):
    server.respond(REPLY)
    assert is_reply(judge_client(server.url + "v1/judge?key=a%20b&x=1")())
    assert server.requests[0]["path"] == "/v1/judge?key=a%20b&x=1"


def post_in_fresh_interpreter(endpoint, **proxy_variables):
    """Run ``post_completion(endpoint, {})`` in a fresh interpreter whose
    proxy variables are ``proxy_variables`` alone, each set in lower and upper
    case. A fresh interpreter, because the judge reads the proxy variables
    once per process."""
    src = str(Path(dcr.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env |= {"PYTHONPATH": os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)}
    for name, value in proxy_variables.items():
        env |= {name: value, name.upper(): value}
    code = f"import dcr.judge; dcr.judge.post_completion({endpoint!r}, {{}})"
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_a_proxy_variable_routes_the_request(server):
    # in a fresh interpreter, because the judge reads the proxy variables
    # once per process; the loopback server stands in for the proxy of an
    # endpoint on a port where nothing listens
    endpoint = f"http://127.0.0.1:{closed_port()}/v1/judge"
    server.respond({"completion": "ok"})
    proc = post_in_fresh_interpreter(endpoint, http_proxy=server.url)
    assert proc.returncode == 0, proc.stderr
    assert [r["path"] for r in server.requests] == [endpoint]


def test_an_https_proxy_variable_opens_a_connect_tunnel(server):
    # the proxy refuses the tunnel, so no TLS handshake follows
    server.respond(status=403)
    proc = post_in_fresh_interpreter("https://judge.invalid:8443/v1/judge",
                                     https_proxy=server.url)
    assert "TransportError" in proc.stderr and "Tunnel connection failed: 403" in proc.stderr
    assert [(r["method"], r["path"]) for r in server.requests] == \
        [("CONNECT", "judge.invalid:8443")]


def test_no_proxy_naming_the_host_bypasses_the_proxy(server):
    server.respond({"completion": "ok"})
    proc = post_in_fresh_interpreter(server.url + "v1/judge", no_proxy="127.0.0.1",
                                     http_proxy=f"http://127.0.0.1:{closed_port()}")
    assert proc.returncode == 0, proc.stderr
    assert [r["path"] for r in server.requests] == ["/v1/judge"]


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_proxy_credentials_arrive_as_basic_proxy_authorization(server, scheme):
    # percent-escapes in the proxy URL are undone before encoding, as urllib
    # does; over https the header goes with the CONNECT, not the request
    proxy = server.url.replace("http://", "http://us%40er:p%3Ass@")
    server.respond({"completion": "ok"}, status=200 if scheme == "http" else 403)
    post_in_fresh_interpreter(f"{scheme}://judge.invalid:8443/v1/judge",
                              **{f"{scheme}_proxy": proxy})
    [sent] = server.requests
    assert sent["method"] == ("POST" if scheme == "http" else "CONNECT")
    assert sent["headers"]["Proxy-Authorization"] == \
        "Basic " + base64.b64encode(b"us@er:p:ss").decode("ascii")


def test_https_to_a_plain_server_is_a_transport_error(server, monkeypatch, judge_client):
    # a short timeout bounds the case where the server waits on the handshake
    monkeypatch.setattr(dcr.judge, "TIMEOUT_S", 5.0)
    server.respond(REPLY)
    with pytest.raises(TransportError, match="request to https://"):
        judge_client(server.url.replace("http://", "https://"))()


def test_https_requests_share_one_tls_context(monkeypatch):
    # building a context loads the CA store, which costs tens of ms: the
    # judge builds one on its first https request, not on every request
    built, passed = [], []
    build = ssl.create_default_context

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    init = http.client.HTTPSConnection.__init__

    def recording(self, *args, **kwargs):
        passed.append(kwargs.get("context"))
        init(self, *args, **kwargs)

    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setattr(ssl, "create_default_context", counted)
    monkeypatch.setattr(http.client.HTTPSConnection, "__init__", recording)
    dcr.judge._tls_context.cache_clear()
    try:
        endpoint = f"https://127.0.0.1:{closed_port()}/judge"
        for _ in range(2):
            with pytest.raises(TransportError, match="request to https://"):
                dcr.judge.post_completion(endpoint, {})
    finally:
        dcr.judge._tls_context.cache_clear()
    assert len(built) == 1 and passed == built * 2
    assert built[0].verify_mode == ssl.CERT_REQUIRED and built[0].check_hostname


def test_judge_retry_recovers_from_one_server_error_in_one_call(server, judge_client):
    server.respond(REPLY)
    server.fail_next = 1
    assert is_reply(judge_client(server.url, retries=1)())
    assert len(server.requests) == 2


@pytest.mark.parametrize("raw", [b"not json", b'{"unexpected": 1}',
                                 b'{"completion": 5}', b'{"completion": null}',
                                 b'{"caption": 5}', b'{"embedding": {"a": 1}}'])
def test_malformed_body_raises_transport_error(server, raw, judge_client):
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
