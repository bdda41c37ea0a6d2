"""Client for an external multimodal judge, the one external service.

``build_request`` assembles every ``JudgeRequest``: the target prompt, its
compositional factors, the attractor prompt, and ``FRAMES_PER_REQUEST``
uniformly spaced frames. The payload carries rubric ``RUBRIC_VERSION``; a
transport failure is retried up to ``MAX_RETRIES`` times, after a backoff
that doubles from ``BACKOFF_BASE_S`` up to ``BACKOFF_CAP_S``. The judge must
answer with a strict machine-readable trailer ``score: <1-5>, collapsed:
<true|false>`` on its final line. No verdict is ever synthesized
client-side: every JudgeVerdict corresponds to exactly one successful remote
response.

The endpoint comes from ``JudgeClientConfig.endpoint`` or the variable
``ENDPOINT_VARIABLE``. ``judge_endpoint`` checks that a request to it can be
sent: an ``http://`` or ``https://`` URL with a host, without user
credentials, with a port in 1..65535 and of printable ASCII only, and a key
an HTTP header can carry. ``post_completion`` sends each request over one
``http.client`` connection, with the key of ``KEY_VARIABLE`` as a bearer
token and a ``TIMEOUT_S`` timeout, and follows no redirect. The proxy
variables (``http_proxy``, ``https_proxy``, ``no_proxy`` and the like),
read once per process, apply as urllib applies them. The judge writes one
JSON line per exchange to ``JudgeClientConfig.audit_log``: to a stream the
caller opens and closes, or to a file it opens and appends to per exchange.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import http.client
import json
import logging
import os
import re
import ssl
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .errors import (ConfigurationError, JudgeParseError, TransportError,
                     ValidationError, VerdictError)

log = logging.getLogger(__name__)

RUBRIC_V1 = """Score the video frames for compositional fidelity only, on this scale:
1: Neither compositional factor is present; the output reflects neither the intended composition nor a semantically coherent alternative.
2: Only one compositional factor is present, or the output has collapsed entirely toward the attractor completion.
3: Both factors are partially present but incoherently composed, or the output is ambiguous between the intended composition and the attractor.
4: Both factors are present and mostly coherently composed, with minor ambiguity or imperfection.
5: Both factors are fully and coherently present; the output clearly reflects the intended rare composition rather than the frequent alternative.
Also decide whether the output reflects the attractor prompt rather than the intended composition (collapsed: true/false)."""

RUBRIC_VERSION = "v1"

_TRAILER = re.compile(r"score:\s*(-?\d+)\s*,\s*collapsed:\s*(true|false)\s*$",
                      re.IGNORECASE)

FRAMES_PER_REQUEST = 8
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 4.0

# The judge's endpoint and API key are set in the environment, never in code.
ENDPOINT_VARIABLE = "DCR_JUDGE_ENDPOINT"
KEY_VARIABLE = "DCR_JUDGE_API_KEY"
TIMEOUT_S = 60.0

# the characters a request cannot carry: in the endpoint, any but printable
# ASCII (an IDN host is given in its ASCII form); in the key, sent in a
# header, any but printable latin-1
_UNSENDABLE_URL = re.compile(r"[^\x21-\x7e]")
_UNSENDABLE_KEY = re.compile(r"[^\x20-\x7e\xa0-\xff]")


@dataclass(frozen=True)
class EncodedFrame:
    """One encoded image with aspect-ratio-preserving resize metadata."""

    data_b64: str
    width: int
    height: int
    source_width: int
    source_height: int

    def __post_init__(self):
        if not self.data_b64:
            raise ValidationError("frame payload must be nonempty")
        for d in (self.width, self.height, self.source_width, self.source_height):
            if d <= 0:
                raise ValidationError("frame dimensions must be positive")


@dataclass(frozen=True)
class JudgeRequest:
    prompt_p: str
    factors: tuple[str, ...]
    attractor: str
    frames: tuple[EncodedFrame, ...]

    def __post_init__(self):
        if not self.prompt_p or not self.attractor:
            raise ValidationError("request needs both the prompt and the attractor")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.factors:
            raise ValidationError("request needs at least one compositional factor")
        if not self.frames:
            raise ValidationError("request needs at least one frame")


@dataclass(frozen=True)
class JudgeVerdict:
    score: int
    collapsed: bool
    raw_response: str

    def __post_init__(self):
        if not (1 <= self.score <= 5):
            raise ValidationError(f"score must lie in 1..5, got {self.score}")


def uniform_sample(seq, k: int) -> list:
    """k uniformly spaced elements (used to pick frames across a video)."""
    seq = list(seq)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if len(seq) <= k:
        return seq
    idx = [round(i * (len(seq) - 1) / (k - 1)) for i in range(k)] if k > 1 else [0]
    return [seq[i] for i in idx]


def build_request(prompt_p: str, factors, attractor: str, frames) -> JudgeRequest:
    """A request keeping ``FRAMES_PER_REQUEST`` uniformly spaced frames of
    the sequence (all of them when there are no more)."""
    return JudgeRequest(prompt_p=prompt_p, factors=factors, attractor=attractor,
                        frames=uniform_sample(frames, FRAMES_PER_REQUEST))


def build_rubric_message(req: JudgeRequest) -> dict:
    """Deterministic payload embedding the rubric, the prompt, its factors,
    the attractor prompt, and the output-format instruction."""
    instruction = "\n".join([
        RUBRIC_V1,
        "",
        f"Intended prompt: {req.prompt_p}",
        "Compositional factors: " + "; ".join(req.factors),
        f"Attractor prompt: {req.attractor}",
        "",
        "After reviewing the frames, output exactly one final line of the form:",
        "score: <1-5>, collapsed: <true|false>",
    ])
    return {
        "instruction": instruction,
        "frames": [{"data_b64": f.data_b64, "width": f.width, "height": f.height,
                    "source_width": f.source_width, "source_height": f.source_height}
                   for f in req.frames],
        "rubric_version": RUBRIC_VERSION,
        "temperature": 0.0,
        "n": 1,
    }


def serialize_payload(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def parse_verdict(raw_response: str) -> JudgeVerdict:
    """Parse the strict trailer from the last matching line of the response."""
    match = None
    for line in raw_response.splitlines():
        m = _TRAILER.search(line.strip())
        if m:
            match = m
    if match is None:
        raise VerdictError("no machine-readable verdict trailer in response",
                           raw_response=raw_response)
    score = int(match.group(1))
    if not (1 <= score <= 5):
        raise JudgeParseError(f"score {score} outside 1..5",
                              raw_response=raw_response)
    return JudgeVerdict(score=score, collapsed=match.group(2).lower() == "true",
                        raw_response=raw_response)


@dataclass
class JudgeClientConfig:
    endpoint: str | None = None  # None: the value of ENDPOINT_VARIABLE
    # receives one JSON line per exchange whose reply arrived, parsable or
    # not: a writable text stream, which the caller owns, or a path the judge
    # appends to per exchange; None: no audit
    audit_log: TextIO | str | Path | None = None
    transport: object = None  # callable(payload dict) -> str; None = HTTP


def judge_endpoint(endpoint: str | None = None) -> str:
    """``endpoint``, else the value of ``ENDPOINT_VARIABLE``, once a request
    to it can be sent. ConfigurationError naming the variable when neither is
    set; when the endpoint is not an http:// or https:// URL with a host, or
    has user credentials, a port that is not an integer in 1..65535 or a
    character other than printable ASCII; or when the key of ``KEY_VARIABLE``
    has a character other than printable latin-1. Neither the credentials nor
    the key is quoted."""
    endpoint = endpoint or os.environ.get(ENDPOINT_VARIABLE)
    if not endpoint:
        raise ConfigurationError(f"judge endpoint not configured (set {ENDPOINT_VARIABLE})")

    def refused(reason):
        return ConfigurationError(f"judge endpoint {reason} (set {ENDPOINT_VARIABLE})")

    try:
        url = urllib.parse.urlsplit(endpoint)
    except ValueError as exc:  # a malformed IPv6 host
        raise refused(f"is not a URL: {exc}") from None
    if "@" in url.netloc:  # http.client would take them for the host
        raise refused("has user credentials, which are never sent")
    if url.scheme not in ("http", "https") or not url.hostname:
        raise refused(f"{endpoint!r} is not an http:// or https:// URL with a host")
    try:
        port = url.port
    except ValueError:  # not an integer in 0..65535
        port = 0
    if port == 0:
        raise refused(f"{endpoint!r} has a port that is not an integer in 1..65535")
    if _UNSENDABLE_URL.search(endpoint):
        raise refused(f"{endpoint!r} has a character other than printable ASCII")
    if _UNSENDABLE_KEY.search(os.environ.get(KEY_VARIABLE, "")):
        raise ConfigurationError(f"{KEY_VARIABLE} has a character other than printable "
                                 "latin-1, which an HTTP header cannot carry")
    return endpoint


@functools.cache
def _proxies() -> dict[str, str]:
    """The proxy table, read from the environment once per process, as
    urllib's shared opener reads it."""
    return urllib.request.getproxies()


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The TLS context of every ``https`` connection, built on the first one
    (building it loads the CA store) as ``http.client`` builds its default."""
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    if context.post_handshake_auth is not None:
        context.post_handshake_auth = True
    return context


def post_completion(endpoint: str, body: dict) -> str:
    """POST ``body`` as JSON to ``endpoint``, as ``judge_endpoint`` returns it,
    and return the reply's ``completion`` string. Sends a bearer token when
    ``KEY_VARIABLE`` is set; any transport failure, malformed or non-2xx
    reply (a redirect is not followed), or reply that is not a JSON object
    with a string ``completion`` raises TransportError.

    One ``http.client`` connection per request, closed after the reply;
    ``https`` connections share one TLS context per process. The proxy
    variables apply as urllib applies them: ``no_proxy`` bypasses, an
    ``http://`` endpoint is sent to its proxy as an absolute URL, an
    ``https://`` one through a CONNECT tunnel, and ``user:pass@`` in the
    proxy URL is sent as ``Proxy-Authorization: Basic``."""
    url = urllib.parse.urlsplit(endpoint)
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    headers = {"Content-Type": "application/json", "Connection": "close"}
    key = os.environ.get(KEY_VARIABLE)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    host, scheme, tunnel = url.netloc, url.scheme, None
    proxy = _proxies().get(url.scheme)
    if proxy and not urllib.request.proxy_bypass_environment(url.netloc, _proxies()):
        purl = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
        auth = {}
        if purl.username and purl.password:
            creds = (f"{urllib.parse.unquote(purl.username)}:"
                     f"{urllib.parse.unquote(purl.password)}").encode()
            auth["Proxy-Authorization"] = f"Basic {base64.b64encode(creds).decode('ascii')}"
        host = purl.netloc.rpartition("@")[2]
        if url.scheme == "https":
            tunnel = auth
        else:
            scheme = purl.scheme or url.scheme
            target = endpoint.partition("#")[0]
            headers |= auth
    cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    try:
        tls = {"context": _tls_context()} if scheme == "https" else {}
        with contextlib.closing(cls(host, timeout=TIMEOUT_S, **tls)) as conn:
            if tunnel is not None:
                conn.set_tunnel(url.netloc, headers=tunnel)
            conn.request("POST", target, serialize_payload(body), headers)
            with conn.getresponse() as resp:
                if not 200 <= resp.status < 300:
                    raise TransportError(f"request to {endpoint} failed: "
                                         f"HTTP Error {resp.status}: {resp.reason}")
                doc = json.loads(resp.read().decode("utf-8"))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(f"request to {endpoint} failed: {exc}") from exc
    completion = doc.get("completion") if isinstance(doc, dict) else None
    if not isinstance(completion, str):
        raise TransportError(f"malformed judge response from {endpoint}: {doc!r}")
    return completion


def _audit(config: JudgeClientConfig, payload: dict, response: str) -> None:
    if config.audit_log is None:
        return
    entry = {"timestamp": time.time(), "request": payload, "response": response}
    line = json.dumps(entry) + "\n"
    if isinstance(config.audit_log, (str, os.PathLike)):
        with Path(config.audit_log).open("a", encoding="utf-8") as fh:
            fh.write(line)
    else:
        config.audit_log.write(line)


def judge(req: JudgeRequest, config: JudgeClientConfig) -> JudgeVerdict:
    """Issue the request with deterministic decoding; retry transient
    transport failures with bounded exponential backoff; parse strictly."""
    payload = build_rubric_message(req)
    transport = config.transport or functools.partial(
        post_completion, judge_endpoint(config.endpoint))
    attempt = 0
    while True:
        try:
            raw = transport(payload)
            break
        except TransportError as exc:
            attempt += 1
            if attempt > MAX_RETRIES:
                raise
            delay = min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_CAP_S)
            log.warning("judge transport failure (attempt %d/%d), retrying in %.2fs: %s",
                        attempt, MAX_RETRIES, delay, exc)
            time.sleep(delay)
    _audit(config, payload, raw)
    return parse_verdict(raw)
