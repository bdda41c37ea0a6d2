"""Client for an external multimodal judge, and ``post_json``, the one
JSON-over-HTTP call that every external-service client in the package uses.

The judge receives the target prompt, its compositional factors, the
attractor prompt, and uniformly sampled frames; it must answer with a strict
machine-readable trailer ``score: <1-5>, collapsed: <true|false>`` on its
final line. No verdict is ever synthesized client-side: every JudgeVerdict
corresponds to exactly one successful remote response.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

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

RUBRICS = {"v1": RUBRIC_V1}

_TRAILER = re.compile(r"score:\s*(-?\d+)\s*,\s*collapsed:\s*(true|false)\s*$",
                      re.IGNORECASE)

DEFAULT_FRAMES_PER_REQUEST = 8


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
    rubric_version: str = "v1"

    def __post_init__(self):
        if not self.prompt_p or not self.attractor:
            raise ValidationError("request needs both the prompt and the attractor")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.factors:
            raise ValidationError("request needs at least one compositional factor")
        if not self.frames:
            raise ValidationError("request needs at least one frame")
        if self.rubric_version not in RUBRICS:
            raise ValidationError(f"unknown rubric version '{self.rubric_version}'")


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


def build_rubric_message(req: JudgeRequest) -> dict:
    """Deterministic payload embedding the rubric, the prompt, its factors,
    the attractor prompt, and the output-format instruction."""
    instruction = "\n".join([
        RUBRICS[req.rubric_version],
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
        "rubric_version": req.rubric_version,
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
    endpoint: str | None = None
    model: str = ""
    api_key_env: str = "DCR_JUDGE_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0
    audit_log: str | Path | None = None
    frames_per_request: int = DEFAULT_FRAMES_PER_REQUEST
    transport: object = None  # callable(payload dict) -> str; None = HTTP

    def resolve_endpoint(self) -> str:
        endpoint = self.endpoint or os.environ.get("DCR_JUDGE_ENDPOINT")
        if not endpoint:
            raise ConfigurationError(
                "judge endpoint not configured (set DCR_JUDGE_ENDPOINT or endpoint=)")
        return endpoint


def build_request(prompt_p: str, factors, attractor: str, frames,
                  config: JudgeClientConfig, rubric_version: str = "v1"
                  ) -> JudgeRequest:
    """Assemble a request from a full frame sequence, keeping the configured
    number of uniformly spaced frames."""
    picked = uniform_sample(list(frames), config.frames_per_request)
    return JudgeRequest(prompt_p=prompt_p, factors=tuple(factors),
                        attractor=attractor, frames=tuple(picked),
                        rubric_version=rubric_version)


def post_json(endpoint: str, body: dict, api_key_env: str, timeout_s: float) -> dict:
    """POST ``body`` as JSON and return the decoded JSON object. Sends a
    bearer token when the ``api_key_env`` variable is set; any transport
    failure, error status or non-object response raises TransportError."""
    req = urllib.request.Request(endpoint, data=serialize_payload(body),
                                 headers={"Content-Type": "application/json"})
    key = os.environ.get(api_key_env)
    if key:
        req.add_header("Authorization", f"Bearer {key}")
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise TransportError(f"request to {endpoint} failed: {exc}") from exc
    if not isinstance(doc, dict):
        raise TransportError(f"response from {endpoint} is not a JSON object: {doc!r}")
    return doc


def _http_transport(config: JudgeClientConfig):
    endpoint = config.resolve_endpoint()

    def send(payload: dict) -> str:
        body = dict(payload)
        if config.model:
            body["model"] = config.model
        doc = post_json(endpoint, body, config.api_key_env, config.timeout_s)
        completion = doc.get("completion")
        if not isinstance(completion, str):
            raise TransportError(f"malformed judge response: {doc!r}")
        return completion

    return send


def _audit(config: JudgeClientConfig, payload: dict, response: str) -> None:
    if config.audit_log is None:
        return
    entry = {"timestamp": time.time(), "request": payload, "response": response}
    with Path(config.audit_log).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def judge(req: JudgeRequest, config: JudgeClientConfig) -> JudgeVerdict:
    """Issue the request with deterministic decoding; retry transient
    transport failures with bounded exponential backoff; parse strictly."""
    payload = build_rubric_message(req)
    transport = config.transport or _http_transport(config)
    attempt = 0
    while True:
        try:
            raw = transport(payload)
            break
        except TransportError as exc:
            attempt += 1
            if attempt > config.max_retries:
                raise
            delay = min(config.backoff_base_s * 2 ** (attempt - 1),
                        config.backoff_cap_s)
            log.warning("judge transport failure (attempt %d/%d), retrying in %.2fs: %s",
                        attempt, config.max_retries, delay, exc)
            time.sleep(delay)
    _audit(config, payload, raw)
    return parse_verdict(raw)
