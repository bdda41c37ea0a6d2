import io
import json
import logging

import pytest

import dcr.judge
from dcr.errors import (ConfigurationError, JudgeParseError, TransportError,
                        ValidationError, VerdictError)
from dcr.judge import (RUBRIC_V1, EncodedFrame, JudgeClientConfig, JudgeRequest,
                       build_rubric_message, judge, parse_verdict,
                       serialize_payload)


def frame(i=0):
    return EncodedFrame(data_b64=f"ZnJhbWUte n{i}", width=64, height=36,
                        source_width=1280, source_height=720)


def request(n_frames=2):
    return JudgeRequest(prompt_p="a snowy beach with waves",
                        factors=("snowy", "beach"),
                        attractor="a tropical beach with waves",
                        frames=tuple(frame(i) for i in range(n_frames)))


def config(transport, **kw):
    return JudgeClientConfig(endpoint="https://judge.invalid/v1", transport=transport, **kw)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retries at once, with the judge's retry budget unchanged."""
    monkeypatch.setattr(dcr.judge, "BACKOFF_BASE_S", 0.0)


class TestRequestAndMessage:
    def test_requires_frames(self):
        with pytest.raises(ValidationError):
            JudgeRequest(prompt_p="p", factors=("a",), attractor="q", frames=())

    def test_payload_contains_all_four_elements(self):
        payload = build_rubric_message(request())
        text = payload["instruction"]
        assert "a snowy beach with waves" in text
        assert "snowy; beach" in text
        assert "a tropical beach with waves" in text
        assert len(payload["frames"]) == 2
        assert RUBRIC_V1 in text
        assert payload["rubric_version"] == "v1"
        assert payload["temperature"] == 0.0 and payload["n"] == 1

    def test_serialization_deterministic(self):
        a = serialize_payload(build_rubric_message(request()))
        b = serialize_payload(build_rubric_message(request()))
        assert a == b


class TestParsing:
    def test_parse_contract(self):
        v = parse_verdict("I looked carefully.\nscore: 5, collapsed: false")
        assert v.score == 5 and v.collapsed is False

    def test_out_of_range_score(self):
        with pytest.raises(JudgeParseError):
            parse_verdict("score: 6, collapsed: false")

    def test_unparsable_carries_raw(self):
        with pytest.raises(VerdictError) as err:
            parse_verdict("the vibes are good")
        assert err.value.raw_response == "the vibes are good"

    def test_collapsed_true(self):
        v = parse_verdict("score: 2, collapsed: true")
        assert v.collapsed is True

    def test_last_trailer_wins(self):
        v = parse_verdict("score: 1, collapsed: true\nrevised:\nscore: 4, collapsed: false")
        assert v.score == 4 and v.collapsed is False


class TestJudge:
    def test_roundtrip_with_mock(self):
        calls = []

        def transport(payload):
            calls.append(payload)
            return "reasoning...\nscore: 5, collapsed: false"

        v = judge(request(), config(transport))
        assert (v.score, v.collapsed) == (5, False)
        assert len(calls) == 1

    def test_retries_then_succeeds(self, caplog, no_backoff):
        state = {"n": 0}

        def transport(payload):
            state["n"] += 1
            if state["n"] <= 2:
                raise TransportError("timeout")
            return "score: 4, collapsed: true"

        with caplog.at_level(logging.WARNING, logger="dcr.judge"):
            v = judge(request(), config(transport))
        assert (v.score, v.collapsed) == (4, True)
        assert state["n"] == 3
        retries_logged = [r for r in caplog.records if "transport failure" in r.message]
        assert len(retries_logged) == 2

    def test_retry_budget_exhausted(self, monkeypatch, no_backoff):
        def transport(payload):
            raise TransportError("down")

        monkeypatch.setattr(dcr.judge, "MAX_RETRIES", 2)
        with pytest.raises(TransportError):
            judge(request(), config(transport))

    @pytest.mark.parametrize("base, delays", [(None, [0.25, 0.5, 1.0]),
                                              (3.0, [3.0, 4.0, 4.0])],
                             ids=["defaults", "base-3s"])
    def test_retry_schedule(self, monkeypatch, base, delays):
        # the backoff doubles from BACKOFF_BASE_S, capped at BACKOFF_CAP_S
        attempts, sleeps = [], []

        def transport(payload):
            attempts.append(payload)
            raise TransportError("down")

        if base is not None:
            monkeypatch.setattr(dcr.judge, "BACKOFF_BASE_S", base)
        monkeypatch.setattr(dcr.judge.time, "sleep", sleeps.append)
        with pytest.raises(TransportError):
            judge(request(), config(transport))
        assert (dcr.judge.MAX_RETRIES, dcr.judge.BACKOFF_CAP_S) == (3, 4.0)
        assert len(attempts) == 1 + dcr.judge.MAX_RETRIES and sleeps == delays

    def test_no_verdict_synthesized_on_parse_failure(self):
        def transport(payload):
            return "score: banana"

        with pytest.raises(VerdictError):
            judge(request(), config(transport))

    def test_audit_log_persists_pairs(self, tmp_path):
        log_path = tmp_path / "audit.jsonl"

        def transport(payload):
            return "score: 3, collapsed: false"

        with log_path.open("w", encoding="utf-8") as stream:
            judge(request(), config(transport, audit_log=stream))
            judge(request(), config(transport, audit_log=stream))
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["response"] == "score: 3, collapsed: false"
        assert "instruction" in entries[0]["request"]
        assert list(entries[0]) == ["timestamp", "request", "response"]

    @pytest.mark.parametrize("as_str", [False, True])
    def test_audit_log_given_a_path_appends_per_exchange(self, tmp_path, as_str):
        log_path = tmp_path / "audit.jsonl"
        log_path.write_text('{"earlier": 1}\n')

        def transport(payload):
            # each exchange's line is on disk before the next request
            seen.append(len(log_path.read_text().splitlines()))
            return "score: 3, collapsed: false"

        seen = []
        cfg = config(transport, audit_log=str(log_path) if as_str else log_path)
        judge(request(), cfg)
        judge(request(), cfg)
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert seen == [1, 2] and entries[0] == {"earlier": 1}
        assert [list(e) for e in entries[1:]] == [["timestamp", "request", "response"]] * 2

    def test_audit_log_keeps_an_unparsable_reply(self):
        stream = io.StringIO()
        with pytest.raises(VerdictError):
            judge(request(), config(lambda payload: "score: banana", audit_log=stream))
        (entry,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert entry["response"] == "score: banana"
        assert entry["request"] == build_rubric_message(request())

    def test_audit_log_skips_a_transport_failure(self, monkeypatch, no_backoff):
        def transport(payload):
            raise TransportError("connection reset")

        monkeypatch.setattr(dcr.judge, "MAX_RETRIES", 1)
        stream = io.StringIO()
        with pytest.raises(TransportError):
            judge(request(), config(transport, audit_log=stream))
        assert stream.getvalue() == ""

    def test_endpoint_required_for_http_transport(self, monkeypatch):
        monkeypatch.delenv("DCR_JUDGE_ENDPOINT", raising=False)
        cfg = JudgeClientConfig()
        with pytest.raises(ConfigurationError):
            judge(request(), cfg)

