"""Tests for span tracing, the exporters, and the Chrome-trace schema."""

import json
from pathlib import Path

from repro.obs import (
    Observation,
    chrome_trace,
    jsonl_records,
    summary_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_summary,
)
from repro.obs.spans import TraceBuffer

GOLDEN = Path(__file__).parent / "fixtures" / "obs" / "golden_trace.json"


class TestTraceBuffer:
    def test_span_lifecycle(self):
        buf = TraceBuffer()
        buf.begin_span("x:1", "exchange", 10, cat="engine", track=3)
        span = buf.end_span("x:1", 50, args={"outcome": "moved"})
        assert span.duration == 40
        assert span.args == {"outcome": "moved"}
        assert [s.end for s in buf.spans] == [50]

    def test_end_unknown_span_is_noop(self):
        buf = TraceBuffer()
        assert buf.end_span("never-opened", 10) is None

    def test_epoch_scopes_span_ids(self):
        buf = TraceBuffer()
        buf.set_epoch("trial0")
        buf.begin_span("x:1", "exchange", 10)
        buf.end_span("x:1", 20)
        buf.set_epoch("trial1")
        buf.begin_span("x:1", "exchange", 5)  # same uid, new trial
        buf.end_span("x:1", 8)
        durations = [s.duration for s in buf.spans]
        assert durations == [10, 3]
        assert [(s.epoch, s.span_id, s.end) for s in buf.spans] == [
            ("trial0", "x:1", 20),
            ("trial1", "x:1", 8),
        ]

    def test_max_time_tracks_every_record(self):
        buf = TraceBuffer()
        buf.instant("e", 7)
        buf.sample("s", 12, 1.0)
        buf.complete_span("p:1", "pkt", 3, 30)
        assert buf.max_time == 30

    def test_len_counts_everything(self):
        buf = TraceBuffer()
        buf.begin_span("a", "a", 0)
        buf.instant("e", 1)
        buf.sample("s", 2, 1.0)
        assert len(buf) == 3


def _reference_observation() -> Observation:
    """A small, fully deterministic observation for the golden test."""
    obs = Observation(label="golden")
    obs.epoch("trial0")
    obs.begin_span(
        "xchg:0", "exchange", 10,
        cat="engine", track=4, args={"mode": "1way", "partner": 5},
    )
    obs.complete_span(
        "pkt:0", "coin_status", 12, 15,
        cat="noc", track=4, parent_id="xchg:0",
        args={"src": 4, "dst": 5, "hops": 1, "flits": 1},
    )
    obs.end_span("xchg:0", 40, args={"outcome": "moved"})
    obs.begin_span("xchg:1", "exchange", 50, cat="engine", track=5)
    obs.event("nack", 55, cat="engine", track=5, args={"to": 4})
    obs.sample("soc.power_mw", 20, 12.5, cat="soc", track=4)
    obs.inc("engine.exchanges_initiated", 10)
    obs.inc("engine.exchanges_initiated", 50)
    obs.observe("noc.hop_histogram", 15, 1)
    return obs


class TestChromeTrace:
    def test_reference_trace_is_schema_valid(self):
        doc = chrome_trace(_reference_observation())
        assert validate_chrome_trace(doc) == []

    def test_matches_golden_file(self):
        # The exporter's output is part of the repo's contract: any
        # intentional change must regenerate the golden via
        # `python -m tests.test_obs_trace`.
        doc = chrome_trace(_reference_observation())
        golden = json.loads(GOLDEN.read_text())
        assert doc == golden

    def test_open_span_clamped_and_flagged(self):
        doc = chrome_trace(_reference_observation())
        open_events = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("incomplete")
        ]
        assert len(open_events) == 1
        # Clamped to the horizon: 55 (last record) - 50 (begin).
        assert open_events[0]["ts"] == 50
        assert open_events[0]["dur"] == 5

    def test_parent_link_becomes_flow_pair(self):
        doc = chrome_trace(_reference_observation())
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert start["ts"] == 10  # parent begin
        assert finish["ts"] == 12  # child begin

    def test_pid_per_epoch_and_category(self):
        doc = chrome_trace(_reference_observation())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"trial0:engine", "trial0:noc", "trial0:soc"}

    def test_timestamps_are_sim_cycles(self):
        doc = chrome_trace(_reference_observation())
        assert doc["otherData"]["time_unit"] == "noc-cycles"
        assert doc["otherData"]["max_time_cycles"] == 55
        assert all(
            isinstance(e["ts"], int) for e in doc["traceEvents"]
        )

    def test_write_and_reload(self, tmp_path):
        path = write_chrome_trace(_reference_observation(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({"traceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "ts": 0}]}
        assert any("unknown ph" in p for p in validate_chrome_trace(doc))

    def test_rejects_float_timestamp(self):
        doc = {
            "traceEvents": [
                {"ph": "i", "name": "x", "pid": 1, "tid": 0, "ts": 1.5}
            ]
        }
        assert any("integer" in p for p in validate_chrome_trace(doc))

    def test_rejects_complete_event_without_dur(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(doc))

    def test_rejects_flow_without_id(self):
        doc = {"traceEvents": [{"ph": "s", "name": "x", "pid": 1, "ts": 0}]}
        assert any("missing id" in p for p in validate_chrome_trace(doc))


class TestJsonl:
    def test_record_stream_covers_everything(self, tmp_path):
        path = write_jsonl(_reference_observation(), tmp_path / "e.jsonl")
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        types = {r["type"] for r in records}
        assert types == {
            "meta", "span", "event", "sample", "metric", "profile_site",
        } - {"profile_site"}  # no kernel events in the hand-built obs
        assert records[0]["type"] == "meta"
        assert records[0]["time_unit"] == "noc-cycles"

    def test_span_record_round_trips_fields(self):
        records = list(jsonl_records(_reference_observation()))
        span = next(
            r for r in records
            if r["type"] == "span" and r["id"] == "pkt:0"
        )
        assert span["parent"] == "xchg:0"
        assert span["begin"] == 12
        assert span["end"] == 15
        assert span["epoch"] == "trial0"


class TestSummary:
    def test_summary_mentions_instruments_and_spans(self, tmp_path):
        path = write_summary(_reference_observation(), tmp_path / "s.txt")
        text = path.read_text()
        assert "engine.exchanges_initiated" in text
        assert "engine/exchange" in text
        assert "noc.hop_histogram" in text
        assert "(no events profiled)" in text

    def test_lines_for_empty_observation(self):
        lines = summary_lines(Observation(label="empty"))
        assert lines[0].startswith("== observability summary: empty")


def _regenerate_golden() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(chrome_trace(_reference_observation()), indent=2,
                   sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    _regenerate_golden()
    print(f"regenerated {GOLDEN}")
