"""Tests for the JSONL codec (:mod:`repro.obs.jsonl`) and the one record
stream over it (:mod:`repro.obs.records`).

The reader tests run over all three kinds of line the stream holds --
run records, audit records and live events -- each written by its own
writer and read back by its own reader. :class:`TestOneStream`
interleaves them in one file.
"""

import json
import logging
import math

import numpy as np
import pytest

from repro import cli
from repro.obs import audit, bus, jsonl, live, metrics, records


class Records:
    counter = "records.corrupted"
    message = "skipped corrupted record lines"

    @staticmethod
    def write(path, name, value=0.0):
        records.write_record(
            records.RunRecord(name, config={"value": value}), path)

    @staticmethod
    def load(path):
        return [(r.name, r.config["value"])
                for r in records.load_records(path)]


class Audit:
    counter = "records.corrupted"
    message = "skipped corrupted record lines"

    @staticmethod
    def write(path, name, value=0.0):
        audit.write_audit_record({"route": name, "value": value}, path)

    @staticmethod
    def load(path):
        return [(r["route"], r["value"]) for r in audit.load_audit(path)]


class Live:
    """The ``repro top`` follower: no WARNING, no counter."""

    counter = message = None

    @staticmethod
    def write(path, name, value=0.0):
        sink = bus.JsonlSink(path)
        sink.write({"type": "run.start", "name": name, "value": value})
        sink.close()

    @staticmethod
    def load(path):
        try:
            events = jsonl.read(path, follow=True)[0]
        except FileNotFoundError:  # what `repro top` shows: nothing yet
            events = []
        return [(e["name"], e["value"]) for e in events]


STREAMS = pytest.mark.parametrize("stream", [Records, Audit, Live],
                                  ids=["records", "audit", "live"])


@pytest.fixture(autouse=True)
def counting_metrics():
    metrics.enable()
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


def _warnings(caplog):
    return [r for r in caplog.records if r.levelno >= logging.WARNING]


@STREAMS
class TestReader:
    def test_torn_middle_line_skipped_with_one_warning(self, stream,
                                                       tmp_path, caplog):
        path = tmp_path / "s.jsonl"
        stream.write(path, "one")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "torn", "config": {"tru\n')  # torn append
        stream.write(path, "two")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert [n for n, __ in stream.load(path)] == ["one", "two"]
        assert jsonl.read(path)[2][0][0] == 2  # (lineno, detail)
        if stream.message is None:
            assert not _warnings(caplog)
            return
        (warning,) = _warnings(caplog)
        assert warning.getMessage() == stream.message
        assert warning.fields["skipped"] == 1
        assert warning.fields["first_bad_line"] == 2
        assert metrics.snapshot()["counters"][stream.counter] == 1

    def test_non_object_lines_skipped(self, stream, tmp_path, caplog):
        path = tmp_path / "s.jsonl"
        path.write_text('[1, 2, 3]\n"scalar"\nnull\n')
        stream.write(path, "kept")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert stream.load(path) == [("kept", 0.0)]
        if stream.message is not None:
            (warning,) = _warnings(caplog)
            assert warning.fields["skipped"] == 3
            assert warning.fields["first_bad_line"] == 1

    def test_blank_lines_ignored(self, stream, tmp_path, caplog):
        path = tmp_path / "s.jsonl"
        stream.write(path, "a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n   \n\t\n")
        stream.write(path, "b")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert [n for n, __ in stream.load(path)] == ["a", "b"]
        assert not _warnings(caplog)
        assert jsonl.read(path)[2] == []

    def test_missing_file_is_empty(self, stream, tmp_path):
        assert stream.load(tmp_path / "nope.jsonl") == []

    def test_infinity_round_trips(self, stream, tmp_path):
        path = tmp_path / "s.jsonl"
        stream.write(path, "inf", value=math.inf)
        ((name, value),) = stream.load(path)
        assert name == "inf" and math.isinf(value)

    def test_follower_leaves_partial_tail_pending(self, stream, tmp_path):
        path = tmp_path / "s.jsonl"
        stream.write(path, "first")
        stream.write(path, "second")
        data = path.read_bytes()
        cut = data.index(b"\n") + 10  # producer mid-way through line 2
        path.write_bytes(data[:cut])
        objects, offset, skipped = jsonl.read(path, follow=True)
        assert (len(objects), offset, skipped) == (
            1, data.index(b"\n") + 1, [])
        with open(path, "ab") as fh:
            fh.write(data[cut:])
        objects, offset, __ = jsonl.read(path, offset, follow=True)
        assert len(objects) == 1 and offset == len(data)
        assert jsonl.read(path, offset, follow=True) == ([], offset, [])

    def test_lines_are_plain_json(self, stream, tmp_path):
        path = tmp_path / "s.jsonl"
        stream.write(path, "x", value=np.float64(0.5))
        (line,) = path.read_text().splitlines()
        assert line == json.dumps(json.loads(line))


class TestCheck:
    TABLE = {
        "n": (int,),
        "x": (int, float),
        "opt": jsonl.Opt((str,)),
        "obj": {"k": (str,)},
        "rows": [{"r": (int,)}],
        "maybe": jsonl.Opt({"m": (int, float)}),
    }
    GOOD = {"n": 1, "x": 2.5, "obj": {"k": "v"}, "rows": [{"r": 0}]}

    def test_valid_and_optional_absent_or_null(self):
        assert jsonl.check(self.TABLE, self.GOOD) == []
        assert jsonl.check(self.TABLE, dict(self.GOOD, opt=None,
                                            maybe=None)) == []
        assert jsonl.check(self.TABLE, dict(self.GOOD, opt="s",
                                            maybe={"m": 1})) == []

    @pytest.mark.parametrize("field,value", [
        ("n", True), ("x", False), ("n", 1.5), ("x", "1"), ("n", None),
        ("opt", 3), ("obj", "v"), ("obj", {"k": 1}), ("rows", []),
        ("rows", [{"r": 0}, "row"]), ("rows", [{"r": True}]),
        ("maybe", {"m": True}), ("maybe", 1),
    ])
    def test_errors_name_the_field(self, field, value):
        errors = jsonl.check(self.TABLE, dict(self.GOOD, **{field: value}))
        assert len(errors) == 1 and field in errors[0]

    def test_not_an_object(self):
        assert jsonl.check(self.TABLE, [1]) == [
            "record is not an object: [1]"]


def _audit_line(ts, picked, regret, kind="ok", drift=None):
    record = {"schema": 1, "ts": ts, "pid": 1, "route": "list_triangles",
              "source": "graph", "speed_ratio": 3.0,
              "graph_class": "sparse-light", "confidence": 0.25,
              "picked": {"method": picked, "ordering": "descending",
                         "family": "hash", "predicted_cost": 2.0,
                         "predicted_time": 2.0},
              "entries": [{"method": picked, "ordering": "descending",
                           "cost": 2.0, "time": 2.0, "rank": 1}],
              "actual": {"ops": 10, "triangles": 1},
              "realized": {"regret": regret, "oracle_time": 2.0,
                           "picked_time": 2.0, "oracle": "E1+descending"},
              "diagnosis": {"kind": kind}}
    if drift is not None:
        record["drift"] = {"assumed": 3.0, "calibrated": 3.0 * drift,
                           "factor": drift}
    return record


class TestOneStream:
    """Runs, audits and events interleaved in one file, one torn line."""

    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("first"), path)
        sink = bus.JsonlSink(path)
        sink.write({"type": "phase", "ts": 1.0, "pid": 1, "name": "table",
                    "status": "start"})
        audit.write_audit_record(_audit_line(2.0, "T1", 0.0), path)
        sink.write({"type": "resource.sample", "ts": 3.0, "pid": 1,
                    "rss_bytes": 1 << 20, "cpu_user_s": 0.5,
                    "cpu_system_s": 0.1, "gc_collections": 3,
                    "gc_objects": 9, "threads": 2})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "audit", "route": "tor\n')  # torn append
        audit.write_audit_record(
            _audit_line(4.0, "E1", 0.5, kind="tie_margin", drift=8.0), path)
        sink.write({"type": "heartbeat", "ts": 5.0, "pid": 1,
                    "worker_pid": 42, "task": "cell"})
        sink.close()
        records.write_record(records.RunRecord("second"), path)
        return path

    def test_readers_filter_by_type(self, stream):
        assert [r.name for r in records.load_records(stream)] == [
            "first", "second"]
        assert [(r["type"], r["picked"]["method"])
                for r in audit.load_audit(stream)] == [
            ("audit", "T1"), ("audit", "E1")]

    def test_untyped_lines_read_as_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"name": "old", "config": {}, "spans": [], '
                        '"metrics": {}, "meta": {}}\n')
        records.write_record(records.RunRecord("new"), path)
        assert [r.name for r in records.load_records(path)] == [
            "old", "new"]
        assert audit.load_audit(path) == []
        assert cli.main(["report", "validate", "--runs", str(path)]) == 0

    def test_torn_line_counted_once(self, stream):
        records.load_records(stream)
        counters = metrics.snapshot()["counters"]
        assert counters["records.corrupted"] == 1
        assert "audit.corrupted" not in counters

    def test_live_state_folds_events_and_audits(self, stream):
        state = live.LiveState()
        state.update_many(jsonl.read(stream, follow=True)[0])
        data = state.to_dict()
        assert data["phases"] == ["table"]
        assert data["resources"]["rss_bytes"] == 1 << 20
        assert data["workers"]["42"]["task"] == "cell"
        assert data["misplans"] == 1
        assert data["planner"]["picked"] == "E1+descending"
        assert data["planner"]["confidence"] == 0.25
        assert data["planner"]["kind"] == "tie_margin"
        assert data["drift"]["factor"] == 8.0
        assert data["events"] == 7  # every object line, runs included

    def test_validate_exits_1_on_the_torn_line(self, stream, capsys):
        assert cli.main(["report", "validate", "--runs", str(stream)]) == 1
        assert "not JSON" in capsys.readouterr().err

    def test_validate_clean_stream(self, stream, capsys):
        lines = [line for line in stream.read_text().splitlines()
                 if '"tor' not in line]
        stream.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", "validate", "--runs", str(stream)]) == 0
        assert "7 line(s) OK" in capsys.readouterr().out

    @pytest.mark.parametrize("line,needle", [
        ({"type": "nope", "ts": 1.0, "pid": 1}, "unknown type 'nope'"),
        (dict(_audit_line(1.0, "T1", 0.0), type="audit", confidence="hi"),
         "'confidence'"),
        ({"type": "audit", "route": "x"}, "'schema'"),
        ({"type": "run", "name": "r", "config": [], "spans": [],
          "metrics": {}, "meta": {}}, "'config'"),
    ], ids=["unknown-type", "audit-mistyped", "audit-missing", "run"])
    def test_validate_exits_1_on_a_bad_line(self, tmp_path, capsys, line,
                                            needle):
        path = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("ok"), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        assert cli.main(["report", "validate", "--runs", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and needle in err

    def test_path_precedence(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the default path is relative
        monkeypatch.delenv(records.RUNS_FILE_ENV, raising=False)
        assert records.runs_path() == records.DEFAULT_RUNS_PATH
        monkeypatch.setenv(records.RUNS_FILE_ENV, str(tmp_path / "env"))
        assert records.runs_path() == tmp_path / "env"
        assert records.runs_path(tmp_path / "x") == tmp_path / "x"
