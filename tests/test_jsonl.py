"""Tests for the shared JSONL codec (:mod:`repro.obs.jsonl`).

The reader tests run over all three streams that use the codec -- run
records, audit records and the live event stream -- each written by
its own writer and read back by its own reader.
"""

import json
import logging
import math

import numpy as np
import pytest

from repro.obs import audit, bus, jsonl, metrics, records


class Records:
    counter = "records.corrupted"
    message = "skipped corrupted run-record lines"

    @staticmethod
    def write(path, name, value=0.0):
        records.write_record(
            records.RunRecord(name, config={"value": value}), path)

    @staticmethod
    def load(path):
        return [(r.name, r.config["value"])
                for r in records.load_records(path)]


class Audit:
    counter = "audit.corrupted"
    message = "skipped corrupted audit lines"

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
