"""Tests for the JSONL codec (:mod:`repro.obs.jsonl`) and the one record
stream over it (:mod:`repro.obs.records`).

The reader tests run over the two kinds of line the stream holds --
run records and audit records -- each written by its own writer and
read back by its own reader, and over the bare codec
(:func:`~repro.obs.jsonl.write_line` / :func:`~repro.obs.jsonl.read`).
:class:`TestOneStream` interleaves runs and audits in one file.
"""

import json
import logging
import math
import os

import numpy as np
import pytest

from repro import cli
from repro.obs import audit, jsonl, metrics, records


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


class Codec:
    """The bare line codec: no WARNING, no counter."""

    counter = message = None

    @staticmethod
    def write(path, name, value=0.0):
        fd = jsonl.open_append(path)
        try:
            jsonl.write_line(fd, {"name": name, "value": value})
        finally:
            os.close(fd)

    @staticmethod
    def load(path):
        try:
            objects = jsonl.read(path)[0]
        except FileNotFoundError:
            objects = []
        return [(o["name"], o["value"]) for o in objects]


STREAMS = pytest.mark.parametrize("stream", [Records, Audit, Codec],
                                  ids=["records", "audit", "codec"])


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
        assert jsonl.read(path)[1][0][0] == 2  # (lineno, detail)
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
        assert jsonl.read(path)[1] == []

    def test_missing_file_is_empty(self, stream, tmp_path):
        assert stream.load(tmp_path / "nope.jsonl") == []

    def test_infinity_round_trips(self, stream, tmp_path):
        path = tmp_path / "s.jsonl"
        stream.write(path, "inf", value=math.inf)
        ((name, value),) = stream.load(path)
        assert name == "inf" and math.isinf(value)

    def test_lines_are_plain_json(self, stream, tmp_path):
        path = tmp_path / "s.jsonl"
        stream.write(path, "x", value=np.float64(0.5))
        (line,) = path.read_text().splitlines()
        assert line == json.dumps(json.loads(line))


class TestWriter:
    def test_appends_stay_atomic_without_fsync(self, tmp_path,
                                               monkeypatch):
        # write_line never fsyncs (only append does); its lines must
        # still land whole, numpy scalars as numbers
        synced = []
        monkeypatch.setattr(jsonl.os, "fsync", synced.append)
        path = tmp_path / "deep" / "events.jsonl"  # parents created
        fd = jsonl.open_append(path)
        for i in range(20):
            jsonl.write_line(fd, {"name": f"rec{i}", "n": np.int64(i),
                                  "x": np.float64(i / 4)})
        os.close(fd)
        assert synced == []
        objects, skipped = jsonl.read(path)
        assert [o["name"] for o in objects] == [f"rec{i}"
                                                for i in range(20)]
        assert [o["n"] for o in objects] == list(range(20))
        assert objects[3]["x"] == 0.75
        assert not skipped

    def test_validate_file_flags_torn_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("r"), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "run", "na\n')
        count, errors = jsonl.validate(path, records.check_line)
        assert count == 2
        assert len(errors) == 1
        assert "not JSON" in errors[0]


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
    """Runs and audits interleaved in one file, one torn line."""

    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        records.write_record(records.RunRecord("first"), path)
        audit.write_audit_record(_audit_line(2.0, "T1", 0.0), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "audit", "route": "tor\n')  # torn append
        audit.write_audit_record(
            _audit_line(4.0, "E1", 0.5, kind="tie_margin", drift=8.0), path)
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

    def test_validate_exits_1_on_the_torn_line(self, stream, capsys):
        assert cli.main(["report", "validate", "--runs", str(stream)]) == 1
        assert "not JSON" in capsys.readouterr().err

    def test_validate_clean_stream(self, stream, capsys):
        lines = [line for line in stream.read_text().splitlines()
                 if '"tor' not in line]
        stream.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", "validate", "--runs", str(stream)]) == 0
        assert "4 line(s) OK" in capsys.readouterr().out

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
