"""Tests for the live telemetry runtime (bus, sampler, progress,
heartbeats, ``repro top`` state) and its end-to-end acceptance story."""

import logging
import queue
import threading

import numpy as np
import pytest

from repro import DescendingDegree, DiscretePareto, obs
from repro.distributions import root_truncation
from repro.experiments.harness import SimulationSpec, sweep_n
from repro.obs import bus, jsonl, live, records


@pytest.fixture(autouse=True)
def clean_live():
    """Every test starts and ends with the whole obs stack off."""
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()
    yield
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()


def _spec(n_sequences=3, n_graphs=2):
    return SimulationSpec(
        base_dist=DiscretePareto(1.7, 21.0),
        truncation=root_truncation,
        method="T1",
        permutation=DescendingDegree(),
        limit_map="descending",
        n_sequences=n_sequences,
        n_graphs=n_graphs,
    )


class TestBus:
    def test_disabled_emit_is_noop(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        assert bus.emit("phase", name="x", status="start") is None
        assert sink.events == []

    def test_enabled_emit_stamps_and_fans_out(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        event = bus.emit("phase", name="x", status="start")
        assert event["type"] == "phase"
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)
        assert sink.of_type("phase") == [event]
        assert records.check_line(event) == []

    def test_broken_sink_does_not_kill_emit(self):
        class Broken:
            def write(self, event):
                raise RuntimeError("boom")

            def close(self):
                pass

        good = bus.MemorySink()
        bus.add_sink(Broken())
        bus.add_sink(good)
        bus.enable()
        bus.emit("run.start", name="r")
        assert len(good.events) == 1

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"  # parents created
        sink = bus.JsonlSink(path)
        bus.add_sink(sink)
        bus.enable()
        bus.emit("run.start", name="r")
        bus.emit("phase", name="cell", status="start")
        # numpy scalars serialise as numbers, not as their str()
        bus.emit("heartbeat", worker_pid=np.int64(7), task="t")
        bus.emit("worker.stalled", worker_pid=np.int64(7),
                 silent_s=np.float64(94.8), missed=np.int64(2),
                 last_task="t")
        sink.close()
        count, errors = jsonl.validate(path, records.check_line)
        assert count == 4
        assert errors == []
        events = jsonl.read(path)[0]
        assert events[2]["worker_pid"] == 7
        assert (events[3]["silent_s"], events[3]["missed"]) == (94.8, 2)

    def test_validate_flags_missing_and_mistyped_fields(self):
        errors = records.check_line(
            {"type": "progress", "ts": 1.0, "pid": 1, "scope": "cell",
             "label": "x", "done": 1, "total": True, "frac": 0.5})
        assert any("'total'" in e for e in errors)  # bool is not a number
        assert records.check_line({"type": "nope", "ts": 1.0, "pid": 1})
        assert records.check_line("not a dict")
        # nor does a bool stand in for the stamp's numbers
        errors = records.check_line(
            {"type": "run.start", "ts": True, "pid": True, "name": "r"})
        assert any("'ts'" in e for e in errors)
        assert any("'pid'" in e for e in errors)

    def test_validate_file_flags_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "run.start", "name": "r", "ts": 1.0,'
                        ' "pid": 1}\n{"type": "run.end", "na\n')
        count, errors = jsonl.validate(path, records.check_line)
        assert count == 2
        assert len(errors) == 1
        assert "not JSON" in errors[0]


class TestResourceSampler:
    def test_sample_shape(self):
        sample = live.sample_resources()
        assert sample["rss_bytes"] > 0
        assert sample["threads"] >= 1
        assert jsonl.check(bus.EVENT_SCHEMA["resource.sample"],
                           sample) == []

    def test_sample_once_publishes_valid_event(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        sampler = live.ResourceSampler(interval_s=60.0)
        sampler.sample_once()
        (event,) = sink.of_type("resource.sample")
        assert records.check_line(event) == []
        assert len(sampler.series()) == 1

    def test_ring_buffer_ages_out(self):
        sampler = live.ResourceSampler(interval_s=60.0, maxlen=4)
        for __ in range(9):
            sampler.sample_once()
        assert len(sampler.series()) == 4

    def test_start_stop_collects_series(self):
        sampler = live.ResourceSampler(interval_s=0.02)
        sampler.start()
        try:
            deadline = 50
            while len(sampler.series()) < 3 and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
        finally:
            sampler.stop()
        series = sampler.series()
        assert len(series) >= 3
        assert all(s["ts"] <= t["ts"] for s, t in zip(series, series[1:]))

    def test_summary_windows(self):
        sampler = live.ResourceSampler(interval_s=60.0)
        sampler.sample_once()
        sampler.sample_once()
        summary = sampler.summary()
        assert summary["samples"] == 2
        assert summary["rss_max_bytes"] >= summary["rss_min_bytes"]
        assert sampler.summary(since_ts=float("inf")) is None

    def test_sampler_series_reflects_active_runtime(self):
        assert live.sampler_series() == []
        live.enable(interval_s=60.0)
        assert len(live.sampler_series()) >= 1


class TestProgress:
    def test_unit_fraction_without_model(self):
        progress = live.Progress("units", 4)
        progress.advance(1)
        assert progress.frac() == 0.25
        progress.advance(3)
        assert progress.frac() == 1.0

    def test_model_ops_drive_fraction_and_eta(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        progress = live.Progress("cell n=100", 10, predicted_ops=1000.0,
                                 scope="cell", phase="simulate")
        event = progress.advance(1, ops=250.0)
        assert event["frac"] == 0.25  # by ops, not by the 1/10 units
        assert event["ops_done"] == 250.0
        assert event["ops_predicted"] == 1000.0
        assert event["eta_s"] >= 0.0
        assert event["phase"] == "simulate"
        assert records.check_line(event) == []

    def test_throttle_keeps_first_and_terminal(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        progress = live.Progress("chunks", 5, min_interval_s=3600.0)
        assert progress.advance(1) is not None   # first always publishes
        assert progress.advance(1) is None       # throttled
        assert progress.advance(1) is None
        progress.advance(1)
        assert progress.advance(1) is not None   # terminal always does
        fracs = [e["frac"] for e in sink.of_type("progress")]
        assert fracs == [pytest.approx(0.2), pytest.approx(1.0)]

    def test_disabled_bus_still_tracks_state(self):
        progress = live.Progress("quiet", 2)
        assert progress.advance(1) is None
        assert progress.done == 1


class TestHeartbeats:
    def test_post_and_relay(self):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        q = queue.Queue()
        live.post_heartbeat(q, "seq 0 n=100 T1", status="start")
        watchdog = live.HeartbeatWatchdog(q, interval_s=60.0)
        assert watchdog.drain() == 1
        (event,) = sink.of_type("heartbeat")
        assert records.check_line(event) == []
        assert event["task"] == "seq 0 n=100 T1"
        assert event["status"] == "start"
        (state,) = watchdog.workers.values()
        assert state["beats"] == 1
        assert state["last_task"] == "seq 0 n=100 T1"

    def test_post_heartbeat_never_raises(self):
        class Broken:
            def put(self, *args, **kwargs):
                raise RuntimeError("manager gone")

        live.post_heartbeat(Broken(), "task")  # must not raise

    def test_deliberate_stall_flags_once_and_recovers(self, caplog):
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        q = queue.Queue()
        watchdog = live.HeartbeatWatchdog(q, interval_s=0.1,
                                          miss_threshold=3)
        live.post_heartbeat(q, "slow task")
        watchdog.drain()
        (pid,) = watchdog.workers
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert watchdog.check(now=watchdog.workers[pid]["last_seen"]
                                  + 1.0) == [pid]
            # already flagged: a second check stays silent
            assert watchdog.check(now=watchdog.workers[pid]["last_seen"]
                                  + 2.0) == []
        (event,) = sink.of_type("worker.stalled")
        assert records.check_line(event) == []
        assert event["worker_pid"] == pid
        assert event["silent_s"] >= 0.3
        assert event["missed"] >= 3
        assert event["last_task"] == "slow task"
        (warning,) = [r for r in caplog.records
                      if r.levelno == logging.WARNING]
        assert warning.getMessage() == "worker heartbeat stalled"
        assert warning.fields["last_task"] == "slow task"
        # a fresh beat clears the flag, so it can stall (and warn) again
        live.post_heartbeat(q, "slow task")
        watchdog.drain()
        assert not watchdog.workers[pid]["stalled"]

    def test_fresh_worker_not_flagged_early(self):
        q = queue.Queue()
        watchdog = live.HeartbeatWatchdog(q, interval_s=0.1,
                                          miss_threshold=3)
        live.post_heartbeat(q, "task")
        watchdog.drain()
        (pid,) = watchdog.workers
        assert watchdog.check(now=watchdog.workers[pid]["last_seen"]
                              + 0.2) == []

    def test_done_worker_is_never_flagged(self):
        # a spawn worker that finished its task sits idle, beatless,
        # while the other worker finishes; only a running one can stall
        q = queue.Queue()
        watchdog = live.HeartbeatWatchdog(q, interval_s=0.1,
                                          miss_threshold=3)
        watchdog._ingest({"worker_pid": 1, "task": "seq 0",
                          "status": "done"})
        watchdog._ingest({"worker_pid": 2, "task": "seq 1",
                          "status": "running"})
        late = max(w["last_seen"] for w in watchdog.workers.values()) + 1.0
        assert watchdog.check(now=late) == [2]
        assert not watchdog.workers[1]["stalled"]
        assert watchdog.workers[1]["last_status"] == "done"
        # a new task's first beat makes the idle worker accountable again
        watchdog._ingest({"worker_pid": 1, "task": "seq 2",
                          "status": "start"})
        assert watchdog.check(
            now=watchdog.workers[1]["last_seen"] + 1.0) == [1]

    def test_sweep_watchdog_runs_at_the_enabled_interval(self,
                                                           monkeypatch):
        """``live.enable(interval_s=x)`` sets the cadence of the
        sampler, the workers' beats and the watchdog alike, over
        ``REPRO_LIVE_INTERVAL``, until ``disable``."""
        monkeypatch.setenv("REPRO_LIVE_INTERVAL", "30")
        seen = []
        real_init = live.HeartbeatWatchdog.__init__

        def spy(self, queue, interval_s=None, **kwargs):
            real_init(self, queue, interval_s=interval_s, **kwargs)
            seen.append(self.interval_s)

        monkeypatch.setattr(live.HeartbeatWatchdog, "__init__", spy)
        live.enable(interval_s=0.2)
        assert live.live_interval() == 0.2
        assert live._sampler.interval_s == 0.2
        sweep_n(_spec(n_sequences=2, n_graphs=1), [200], workers=2,
                seed=3)
        live.disable()
        assert seen == [0.2]
        assert live.live_interval() == 30.0

    def test_invalid_enabled_interval_keeps_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_INTERVAL", "30")
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            live.enable(interval_s=bad)
            assert live.live_interval() == 30.0, bad
            live.disable()

    def test_thread_lifecycle_drains_stragglers(self):
        q = queue.Queue()
        watchdog = live.HeartbeatWatchdog(q, interval_s=60.0).start()
        live.post_heartbeat(q, "late beat")
        table = watchdog.stop()
        (state,) = table.values()
        assert state["last_task"] == "late beat"


class TestLiveState:
    def _events(self):
        return [
            {"type": "phase", "ts": 1.0, "pid": 1, "name": "table",
             "status": "start"},
            {"type": "resource.sample", "ts": 2.0, "pid": 1,
             "rss_bytes": 2 * 1024 * 1024, "cpu_user_s": 1.5,
             "cpu_system_s": 0.5, "gc_collections": 3,
             "gc_objects": 100, "threads": 4},
            {"type": "progress", "ts": 3.0, "pid": 1, "scope": "cell",
             "label": "cell n=100 T1", "done": 1.0, "total": 4.0,
             "frac": 0.25, "eta_s": 9.0, "ops_done": 10.0,
             "ops_predicted": 40.0},
            {"type": "heartbeat", "ts": 4.0, "pid": 1,
             "worker_pid": 123, "task": "seq 0"},
            {"type": "worker.stalled", "ts": 5.0, "pid": 1,
             "worker_pid": 456, "silent_s": 2.0, "missed": 4,
             "last_task": "seq 1"},
        ]

    def test_fold_and_gauges(self):
        state = live.LiveState()
        state.update_many(self._events())
        assert state.phases == ["table"]
        assert state.events == 5
        assert state.resources["rss_bytes"] == 2 * 1024 * 1024
        progress = state.progress[("cell", "cell n=100 T1")]
        assert progress["frac"] == 0.25
        assert progress["eta_s"] == 9.0
        assert state.workers[123]["stalled"] is False
        assert state.workers[456]["stalled"] is True
        assert state.workers[456]["task"] == "seq 1"

    def test_phase_end_pops(self):
        state = live.LiveState()
        state.update({"type": "phase", "ts": 1.0, "pid": 1,
                      "name": "table", "status": "start"})
        state.update({"type": "phase", "ts": 2.0, "pid": 1,
                      "name": "table", "status": "end"})
        assert state.phases == []

    def test_render_status_mentions_everything(self):
        state = live.LiveState()
        state.update_many(self._events())
        text = live.render_status(state)
        assert "table" in text
        assert "25.0%" in text
        assert "eta" in text
        assert "2.0 MB" in text
        assert "pid 123" in text
        assert "STALLED" in text

    def test_render_status_empty(self):
        text = live.render_status(live.LiveState())
        assert "phase    : --" in text
        assert "progress : --" in text


class TestRuntimeLifecycle:
    def test_enable_disable_roundtrip(self, tmp_path):
        events = tmp_path / "events.jsonl"
        live.enable(events_path=events, interval_s=60.0)
        assert live.is_enabled()
        assert bus.is_enabled()
        live.disable()
        assert not live.is_enabled()
        assert not bus.is_enabled()
        count, errors = jsonl.validate(events, records.check_line)
        assert count >= 1  # the sampler's first + final samples
        assert errors == []

    def test_enable_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE", raising=False)
        assert not live.enable_from_env()
        monkeypatch.setenv("REPRO_LIVE", "1")
        monkeypatch.setenv("REPRO_RUNS_FILE",
                           str(tmp_path / "runs.jsonl"))
        monkeypatch.setenv("REPRO_LIVE_INTERVAL", "60")
        assert live.enable_from_env()
        assert live.is_enabled()
        live.disable()
        (sample, *__) = jsonl.read(tmp_path / "runs.jsonl")[0]
        assert sample["type"] == "resource.sample"

    def test_live_interval_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_INTERVAL", "0.25")
        assert live.live_interval() == 0.25
        # unparsable, non-positive, NaN and waits longer than
        # threading.TIMEOUT_MAX (Event.wait would raise and kill the
        # sampler thread) all fall back to the default
        for raw in ("junk", "inf", "1e300", "nan", "0", "-1"):
            monkeypatch.setenv("REPRO_LIVE_INTERVAL", raw)
            assert live.live_interval() == live.DEFAULT_INTERVAL_S, raw
        monkeypatch.setenv("REPRO_LIVE_INTERVAL",
                           repr(threading.TIMEOUT_MAX))
        assert live.live_interval() == threading.TIMEOUT_MAX

    def test_top_level_span_gets_phase_events_and_resources(self):
        live.enable(interval_s=60.0)
        sink = bus.MemorySink()
        bus.add_sink(sink)
        obs.enable()
        with obs.span("table", name="t") as root:
            with obs.span("inner"):  # nested spans stay silent
                pass
        statuses = [(e["name"], e["status"]) for e in sink.of_type("phase")]
        assert statuses == [("table", "start"), ("table", "end")]
        assert root.attrs["resources"]["samples"] >= 1
        assert root.attrs["resources"]["rss_max_bytes"] > 0

    def test_collect_attaches_resource_series(self):
        live.enable(interval_s=60.0)
        obs.enable()
        with obs.span("phase"):
            pass
        record = records.collect("unit")
        series = record.metrics["resources"]
        assert len(series) >= 1
        assert series[0]["rss_bytes"] > 0

    def test_collect_without_live_has_no_resources(self):
        obs.enable()
        with obs.span("phase"):
            pass
        record = records.collect("unit")
        assert "resources" not in record.metrics


class TestFsyncFlag:
    def test_appends_stay_atomic_without_fsync(self, tmp_path,
                                               monkeypatch):
        # the live stream is the one append path that never fsyncs; its
        # lines must still land whole
        synced = []
        monkeypatch.setattr(jsonl.os, "fsync", synced.append)
        path = tmp_path / "events.jsonl"
        sink = bus.JsonlSink(path)
        for i in range(20):
            sink.write({"type": "run.start", "ts": float(i), "pid": 1,
                        "name": f"rec{i}", "n": np.int64(i)})
        sink.close()
        assert synced == []
        events, end, skipped = jsonl.read(path)
        assert [e["name"] for e in events] == [f"rec{i}" for i in range(20)]
        assert [e["n"] for e in events] == list(range(20))
        assert not skipped
        assert end == path.stat().st_size

    def test_host_meta_shape(self):
        from repro.engine import native
        meta = records.host_meta()
        assert meta["cpu_count"] >= 1
        assert meta["python"]
        assert meta["machine"]
        # reflects whether the kernels actually resolved, plus the
        # toolchain/thread context benchmark sidecars need
        assert meta["native"] is native.available()
        assert meta["native_state"] == native.status()["state"]
        assert meta["native_threads"] >= 1
        if meta["native"]:
            assert meta["compiler"]


class TestAcceptance:
    """The ISSUE's acceptance story, scaled to test size."""

    def test_sweep_with_live_telemetry(self):
        spec = _spec(n_sequences=3, n_graphs=2)
        live.enable(interval_s=0.05)
        sink = bus.MemorySink()
        bus.add_sink(sink)
        obs.enable()
        with obs.span("table", name="acceptance"):
            rows = sweep_n(spec, [200, 300], workers=2, seed=7)
        record = records.collect("acceptance")
        live.disable()

        assert [r["n"] for r in rows] == [200, 300]
        # sampled resource series rides into the run record
        series = record.metrics["resources"]
        assert len(series) >= 1
        assert all(s["rss_bytes"] > 0 for s in series)
        # >= 1 progress event per cell, carrying the model-ops ETA
        cell_events = [e for e in sink.of_type("progress")
                       if e["scope"] == "cell"]
        for n in (200, 300):
            events = [e for e in cell_events if f"n={n}" in e["label"]]
            assert events, f"no progress events for cell n={n}"
            terminal = events[-1]
            assert terminal["frac"] == pytest.approx(1.0)
            assert terminal["ops_predicted"] > 0
            assert terminal["ops_done"] > 0
            assert "eta_s" in terminal
        # the sweep scope reports across grid points too
        sweep_events = [e for e in sink.of_type("progress")
                        if e["scope"] == "sweep"]
        assert sweep_events[-1]["frac"] == pytest.approx(1.0)
        # heartbeats arrived from every pool worker
        beats = sink.of_type("heartbeat")
        assert beats, "no worker heartbeats relayed"
        assert all(e["worker_pid"] != record.meta.get("pid")
                   for e in beats)
        statuses = {e["status"] for e in beats}
        assert "start" in statuses and "done" in statuses
        # the whole stream is schema-clean
        assert [err for e in sink.events
                for err in records.check_line(e)] == []

    def test_disabled_parity_bit_identical(self):
        spec = _spec(n_sequences=2, n_graphs=2)
        baseline = sweep_n(spec, [200], workers=2, seed=11)
        live.enable(interval_s=0.05)
        with_live = sweep_n(spec, [200], workers=2, seed=11)
        live.disable()
        again = sweep_n(spec, [200], workers=2, seed=11)
        assert with_live == baseline  # telemetry never touches results
        assert again == baseline
