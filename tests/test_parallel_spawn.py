"""Spawn start-method parity for the pool-backed harness.

The default Linux pool forks, so workers inherit the parent's modules
and observability state for free. ``spawn`` (the macOS/Windows
default) re-imports everything in a fresh interpreter -- these tests
pin that results stay bit-identical and that the heartbeat queue and
span/counter merge-back survive pickling through a spawn context.
"""

import multiprocessing

import pytest

from repro import DescendingDegree, DiscretePareto, obs
from repro.distributions import root_truncation
from repro.experiments.harness import SimulationSpec
from repro.experiments.parallel import (resolve_mp_context,
                                        simulate_cost_parallel,
                                        sweep_n_parallel)
from repro.obs import bus, live, records


@pytest.fixture(autouse=True)
def clean_obs():
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()
    yield
    live.disable()
    bus.reset()
    obs.disable()
    obs.reset()


def _spec(n_sequences=2, n_graphs=2):
    return SimulationSpec(
        base_dist=DiscretePareto(1.7, 21.0),
        truncation=root_truncation,
        method="T1",
        permutation=DescendingDegree(),
        limit_map="descending",
        n_sequences=n_sequences,
        n_graphs=n_graphs,
    )


class TestResolveMpContext:
    def test_default_is_platform(self):
        assert resolve_mp_context(None) is None

    def test_argument_wins(self):
        ctx = resolve_mp_context("spawn")
        assert ctx.get_start_method() == "spawn"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            resolve_mp_context("teleport")


class TestSpawnParity:
    def test_spawn_matches_serial_bit_identical(self):
        spec = _spec()
        serial = simulate_cost_parallel(spec, 250, seed=5, max_workers=1)
        spawned = simulate_cost_parallel(spec, 250, seed=5,
                                         max_workers=2,
                                         mp_start="spawn")
        assert spawned == serial

    def test_sweep_spawn_matches_fork(self):
        spec = _spec()
        fork_ctx = ("fork" if "fork"
                    in multiprocessing.get_all_start_methods() else None)
        rows_fork = sweep_n_parallel(spec, [200], seed=3, max_workers=2,
                                     mp_start=fork_ctx)
        rows_spawn = sweep_n_parallel(spec, [200], seed=3, max_workers=2,
                                      mp_start="spawn")
        assert rows_spawn == rows_fork

    def test_spawn_obs_merge_back_and_heartbeats(self):
        """Counters, span trees, and heartbeats all survive spawn."""
        spec = _spec()
        obs.enable()
        live.enable(interval_s=0.05)
        sink = bus.MemorySink()
        bus.add_sink(sink)
        value = simulate_cost_parallel(spec, 250, seed=5, max_workers=2,
                                       mp_start="spawn")
        snapshot = obs.metrics.snapshot()
        (cell,) = [s for s in obs.spans.pop_finished()
                   if s.name == "cell"]
        live.disable()

        assert value > 0
        # worker counters merged into the parent registry
        assert snapshot["counters"]["harness.instances"] == \
            spec.n_sequences * spec.n_graphs
        assert snapshot["counters"]["orient.runs"] == \
            spec.n_sequences * spec.n_graphs
        # worker span trees reattached under the parent cell span
        sequences = [c for c in cell.children if c.name == "sequence"]
        assert len(sequences) == spec.n_sequences
        worker_pids = {s.attrs["worker_pid"] for s in sequences}
        assert all(pid != cell.attrs.get("pid", -1)
                   for pid in worker_pids)
        # heartbeats were relayed and the watchdog annotated the cell
        beats = sink.of_type("heartbeat")
        assert beats, "no heartbeats under spawn"
        assert {e["worker_pid"] for e in beats} <= worker_pids
        assert cell.attrs["heartbeat_workers"] >= 1
        assert cell.attrs["stalled_workers"] == 0
        assert [err for e in sink.events
                for err in records.check_line(e)] == []

    def test_spawn_mem_knobs_parity_and_events(self, monkeypatch):
        """Memory knobs leave spawn results bit-identical; the
        watchdog events the parent emits under them are schema-valid.
        """
        from repro.obs import memory
        spec = _spec()
        baseline = simulate_cost_parallel(spec, 250, seed=5,
                                          max_workers=2,
                                          mp_start="spawn")
        # spawn workers re-resolve both knobs from the inherited env
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "1")
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1")  # 1 B: breach
        memory.reset()
        monkeypatch.setattr(memory, "_enabled", None)
        sink = bus.MemorySink()
        bus.add_sink(sink)
        bus.enable()
        value = simulate_cost_parallel(spec, 250, seed=5,
                                       max_workers=2,
                                       mp_start="spawn")
        live.ResourceSampler(interval_s=10.0).sample_once()
        memory.disable()
        memory.reset()

        assert value == baseline
        assert memory.is_enabled() is False
        (pressure,) = sink.of_type("mem.pressure")
        assert pressure["budget_bytes"] == 1
        assert pressure["rss_bytes"] > 1
        (breach,) = sink.of_type("mem.breach")
        assert breach["action"] == "warn"
        assert [err for e in sink.events
                for err in records.check_line(e)] == []
