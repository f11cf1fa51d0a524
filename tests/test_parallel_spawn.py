"""Spawn start-method parity for the pool-backed harness.

The default Linux pool forks, so workers inherit the parent's modules
and observability state for free. ``spawn`` (the macOS/Windows
default) re-imports everything in a fresh interpreter -- these tests
pin that results stay bit-identical and that the span/counter
merge-back and the memory knobs survive a spawn context.
"""

import multiprocessing

import pytest

from repro import DescendingDegree, DiscretePareto, obs
from repro.distributions import root_truncation
from repro.experiments.harness import SimulationSpec
from repro.experiments.parallel import (resolve_mp_context,
                                        simulate_cost_parallel,
                                        sweep_n_parallel)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
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

    def test_spawn_obs_merge_back(self):
        """Counters and span trees survive spawn."""
        spec = _spec()
        obs.enable()
        value = simulate_cost_parallel(spec, 250, seed=5, max_workers=2,
                                       mp_start="spawn")
        snapshot = obs.metrics.snapshot()
        (cell,) = [s for s in obs.spans.pop_finished()
                   if s.name == "cell"]

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

    def test_spawn_mem_knobs_parity(self, monkeypatch):
        """Memory knobs leave spawn results bit-identical: the sweep
        polls no budget, and the ledger only counts."""
        from repro.obs import memory
        spec = _spec()
        baseline = simulate_cost_parallel(spec, 250, seed=5,
                                          max_workers=2,
                                          mp_start="spawn")
        # spawn workers re-resolve both knobs from the inherited env
        monkeypatch.setenv(memory.MEM_LEDGER_ENV, "1")
        monkeypatch.setenv(memory.MEM_BUDGET_ENV, "1G")
        memory.reset()
        monkeypatch.setattr(memory, "_enabled", None)
        value = simulate_cost_parallel(spec, 250, seed=5,
                                       max_workers=2,
                                       mp_start="spawn")
        memory.disable()
        memory.reset()

        assert value == baseline
        assert memory.is_enabled() is False
