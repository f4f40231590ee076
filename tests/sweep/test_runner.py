"""Runner behaviour: index keying, chunk invariance, progress stream."""

import pytest

from repro.scenario import diff_arrays, result_arrays
from repro.sweep import (
    CELL_DONE,
    SWEEP_DONE,
    SWEEP_START,
    SweepSpec,
    default_chunk_size,
    leaked_segments,
    run_sweep,
)


@pytest.fixture(scope="module")
def two_cell_spec(tiny_base):
    return SweepSpec.grid(tiny_base, {"baseline_days": [3, 7]})


@pytest.fixture(scope="module")
def serial(two_cell_spec):
    return run_sweep(two_cell_spec, jobs=1)


class TestRunner:
    def test_results_in_cell_order(self, two_cell_spec, serial):
        assert len(serial.results) == two_cell_spec.n_cells
        for cell, result in zip(serial.cells, serial.results):
            assert result.config == cell.config

    def test_chunk_size_invariance(self, two_cell_spec, serial):
        rechunked = run_sweep(two_cell_spec, jobs=1, chunk_size=1)
        for a, b in zip(serial.results, rechunked.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_rerun_is_identical(self, two_cell_spec, serial):
        again = run_sweep(two_cell_spec, jobs=1)
        for a, b in zip(serial.results, again.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_progress_stream(self, two_cell_spec):
        events = []
        run_sweep(two_cell_spec, jobs=1, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds[0] == SWEEP_START
        assert kinds[-1] == SWEEP_DONE
        cell_events = [e for e in events if e.kind == CELL_DONE]
        assert len(cell_events) == two_cell_spec.n_cells
        assert [e.completed for e in cell_events] == [1, 2]
        assert sorted(e.index for e in cell_events) == [0, 1]
        assert all(e.total == two_cell_spec.n_cells for e in events)

    def test_summaries_one_per_point(self, two_cell_spec, serial):
        assert len(serial.summaries) == two_cell_spec.n_points
        for point_index, summary in enumerate(serial.summaries):
            assert summary.point_index == point_index
            assert summary.metrics["availability"].n == 1

    def test_invalid_jobs(self, two_cell_spec):
        with pytest.raises(ValueError):
            run_sweep(two_cell_spec, jobs=0)

    def test_invalid_chunk_size(self, two_cell_spec):
        with pytest.raises(ValueError):
            run_sweep(two_cell_spec, jobs=1, chunk_size=0)


class TestDefaultChunkSize:
    def test_serial_prefers_long_chunks(self):
        assert default_chunk_size(16, 1) == 4

    def test_never_below_one(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestEdgeGrids:
    """Degenerate grids must be bit-identical serial vs pool."""

    def _check(self, spec, **pool_kwargs):
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, **pool_kwargs)
        assert len(serial.results) == len(pooled.results) == spec.n_cells
        for a, b in zip(serial.results, pooled.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_no_axes_is_one_cell(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {})
        assert spec.n_cells == 1
        self._check(spec, jobs=2)

    def test_single_cell_grid(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {"baseline_days": [3]})
        assert spec.n_cells == 1
        self._check(spec, jobs=2)

    def test_chunk_size_larger_than_cell_count(self, two_cell_spec):
        self._check(two_cell_spec, jobs=2, chunk_size=64)

    def test_more_jobs_than_cells(self, two_cell_spec):
        self._check(two_cell_spec, jobs=4, chunk_size=1)


class TestPoolTelemetry:
    def test_worker_rss_telemetry_populated(self, two_cell_spec):
        result = run_sweep(two_cell_spec, jobs=2)
        assert result.worker_rss_kb
        assert all(rss > 0 for rss in result.worker_rss_kb.values())

    def test_shm_argument_is_inert(self, two_cell_spec, serial):
        # The benchmark still passes shm= and reads shm_segments and
        # leaked_segments(); they must keep working and mean nothing.
        for shm in (True, False):
            result = run_sweep(two_cell_spec, jobs=2, shm=shm)
            assert result.shm_segments == 0
            for a, b in zip(serial.results, result.results):
                assert not diff_arrays(result_arrays(a), result_arrays(b))
        assert leaked_segments() == []


class TestStatefulControllers:
    def test_controller_state_never_leaks_between_runs(self, tiny_base):
        # GreedyShedController mutates internal state during a run; the
        # runner pickle-roundtrips every cell, so two sweeps over the
        # same spec -- and the spec's own base config -- stay pristine.
        import dataclasses

        from repro.defense.controllers import GreedyShedController

        controller = GreedyShedController()
        base = dataclasses.replace(
            tiny_base, controllers={"K": controller}
        )
        spec = SweepSpec.grid(base, {}, replicates=2)
        first = run_sweep(spec, jobs=1)
        assert controller._quiet == {}  # caller's instance untouched
        second = run_sweep(spec, jobs=1)
        for a, b in zip(first.results, second.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))
