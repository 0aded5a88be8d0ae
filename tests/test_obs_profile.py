"""Phase-profiler tests: coverage, tiling, rendering, CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    get_tracer,
    render_phases,
    reset_metrics,
    snapshot,
    summarize_path,
)
from repro.obs.profile import (
    ENGINE_PHASES,
    PHASE_PREFIX,
    PHASES,
    disable_profiling,
    enable_profiling,
    phase,
    phase_totals,
    profiling_enabled,
)
from repro.sim.sweep import sweep_tiers
from repro.workloads.registry import make_workload


@pytest.fixture(autouse=True)
def _clean_telemetry():
    disable_profiling()
    reset_metrics()
    get_tracer().reset()
    yield
    disable_profiling()
    get_tracer().reset()
    reset_metrics()


@pytest.fixture
def trace():
    return make_workload("compress", length=4000, seed=0)


class TestPhasePrimitive:
    def test_disabled_phase_is_a_noop(self):
        with phase("fsm_scan"):
            pass
        assert phase_totals() == {}
        assert snapshot()["histograms"]["sim.phase.fsm_scan"]["count"] == 0

    def test_enabled_phase_accumulates(self):
        enable_profiling()
        assert profiling_enabled()
        with phase("fsm_scan"):
            pass
        with phase("fsm_scan"):
            pass
        totals = phase_totals()
        assert totals["fsm_scan"] >= 0.0
        assert (
            snapshot()["histograms"]["sim.phase.fsm_scan"]["count"] == 2
        )

    def test_disable_clears_totals(self):
        enable_profiling()
        with phase("fsm_scan"):
            pass
        disable_profiling()
        assert phase_totals() == {}
        assert not profiling_enabled()

    def test_nested_phase_reports_self_time(self):
        """An enclosing phase reports its own time only: the nested
        phase's time is subtracted, so the totals add up to the outer
        block's wall time instead of counting the inner part twice."""
        import time

        enable_profiling()
        started = time.perf_counter()
        with phase("counter_update"):
            time.sleep(0.02)
            with phase("fsm_scan"):
                time.sleep(0.05)
            time.sleep(0.02)
        outer_wall = time.perf_counter() - started
        totals = phase_totals()
        assert totals["fsm_scan"] >= 0.05
        assert 0.04 <= totals["counter_update"] < totals["fsm_scan"]
        assert totals["counter_update"] + totals["fsm_scan"] <= outer_wall
        assert totals["counter_update"] + totals["fsm_scan"] == (
            pytest.approx(outer_wall, rel=0.10)
        )

    def test_sibling_threads_do_not_nest(self):
        """The nesting stack is per thread: a phase open in another
        thread is not the parent of this thread's phase."""
        import threading
        import time

        enable_profiling()
        entered = threading.Event()
        release = threading.Event()

        def other():
            with phase("index_stream"):
                entered.set()
                release.wait(5.0)

        worker = threading.Thread(target=other)
        worker.start()
        entered.wait(5.0)
        with phase("fsm_scan"):
            time.sleep(0.03)
        release.set()
        worker.join()
        totals = phase_totals()
        assert totals["index_stream"] >= 0.03
        assert totals["fsm_scan"] >= 0.03

    def test_all_phases_predeclared(self):
        histograms = snapshot()["histograms"]
        for name in PHASES:
            assert PHASE_PREFIX + name in histograms


class TestEngineTiling:
    def test_phase_sum_matches_wall_on_micro_sweep(self, trace):
        """Figure-2-style micro sweep: engine phases tile sim.wall_s."""
        enable_profiling()
        sweep_tiers("gas", trace, size_bits=[4, 6])
        data = snapshot()
        wall = data["counters"]["sim.wall_s"]
        phase_sum = sum(
            data["histograms"][PHASE_PREFIX + name]["total"]
            for name in ENGINE_PHASES
        )
        assert wall > 0
        assert phase_sum == pytest.approx(wall, rel=0.10)
        # Every engine call contributed exactly one residual sample.
        assert (
            data["histograms"]["sim.phase.engine_other"]["count"]
            == data["counters"]["engine.vectorized.runs"]
            + data["counters"]["engine.reference.runs"]
        )

    def test_profiling_off_leaves_histograms_empty(self, trace):
        sweep_tiers("gas", trace, size_bits=[4])
        histograms = snapshot()["histograms"]
        for name in PHASES:
            assert histograms[PHASE_PREFIX + name]["count"] == 0

    def test_results_identical_with_and_without_profiling(self, trace):
        plain = sweep_tiers("gas", trace, size_bits=[4])
        enable_profiling()
        profiled = sweep_tiers("gas", trace, size_bits=[4])
        assert plain.tiers == profiled.tiers


class TestPhaseRendering:
    def test_render_phases_empty_message(self):
        text = render_phases()
        assert "--profile" in text

    def test_render_phases_lists_phases(self, trace):
        enable_profiling()
        sweep_tiers("gas", trace, size_bits=[4])
        text = render_phases()
        assert "phase profile" in text
        assert "fsm_scan" in text and "engine_other" in text

    def test_cli_profile_and_summarize_phases(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = main(
            ["run", "fig2", "--length", "2000", "--benchmark", "compress",
             "--sizes", "4", "--profile", "--metrics-out", str(metrics)]
        )
        assert code == 0
        report = json.loads(metrics.read_text())
        assert report["histograms"]["sim.phase.fsm_scan"]["count"] > 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(metrics), "--phases"]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out and "fsm_scan" in out

    def test_summarize_phases_from_saved_report(self, tmp_path, trace):
        enable_profiling()
        sweep_tiers("gas", trace, size_bits=[4])
        from repro.obs import write_metrics

        path = tmp_path / "m.json"
        write_metrics(str(path))
        text = summarize_path(str(path), phases=True)
        assert "phase profile" in text

    def test_summarize_phases_rejects_span_trace(self, tmp_path):
        from repro.errors import ReproError

        spans = tmp_path / "t.jsonl"
        tracer = get_tracer()
        tracer.configure_sink(str(spans))
        with tracer.span("x"):
            pass
        tracer.close_sink()
        with pytest.raises(ReproError):
            summarize_path(str(spans), phases=True)
