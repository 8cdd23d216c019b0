"""OpenMetrics export, live endpoints, and streaming campaign folds.

Three contracts pin the export layer:

1. **Exposition validity** - everything ``/metrics`` serves passes the
   pure-python OpenMetrics lint (:func:`repro.obs.export.lint_openmetrics`),
   scraped from a *live* server mid-run and after, not just rendered
   from a summary in-process.
2. **Non-perturbation** - attaching a live endpoint and scraping it
   changes nothing: the instrumented+scraped run stays bit-for-bit
   identical to a bare run (``repro.obs.diff`` finds zero divergences).
3. **Streamed == post-hoc** - the parent's incremental fold of
   queue-shipped task finals is byte-identical (canonical JSON) to
   merging the same campaign's result summaries after the fact, for
   serial and process-pool execution alike.
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ObsError
from repro.fleet import FleetSimulator, homogeneous_rack
from repro.fleet.campaign import (
    CampaignRunner,
    CampaignTask,
    merge_campaign_obs,
)
from repro.obs import (
    CampaignStream,
    Histogram,
    LiveObsServer,
    ObsCollector,
    ObsConfig,
    QueueSink,
    lint_openmetrics,
    quantiles_from_hist,
    render_openmetrics,
)
from repro.obs.diff import diff_fleet_results
from repro.obs.export import escape_label_value, metric_name
from repro.obs.report import main as report_main
from repro.obs.report import merge_traces, read_jsonl


def _rack_sim(obs=None, n_servers=4, duration_s=20.0):
    rack = homogeneous_rack(
        n_servers=n_servers, duration_s=duration_s, seed=1
    )
    return FleetSimulator(
        rack,
        dt_s=0.1,
        record_decimation=10,
        backend="vectorized",
        obs=obs,
    )


def _campaign_tasks(obs=None):
    """Two chunk shapes so ``workers=2`` genuinely uses the pool."""
    return [
        CampaignTask(
            scenario="homogeneous",
            n_servers=n,
            seed=seed,
            duration_s=15.0,
            dt_s=0.1,
            record_decimation=10,
            obs=obs,
        )
        for n in (3, 4)
        for seed in (0, 1)
    ]


def _scrape(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.read().decode()


class TestExportHelpers:
    def test_metric_name_sanitizes(self):
        assert metric_name("server_steps") == "server_steps"
        assert metric_name("per-window cost!") == "per_window_cost_"
        assert metric_name("9lives") == "_9lives"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_quantiles_interpolate_within_bucket(self):
        hist = Histogram()
        for value in (0.5, 1.5, 2.5, 3.5):
            hist.observe(value)
        quantiles = quantiles_from_hist(hist.as_dict())
        assert set(quantiles) == {0.5, 0.95, 0.99}
        # All mass sits in known power-of-two buckets; every estimate
        # must stay within the observed range.
        assert 0.5 <= quantiles[0.5] <= 3.5
        assert quantiles[0.5] <= quantiles[0.95] <= quantiles[0.99] <= 3.5

    def test_quantiles_empty_hist(self):
        assert all(
            value is None
            for value in quantiles_from_hist(Histogram().as_dict()).values()
        )

    def test_quantiles_overflow_bucket_clamps_to_max(self):
        hist = Histogram(bounds=(1.0, math.inf))
        hist.observe(250.0)
        hist.observe(300.0)
        quantiles = quantiles_from_hist(hist.as_dict())
        # Overflow-bucket mass has no upper bound to interpolate toward;
        # the recorded max caps the estimate instead of +inf.
        assert quantiles[0.99] <= 300.0


class TestRenderAndLint:
    def test_rendered_summary_passes_lint(self):
        obs = ObsCollector(ObsConfig())
        obs.count("server_steps", 42)
        obs.gauge("sim_speedup", 11.5)
        obs.phase("plant", 0.0, 0.25)
        obs.observe("step_s", 1e-4)
        text = render_openmetrics(obs.summary())
        assert lint_openmetrics(text) == []
        assert text.endswith("# EOF\n")
        assert 'repro_server_steps_total{run="run"} 42' in text
        assert "repro_step_s_bucket" in text
        assert 'repro_step_s_quantile{run="run",quantile="0.5"}' in text

    def test_incident_series_always_declared(self):
        # CI gates on repro_incidents_total existing; the family must be
        # declared even for a run with zero incidents.
        text = render_openmetrics(ObsCollector(ObsConfig()).summary())
        assert "# TYPE repro_incidents_total counter" in text
        assert "# TYPE repro_incidents_active gauge" in text

    def test_incident_tallies_labelled(self):
        summary = ObsCollector(ObsConfig()).summary()
        summary["incidents"] = [
            {"detector": "stuck_sensor", "severity": "warning",
             "scope": "s0", "onset_s": 1.0, "clear_s": 5.0},
            {"detector": "stuck_sensor", "severity": "warning",
             "scope": "s1", "onset_s": 2.0, "clear_s": None},
            {"detector": "thermal_runaway", "severity": "critical",
             "scope": "rack", "onset_s": 3.0, "clear_s": None},
        ]
        text = render_openmetrics(summary)
        assert lint_openmetrics(text) == []
        assert (
            'repro_incidents_total{run="run",detector="stuck_sensor",'
            'severity="warning"} 2' in text
        )
        assert (
            'repro_incidents_active{run="run",detector="thermal_runaway",'
            'severity="critical"} 1' in text
        )

    def test_extra_labels_everywhere(self):
        obs = ObsCollector(ObsConfig())
        obs.count("server_steps", 7)
        text = render_openmetrics(obs.summary(), labels={"rack": "r0"})
        assert lint_openmetrics(text) == []
        assert 'rack="r0"' in text

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("repro_x_total 1\n# EOF\n", "no preceding TYPE"),
            (
                "# TYPE repro_x_total counter\nrepro_x_total -1\n# EOF\n",
                "non-monotone",
            ),
            (
                "# TYPE repro_x gauge\nrepro_x 1\n",
                "# EOF",
            ),
            (
                "# TYPE repro_x counter\nrepro_x 1\n# EOF\n",
                "_total",
            ),
        ],
    )
    def test_lint_catches_violations(self, bad, fragment):
        errors = lint_openmetrics(bad)
        assert errors, f"lint accepted: {bad!r}"
        assert any(fragment in error for error in errors), errors

    def test_lint_catches_non_cumulative_buckets(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 4.0\n"
            "repro_h_count 5\n"
            "# EOF\n"
        )
        assert any("cumulative" in e for e in lint_openmetrics(bad))


class TestLiveServer:
    def test_live_scrape_during_and_after_run(self):
        sim = _rack_sim(obs=ObsConfig())
        with LiveObsServer(sim) as live:
            status, body = _scrape(live.url + "/metrics")
            assert status == 200
            assert lint_openmetrics(body) == [], lint_openmetrics(body)
            result = sim.run(20.0, label="live")
            status, body = _scrape(live.url + "/metrics")
            assert status == 200
            assert lint_openmetrics(body) == [], lint_openmetrics(body)
            # Counters, gauges, histogram quantiles, incident series.
            assert 'repro_server_steps_total{run="live"} 800' in body
            assert "# TYPE repro_incidents_total counter" in body
            assert "_bucket{" in body
            assert "_quantile{" in body
            status, health = _scrape(live.url + "/healthz")
            assert status == 200
            assert json.loads(health)["status"] == "ok"
            status, incidents = _scrape(live.url + "/incidents")
            assert status == 200
            assert json.loads(incidents) == []
        assert result.extras["obs"]["counters"]["server_steps"] == 800

    def test_scrapes_racing_a_run_lint_clean(self):
        """A scraper thread polls /metrics while sim.run advances the
        collector underneath it; every exposition it gets must lint.
        The 300 s horizon (~0.1 s of wall time) leaves room for scrapes
        in mid-run, not only at its edges."""
        sim = _rack_sim(obs=ObsConfig(), n_servers=16, duration_s=300.0)
        bodies = []
        with LiveObsServer(sim) as live:
            url = live.url + "/metrics"
            stop = threading.Event()

            def scrape() -> None:
                while not stop.is_set():
                    bodies.append(_scrape(url)[1])
                    stop.wait(0.002)

            scraper = threading.Thread(target=scrape, daemon=True)
            scraper.start()
            try:
                sim.run(300.0, label="live")
            finally:
                stop.set()
                scraper.join(timeout=5.0)
            assert not scraper.is_alive()
            # One guaranteed post-run scrape with the final counters.
            bodies.append(_scrape(url)[1])
        for body in bodies:
            assert lint_openmetrics(body) == [], lint_openmetrics(body)
        final = bodies[-1]
        for series in (
            "repro_server_steps_total",
            "repro_incidents_total",
            "_bucket{",
            "_quantile{",
        ):
            assert series in final, f"missing {series!r} in exposition"

    def test_live_server_does_not_perturb(self):
        sim = _rack_sim(obs=ObsConfig())
        with LiveObsServer(sim) as live:
            instrumented = sim.run(20.0)
            _scrape(live.url + "/metrics")
        bare = _rack_sim().run(20.0)
        assert not diff_fleet_results(instrumented, bare)

    def test_unknown_route_404(self):
        sim = _rack_sim(obs=ObsConfig())
        with LiveObsServer(sim) as live:
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(live.url + "/nope")
            assert err.value.code == 404

    def test_healthz_reflects_active_incidents(self):
        obs = ObsCollector(ObsConfig())
        obs.count("server_steps", 1)
        summary = obs.summary()
        summary["incidents"] = [
            {"detector": "thermal_runaway", "severity": "critical",
             "scope": "s0", "onset_s": 1.0, "clear_s": None},
        ]
        with LiveObsServer(lambda: summary) as live:
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(live.url + "/healthz")
            assert err.value.code == 503
            assert json.loads(err.value.read())["status"] == "critical"
            _, incidents = _scrape(live.url + "/incidents")
            assert len(json.loads(incidents)) == 1

    def test_server_stops_cleanly(self):
        sim = _rack_sim(obs=ObsConfig())
        live = LiveObsServer(sim)
        live.start()
        url = live.url
        _scrape(url + "/metrics")
        live.stop()
        assert not live.running
        with pytest.raises(OSError):
            _scrape(url + "/metrics")

    def test_rejects_source_without_summary(self):
        with pytest.raises(ObsError):
            LiveObsServer(object())


class TestQueueSink:
    def test_emit_forwards_records(self):
        import queue

        local: queue.SimpleQueue = queue.SimpleQueue()
        sink = QueueSink(local)
        sink.emit({"type": "metrics", "label": "t"})
        assert local.get()["type"] == "metrics"
        assert sink.dropped == 0

    def test_full_queue_drops_and_counts(self):
        import queue

        bounded: queue.Queue = queue.Queue(maxsize=1)
        sink = QueueSink(bounded)
        sink.emit({"type": "metrics", "n": 1})
        sink.emit({"type": "metrics", "n": 2})
        assert sink.dropped == 1
        assert bounded.get()["n"] == 1


class TestCampaignStream:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_fold_matches_posthoc_merge(self, workers):
        stream = CampaignStream()
        results = CampaignRunner(workers=workers).run(
            _campaign_tasks(obs=ObsConfig(emit_every_s=5.0)), stream=stream
        )
        streamed = json.dumps(stream.merged(), sort_keys=True)
        posthoc = json.dumps(merge_campaign_obs(results), sort_keys=True)
        assert streamed == posthoc
        progress = stream.progress()
        assert progress["tasks_done"] == progress["n_tasks"] == 4
        assert progress["server_steps"] == sum(
            r.extras["obs"]["counters"]["server_steps"] for r in results
        )

    def test_streamed_campaign_does_not_perturb(self):
        stream = CampaignStream()
        streamed = CampaignRunner(workers=2).run(
            _campaign_tasks(obs=ObsConfig(emit_every_s=5.0)), stream=stream
        )
        bare = CampaignRunner(workers=2).run(_campaign_tasks())
        for a, b in zip(streamed, bare):
            assert not diff_fleet_results(a, b)

    def test_serial_equals_parallel_deterministic_fields(self):
        serial_stream = CampaignStream()
        CampaignRunner(workers=1).run(
            _campaign_tasks(obs=ObsConfig()), stream=serial_stream
        )
        pool_stream = CampaignStream()
        CampaignRunner(workers=2).run(
            _campaign_tasks(obs=ObsConfig()), stream=pool_stream
        )
        serial, pool = serial_stream.merged(), pool_stream.merged()
        # Wall-clock fields are inherently run-specific; every
        # deterministic field of the fold must agree bit-for-bit.
        assert serial["counters"] == pool["counters"]
        assert serial["runs"] == pool["runs"]
        assert serial["incidents"] == pool["incidents"]
        assert {
            name: entry["count"] for name, entry in serial["phases"].items()
        } == {
            name: entry["count"] for name, entry in pool["phases"].items()
        }
        assert {
            name: hist["count"] for name, hist in serial["hists"].items()
        } == {
            name: hist["count"] for name, hist in pool["hists"].items()
        }

    def test_live_summary_served_mid_campaign(self):
        stream = CampaignStream()
        with LiveObsServer(stream) as live:
            CampaignRunner(workers=1).run(
                _campaign_tasks(obs=ObsConfig()), stream=stream
            )
            status, body = _scrape(live.url + "/metrics")
        assert status == 200
        assert lint_openmetrics(body) == []
        assert "repro_server_steps_total" in body

    def test_begin_required_before_records(self):
        stream = CampaignStream()
        with pytest.raises(ObsError):
            stream.add_record({"type": "task_final", "index": 0})


class TestMergedTrace:
    def _trace_files(self, tmp_path, workers):
        obs = ObsConfig(
            emit_every_s=5.0, trace=True, trace_export=str(tmp_path)
        )
        stream = CampaignStream(obs=ObsCollector(ObsConfig(trace=True)))
        CampaignRunner(workers=workers).run(
            _campaign_tasks(obs=obs), stream=stream
        )
        parent = tmp_path / "parent.jsonl"
        stream.obs.export_trace_jsonl(parent)
        return sorted(str(p) for p in tmp_path.glob("*.jsonl"))

    def test_worker_traces_carry_pid_and_label(self, tmp_path):
        files = self._trace_files(tmp_path, workers=1)
        assert len(files) == 5  # 4 tasks + the parent
        for path in files:
            for record in read_jsonl(path):
                assert isinstance(record["pid"], int)
                assert "label" in record

    def test_merge_traces_lanes_and_origin(self, tmp_path):
        files = self._trace_files(tmp_path, workers=1)
        doc = merge_traces([(f, read_jsonl(f)) for f in files])
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] in ("X", "i")]
        metas = [e for e in events if e["ph"] == "M"]
        assert spans and metas
        assert min(e["ts"] for e in spans) == 0.0
        assert all(e["name"] == "process_name" for e in metas)
        # One metadata lane per pid present in the span events.
        assert {e["pid"] for e in metas} == {e["pid"] for e in spans}
        # The campaign macro span and the per-task completion marks.
        names = {e["name"] for e in events}
        assert "campaign" in names
        assert any(name.startswith("task:") for name in names)
        assert any(e["ph"] == "i" for e in events)

    def test_merged_trace_cli(self, tmp_path):
        files = self._trace_files(tmp_path, workers=1)
        out = tmp_path / "merged.json"
        assert (
            report_main(["--merged-trace", *files, "--out", str(out)]) == 0
        )
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["metadata"]["sources"] == files

    def test_merged_trace_rejects_metrics_files(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps({"type": "metrics", "label": "x"}) + "\n")
        assert report_main(["--merged-trace", str(path)]) == 1


class TestReportFormats:
    def _metrics_file(self, tmp_path):
        sim = _rack_sim(obs=ObsConfig())
        result = sim.run(20.0, label="fmt")
        path = tmp_path / "final.jsonl"
        record = dict(result.extras["obs"])
        record["label"] = "fmt"
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_format_json_runs(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert report_main([str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["run"] == "fmt"
        assert rows[0]["server_steps"] == 800

    def test_hists_table_has_quantile_columns(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert report_main([str(path), "--hists"]) == 0
        out = capsys.readouterr().out
        for column in ("p50", "p95", "p99", "mean", "count"):
            assert column in out
        assert "plant_seconds" in out

    def test_hists_json_quantiles_match_export(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert report_main([str(path), "--hists", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["hist"]: row for row in rows}
        summary = read_jsonl(path)[0]
        for name, hist in summary["hists"].items():
            expected = quantiles_from_hist(hist)
            assert by_name[name]["p50"] == expected[0.5]
            assert by_name[name]["p99"] == expected[0.99]
