"""Trace reports: span forest assembly, rollups, rendering, JSON output."""

import json

import pytest

from repro import observe
from repro.observe import load_report
from repro.observe.trace import COLLAPSE_THRESHOLD, build_report


def make_ledger(tmp_path, body):
    """Record ``body()`` under a fresh ledger and return its path."""
    path = observe.configure(dir=tmp_path)
    try:
        body()
    finally:
        observe.shutdown()
    return path


class TestReportStructure:
    def test_span_tree_and_rollups(self, tmp_path):
        def body():
            with observe.span("grid", jobs=2):
                with observe.span("cell", rep=0):
                    observe.incr("zoo.cache_miss")
                with observe.span("cell", rep=1):
                    observe.incr("zoo.cache_hit")
            observe.gauge("g", 7.0)
            observe.hist("h", 1.0)
            observe.hist("h", 3.0)

        path = make_ledger(tmp_path, body)
        report = load_report(path)
        assert report.n_spans == 3
        [root] = report.roots
        assert root.name == "grid"
        assert [c.name for c in root.children] == ["cell", "cell"]
        assert report.counters == {"zoo.cache_miss": 1, "zoo.cache_hit": 1}
        assert report.gauges == {"g": 7.0}
        assert report.hist_summary("h") == {
            "count": 2,
            "mean": 2.0,
            "min": 1.0,
            "max": 3.0,
            "p50": 2.0,
            "p99": pytest.approx(2.98),
        }
        assert report.cache_hit_rate == pytest.approx(0.5)

    def test_cache_hit_rate_none_without_zoo_counters(self, tmp_path):
        path = make_ledger(tmp_path, lambda: observe.incr("other"))
        assert load_report(path).cache_hit_rate is None

    def test_orphan_parent_becomes_root(self, tmp_path):
        events = [
            {"type": "span", "name": "lost", "id": "1.1", "parent": "9.9",
             "start": 1.0, "seconds": 0.1, "pid": 1},
        ]
        report = build_report(tmp_path / "x.jsonl", events)
        assert [r.name for r in report.roots] == ["lost"]


class TestTrainingRollup:
    def test_counts_batches_compiles_rejections_and_tiebreaks(self, tmp_path):
        events = [
            {"type": "span", "name": "train", "id": "1.1", "parent": None,
             "start": 0.0, "seconds": 2.0, "pid": 1},
            {"type": "span", "name": "trainc.compile", "id": "1.2",
             "parent": "1.1", "start": 0.1, "seconds": 0.3, "pid": 1},
            {"type": "span", "name": "retrain", "id": "1.3", "parent": None,
             "start": 2.0, "seconds": 1.0, "pid": 1},
            {"type": "span", "name": "trainc.compile", "id": "1.4",
             "parent": "1.3", "start": 2.1, "seconds": 0.4, "pid": 1},
            {"type": "span", "name": "trainc.compile", "id": "1.5",
             "parent": "1.3", "start": 2.6, "seconds": 0.2, "pid": 1},
            {"type": "event", "name": "trainc.tiebreak", "pid": 1},
            {"type": "event", "name": "trainc.fallback", "pid": 1},
            {"type": "counter", "name": "trainc.batches", "value": 60, "pid": 1},
            {"type": "counter", "name": "trainc.batches", "value": 8, "pid": 1},
            {"type": "counter", "name": "trainc.fallback_batches", "value": 4,
             "pid": 1},
            {"type": "counter", "name": "trainc.mask_invalidations",
             "value": 1, "pid": 1},
        ]
        report = build_report(tmp_path / "x.jsonl", events)
        assert report.training == {
            "compiled_batches": 68,
            "tape_batches": 4,
            "plan_compiles": 3,
            "rejections": 1,
            "tiebreaks": 1,
            "mask_invalidations": 1,
        }
        assert report.to_dict()["training"] == report.training
        assert (
            "training: 68 compiled batch(es), 4 on the tape, 3 plan compile(s), "
            "1 rejected, 1 float64 tie-break(s), 1 mask invalidation(s)"
        ) in report.render()

    def test_none_when_nothing_trained(self, tmp_path):
        path = make_ledger(tmp_path, lambda: observe.incr("zoo.cache_hit"))
        report = load_report(path)
        assert report.training is None
        assert "training" not in report.to_dict()
        assert "training:" not in report.render()


class TestInferenceRollup:
    def test_counts_batches_compiles_binds_and_rejections(self, tmp_path):
        events = [
            {"type": "span", "name": "eval_cell", "id": "1.1", "parent": None,
             "start": 0.0, "seconds": 1.0, "pid": 1},
            {"type": "span", "name": "infer.compile", "id": "1.2",
             "parent": "1.1", "start": 0.1, "seconds": 0.3, "pid": 1},
            {"type": "span", "name": "eval_cell", "id": "1.3", "parent": None,
             "start": 1.0, "seconds": 0.5, "pid": 1},
            {"type": "span", "name": "infer.compile", "id": "1.4",
             "parent": "1.3", "start": 1.1, "seconds": 0.3, "pid": 1},
            {"type": "counter", "name": "infer.plan_shared", "value": 1, "pid": 1},
            {"type": "counter", "name": "infer.plan_shared", "value": 1, "pid": 1},
            {"type": "event", "name": "infer.share_rejected", "pid": 1},
            {"type": "event", "name": "infer.fallback", "pid": 1},
            {"type": "counter", "name": "infer.batches", "value": 12, "pid": 1},
            {"type": "counter", "name": "infer.fallback_batches", "value": 2,
             "pid": 1},
            {"type": "counter", "name": "infer.refreshes", "value": 5, "pid": 1},
        ]
        report = build_report(tmp_path / "x.jsonl", events)
        assert report.inference == {
            "compiled_batches": 12,
            "fallback_batches": 2,
            "full_compiles": 2,
            "shared_binds": 2,
            "share_rejections": 1,
            "refreshes": 5,
            "fallbacks": 1,
        }
        assert report.to_dict()["inference"] == report.inference
        assert (
            "inference: 12 compiled batch(es), 2 on the module, "
            "2 full compile(s), 2 shared bind(s), 1 share rejection(s), "
            "5 refresh(es), 1 fallback(s)"
        ) in report.render()

    def test_none_when_nothing_evaluated(self, tmp_path):
        path = make_ledger(tmp_path, lambda: observe.incr("zoo.cache_hit"))
        report = load_report(path)
        assert report.inference is None
        assert "inference" not in report.to_dict()
        assert "inference:" not in report.render()


class TestRender:
    def test_render_contains_tree_and_metrics(self, tmp_path):
        def body():
            with observe.span("train", epochs=2):
                observe.incr("steps", 5)
                observe.hist("lr", 0.1)

        report = load_report(make_ledger(tmp_path, body))
        text = report.render()
        assert "- train" in text
        assert "epochs=2" in text
        assert "steps = 5" in text
        assert "lr: n=1" in text

    def test_error_span_flagged(self, tmp_path):
        def body():
            try:
                with observe.span("bad"):
                    raise ValueError("x")
            except ValueError:
                pass

        text = load_report(make_ledger(tmp_path, body)).render()
        assert "ERROR:ValueError" in text

    def test_large_sibling_groups_collapse(self, tmp_path):
        def body():
            with observe.span("grid"):
                for i in range(COLLAPSE_THRESHOLD + 3):
                    with observe.span("cell", i=i):
                        pass

        text = load_report(make_ledger(tmp_path, body)).render()
        assert f"cell ×{COLLAPSE_THRESHOLD + 3}" in text
        assert "total" in text and "mean" in text


class TestJson:
    def test_round_trip(self, tmp_path):
        def body():
            with observe.span("root", k=1):
                observe.incr("c", 2)

        report = load_report(make_ledger(tmp_path, body))
        parsed = json.loads(report.to_json())
        assert parsed["spans"] == 1
        assert parsed["tree"][0]["name"] == "root"
        assert parsed["counters"] == {"c": 2}


class TestLoadReport:
    def test_directory_picks_newest_run(self, tmp_path):
        old = tmp_path / "run-a.jsonl"
        old.write_text('{"type":"event","name":"old","ts":1}\n')
        new = tmp_path / "run-b.jsonl"
        new.write_text('{"type":"event","name":"new","ts":2}\n')
        import os

        os.utime(old, (1, 1))
        report = load_report(tmp_path)
        assert report.path == new

    def test_directory_ignores_worker_streams(self, tmp_path):
        run = tmp_path / "run-a.jsonl"
        run.write_text('{"type":"event","name":"main","ts":1}\n')
        worker = tmp_path / "run-a.worker-5.jsonl"
        worker.write_text('{"type":"event","name":"w","ts":2}\n')
        import os

        os.utime(run, (1, 1))
        assert load_report(tmp_path).path == run

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path / "absent.jsonl")
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path)  # dir with no ledgers
