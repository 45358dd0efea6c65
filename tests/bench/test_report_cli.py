"""Tests for report formatting and the CLI wiring."""

import pytest

from repro.bench.cli import BENCHES, Bench, main
from repro.bench.experiments import AblationResult, FigPoint, FigResult
from repro.bench.metrics import Summary
from repro.bench.report import (
    format_ablation,
    format_latency_figure,
    format_payload,
    format_result,
    format_throughput_figure,
)


def make_summary(kind="raw"):
    return Summary(
        kind=kind,
        requests=100,
        throughput_mean=10.0,
        throughput_std=0.5,
        latency_mean=0.1,
        latency_std=0.01,
        p50=0.1,
        p90=0.2,
        p99=0.3,
        p999=0.4,
    )


def make_fig(figure="fig6"):
    result = FigResult(figure, "A title", notes={"key": "value"})
    result.points.append(
        FigPoint(
            sensors=100,
            servers=1,
            offered_rps=100.0,
            throughput=99.0,
            throughput_std=1.0,
            utilization=0.5,
            insert=make_summary("insert"),
            live=make_summary("live"),
            raw=make_summary("raw"),
        )
    )
    return result


def test_throughput_table_contains_series():
    text = format_throughput_figure(make_fig())
    assert "sensors" in text
    assert "100" in text
    assert "99" in text
    assert "key: value" in text


def test_latency_table_renders_percentiles_in_ms():
    text = format_latency_figure(make_fig("fig8"), "raw")
    assert "p99.9 ms" in text
    assert "400" in text  # 0.4 s -> 400 ms


def test_latency_table_handles_missing_summary():
    fig = make_fig("fig9")
    fig.points[0].live = None
    text = format_latency_figure(fig, "live")
    assert "-" in text


def test_format_ablation_renders_rows():
    ablation = AblationResult(
        "demo", rows=[{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}], notes={"n": 2}
    )
    text = format_ablation(ablation)
    assert "demo" in text
    assert "2.5" in text
    assert "n: 2" in text


def test_format_ablation_empty():
    assert "no rows" in format_ablation(AblationResult("empty"))


def test_format_result_dispatch():
    assert "fig6" in format_result(make_fig("fig6"))
    assert "fig8" in format_result(make_fig("fig8"))
    assert "fig9" in format_result(make_fig("fig9"))
    assert "demo" in format_result(AblationResult("demo", rows=[{"x": 1}]))


def test_format_payload_tabulates_point_series_only():
    payload = {
        "bench": "fig6",
        "mode": "smoke",
        "series": {"seed": [{"sensors": 600, "throughput_rps": 599.5}]},
        "summary": {"speedup": 1.5},
    }
    text = format_payload(payload)
    assert 'fig6 (smoke): {"speedup": 1.5}' in text
    assert "seed series:" in text and "599.5" in text
    payload["series"] = {"fast": {"throughput_rps": 300.0}}  # micro-shaped
    assert "series:" not in format_payload(payload)


def test_cli_runs_one_smoke_ablation(capsys):
    exit_code = main(["granularity", "--smoke"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "granularity" in captured.out
    assert "model_a_actors" in captured.out
    assert "OK: every granularity invariant holds" in captured.out


def test_cli_reports_violations_and_fails(capsys, monkeypatch):
    chatty = Bench(BENCHES["granularity"].run, lambda result: ["model B is too chatty"])
    monkeypatch.setitem(BENCHES, "granularity", chatty)
    assert main(["granularity", "--smoke"]) == 1
    assert "INVARIANT VIOLATED: model B is too chatty" in capsys.readouterr().out


def test_cli_baseline_flags_need_a_gated_bench(capsys):
    with pytest.raises(SystemExit):
        main(["granularity", "--smoke", "--json", "unused.json"])
    assert "take one gated bench" in capsys.readouterr().err


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])
