"""Smoke profile of the repo benchmark.

Runs every workload at toy size in both modes and checks that each result
reports exactly the metrics and units ``BENCHMARK.json`` declares, with
correct outputs.
"""

import pathlib

HERE = pathlib.Path(__file__).resolve().parent


def test_every_workload_reports_the_declared_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    assert run.smoke() == []
