"""The C kernel's build: a named fallback reason and no leaked build directory."""

import subprocess

import pytest

from repro.fleet import _native


@pytest.fixture
def build_dirs(monkeypatch, tmp_path):
    """Route the kernel's build directories under ``tmp_path``; list them."""
    made = []

    def mkdtemp(prefix=""):
        path = tmp_path / f"{prefix}{len(made)}"
        path.mkdir()
        made.append(path)
        return str(path)

    monkeypatch.setattr(_native.tempfile, "mkdtemp", mkdtemp)
    return made


def test_no_compiler(monkeypatch, build_dirs):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    assert _native._build() == (None, "no C compiler")
    assert build_dirs == []


def test_compile_failure_names_the_exit_code(monkeypatch, build_dirs):
    monkeypatch.setattr(_native, "_compiler", lambda: "cc")
    monkeypatch.setattr(
        _native.subprocess, "run",
        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 2, b"", b"error"),
    )
    assert _native._build() == (None, "compile failed (rc=2)")
    assert len(build_dirs) == 1 and not build_dirs[0].exists()


def test_compiler_that_cannot_start(monkeypatch, build_dirs):
    def run(cmd, **kw):
        raise subprocess.TimeoutExpired(cmd, 120)

    monkeypatch.setattr(_native, "_compiler", lambda: "cc")
    monkeypatch.setattr(_native.subprocess, "run", run)
    assert _native._build() == (None, "compile failed (TimeoutExpired)")
    assert not build_dirs[0].exists()


def test_load_failure(monkeypatch, build_dirs):
    """A compile that exits 0 but leaves no loadable object fails to load."""
    monkeypatch.setattr(_native, "_compiler", lambda: "cc")
    monkeypatch.setattr(
        _native.subprocess, "run",
        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, b"", b""),
    )
    assert _native._build() == (None, "load failed")
    assert not build_dirs[0].exists()


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
def test_successful_build_removes_its_directory(build_dirs):
    handle, reason = _native._build()
    assert handle is not None and reason is None
    assert not build_dirs[0].exists()
    assert handle.arrival_run is not None  # still mapped after the removal


def test_load_records_the_reason(monkeypatch, build_dirs):
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "fallback_reason", None)
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    monkeypatch.delenv("REPRO_COLUMNAR_NATIVE", raising=False)
    assert _native.load() is None
    assert _native.fallback_reason == "no C compiler"

    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setenv("REPRO_COLUMNAR_NATIVE", "0")
    assert _native.load() is None
    assert _native.fallback_reason == "disabled by REPRO_COLUMNAR_NATIVE=0"
