"""The repo benchmark: four workloads timed from outside the program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-executed --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed heldout      # every workload, a table
    python3 perfbench/run.py --pin                              # re-pin output digests
    python3 perfbench/run.py --smoke                            # toy sizes, names and units

``--trace 0`` times iterations after an untimed set-up and reports the
end-to-end metrics; ``--trace 1`` is the separate traced run that reports
the per-layer metrics and writes ``.bench_out/<workload>.trace.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance.  See ``perfbench/README.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
PINNED = HERE / "pinned.json"
SEEDS = {"default": 0, "heldout": 1017}
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
WORKLOAD_NAMES = ("serve-executed", "flash-native", "drill-columnar", "drill-eventloop")
E2E_UNITS = {"requests_per_s": "req/s", "peak_rss_mb": "MB", "setup_s": "s"}
# The host is a VM on a shared machine.  Its speed swings by up to ~1.6x,
# from one second to the next and for tens of seconds at a stretch, while
# CPU time still tracks wall (steal is 0), so medians of raw walls spread
# past the bounds from run to run.  Every timed span is therefore
# bracketed by a fixed calibration kernel that runs none of the program's
# code, of the kind of work the workload's hot code does, and scaled by
# CALIBRATION_S over the kernel's mean time around the span.  The
# end-to-end times read as on a host where the kernel takes CALIBRATION_S;
# the raw walls are kept in the provenance.
CALIBRATION_S = 0.02


def pin_threads() -> None:
    """One process, at most ``nproc`` BLAS threads (set before numpy loads)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def seed_value(text: str) -> int:
    return SEEDS[text] if text in SEEDS else int(text)


def pinned_key(name: str) -> str:
    return "drill" if name.startswith("drill-") else name


def load_pinned(name: str, seed: int):
    if not PINNED.exists():
        return None
    return json.loads(PINNED.read_text())["digests"].get(pinned_key(name), {}).get(str(seed))


def source_digest() -> str:
    """sha256 over the program's source files: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def calibration_kernel(hot_code: str):
    """A function timing one run of the calibration kernel for ``hot_code``.

    ``"interpreter"``: dict updates in a Python loop.  ``"numpy"``: six
    rounds of a sort, a scan and an element-wise pass over 2 MiB, into a
    preallocated buffer: a fresh buffer's time would depend on the
    allocator's state, which the program's large arrays change.  It calls
    no BLAS, whose thread wake-ups make a short product's time erratic.
    Either takes about CALIBRATION_S on a quiet host.
    """
    if hot_code == "interpreter":

        def kernel():
            counts = {}
            for i in range(150_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i

    else:
        import numpy as np

        array = np.random.default_rng(0).random(1 << 18)
        buffer = np.empty_like(array)

        def kernel():
            for _ in range(6):
                buffer[:] = array
                buffer.sort()
                np.cumsum(array, out=buffer)
                np.multiply(array, 3.0, out=buffer)
                buffer.sum()

    def seconds() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    return seconds


def host_scale(before: float, after: float) -> float:
    """Factor taking a span timed between two kernel runs to the reference host."""
    return 2 * CALIBRATION_S / (before + after)


def probe_setup(name: str, seed: int, toy: bool) -> tuple:
    """Seconds from spawning a fresh benchmark process until it is ready to time.

    Returns the raw seconds and the seconds scaled to the reference host.
    The probe process runs the interpreter kernel itself, once before its
    set-up and once after it prints ``ready``: it may run on another CPU
    than this process, whose speed swings independently.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--toy"] if toy else []), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        kernels = proc.stdout.read().split()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0 or len(kernels) != 2:
        raise RuntimeError(f"setup probe for {name} failed (exit {proc.returncode})")
    before, after = map(float, kernels)
    elapsed -= before  # the first kernel ran inside the timed span
    return elapsed, elapsed * host_scale(before, after)


def reference_iteration(wl, seed: int, check_pinned: bool):
    """The first, untimed iteration; its digests are the expected ones.

    Returns its raw output too, for :meth:`cross_check` to run after the
    timed iterations, so the independent path's memory never reaches the
    measured peak RSS.
    """
    import layers

    with layers.record_paths() as paths:
        raw = wl.iterate()
    facts = wl.facts(raw)
    if wl.requests is None:
        wl.requests = facts["submitted"]
    errors = wl.guards(facts, paths)
    expected = wl.digests(raw)
    pinned = load_pinned(wl.name, seed) if check_pinned else None
    if pinned is not None and pinned != expected:
        differing = sorted(k for k in expected if pinned.get(k) != expected[k])
        errors.append(f"{wl.name}: {', '.join(differing)} differ from the digests pinned for seed {seed}")
    return raw, expected, facts, paths, errors


class Tally:
    """Attempted and failed iterations; an iteration fails by raising or by its digests."""

    def __init__(self, wl, expected):
        self.wl = wl
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, body):
        """Run ``body()`` (one iteration, returning ``(raw, wall_s)``); the wall, or None."""
        self.attempted += 1
        gc.collect()
        try:
            raw, wall = body()
            digests = self.wl.digests(raw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if digests != self.expected:
            differing = sorted(k for k in digests if digests[k] != self.expected.get(k))
            print(f"{self.wl.name}: iteration {self.attempted} output differs: {differing}", file=sys.stderr)
            self.failed += 1
            return None
        return wall


def timed(wl):
    start = time.perf_counter()
    raw = wl.iterate()
    return raw, time.perf_counter() - start


def end_to_end(wl, tally: Tally, seconds: float, setup_s: float, calibration):
    walls, scales = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        before = calibration()
        wall = tally.run(lambda: timed(wl))
        after = calibration()
        if wall is not None:
            walls.append(wall)
            scales.append(host_scale(before, after))
        elif tally.failed > 3:
            break
    metrics = {
        "requests_per_s": (
            statistics.median(wl.requests / (wall * scale) for wall, scale in zip(walls, scales))
            if walls else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return metrics, {
        "iterations": len(walls),
        "walls_s": walls,
        "host_scales": scales,
        "raw_requests_per_s": statistics.median(wl.requests / wall for wall in walls) if walls else 0.0,
    }


def per_layer(wl, tally: Tally, seconds: float, facts):
    """Alternate untraced and traced iterations; medians of the traced numbers."""
    import layers

    plain, traced, samples = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        wall = tally.run(lambda: timed(wl))
        if wall is not None:
            plain.append(wall)
        tracer = layers.Tracer()

        def traced_iteration():
            with tracer.patched():
                raw = wl.iterate()
            return raw, layers.self_times(tracer.profiler.entries)[1]["root"]

        wall = tally.run(traced_iteration)
        if wall is not None:
            traced.append(wall)
            samples.append(layers.layer_metrics(tracer))
        elif tally.failed > 3:
            break
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]} if samples else {}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
    )
    metrics.update({
        "serve.cache_hit_rate": facts.get("cache_hit_rate", 0.0),
        "serve.padding_efficiency": facts.get("padding_efficiency", 0.0),
        "serve.mean_batch_size": facts.get("mean_batch_size", 0.0),
        "obs.stream_bytes": facts.get("stream_bytes", 0),
        "sim.submitted": facts["submitted"],
        "sim.shed_share": facts.get("shed_share", 0.0),
        **{f"sim.{key}": facts.get(key, 0) for key in
           ("retries", "timeouts", "breaker_opens", "scale_events", "alert_transitions")},
    })
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{wl.name}.trace.json").write_text(layers.chrome_trace(tracer))
    return metrics, {"traced_iterations": len(traced), "untraced_iterations": len(plain)}


def collect(name: str, seed: int, seconds: float, trace: bool, toy: bool = False):
    """One benchmark run in this process: ``(result, provenance)``."""
    import layers
    import numpy as np
    import workloads

    units = {**E2E_UNITS, **layers.UNITS}
    wl = workloads.make(name, seed, toy)
    calibration = calibration_kernel(wl.hot_code)
    probes = [probe_setup(name, seed, toy) for _ in range(1 if toy else 5)] if not trace else []
    wl.setup()
    raw, expected, facts, paths, errors = reference_iteration(wl, seed, check_pinned=not toy)
    tally = Tally(wl, expected)
    if trace:
        metrics, run_info = per_layer(wl, tally, seconds, facts)
    else:
        metrics, run_info = end_to_end(
            wl, tally, seconds, statistics.median(scaled for _, scaled in probes), calibration
        )
    errors += wl.cross_check(raw)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors and tally.failed == 0,
        "attempted": tally.attempted + 1,
        "failed": tally.failed + (1 if errors else 0),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    provenance = {
        "workload": name,
        "seed": seed,
        "commit": commit(),
        "source_sha256": source_digest(),
        "sizes": wl.sizes(),
        "engine": wl.engine,
        "window_paths": paths,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "setup_probes_s": [raw for raw, _ in probes],
        "calibration": {"kernel": wl.hot_code, "reference_s": CALIBRATION_S},
        "facts": facts,
        **run_info,
    }
    return result, provenance


def smoke() -> list:
    """Every workload at toy size in both modes; the mismatched metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = collect(name, SEEDS["default"], 0.0, trace, toy=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: outputs not correct")
    return problems


def pin() -> dict:
    """Digests of both named seeds, each cross-checked against an independent path."""
    import workloads

    digests = {}
    for name in ("serve-executed", "flash-native", "drill-columnar"):
        for seed in SEEDS.values():
            wl = workloads.make(name, seed)
            wl.reference_stride = 1
            wl.setup()
            raw, expected, _, _, errors = reference_iteration(wl, seed, check_pinned=False)
            errors += wl.cross_check(raw)
            if errors:
                raise RuntimeError(f"refusing to pin {name} seed {seed}: {errors}")
            digests.setdefault(pinned_key(name), {})[str(seed)] = expected
    return {"seeds": SEEDS, "digests": digests}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<30} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=seed_value, default=SEEDS["default"],
                        help="an integer, or 'default' / 'heldout'")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes (the smoke profile)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help="re-pin the output digests")
    parser.add_argument("--smoke", action="store_true", help="check names and units at toy size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    pin_threads()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)  # the C kernel builds here, not in /tmp
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # still clean up
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        if args.setup_probe:
            # Set-up is mostly imports and table building: interpreter work.
            kernel = calibration_kernel("interpreter")
            before = kernel()
            import workloads

            workloads.make(args.workload, args.seed, args.toy).setup()
            print("ready", flush=True)
            print(before, kernel(), flush=True)
            return 0
        if args.pin:
            PINNED.write_text(json.dumps(pin(), indent=2, sort_keys=True) + "\n")
            return 0
        if args.smoke:
            problems = smoke()
            for problem in problems:
                print(problem, file=sys.stderr)
            print("smoke ok" if not problems else "smoke FAILED")
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result, provenance = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
        print(json.dumps({"provenance": provenance}, sort_keys=True, default=str))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
