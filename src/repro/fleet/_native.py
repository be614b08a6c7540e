"""Runtime-compiled C kernel for the columnar fleet engine's arrival sweep.

The columnar engine's hot loop — project, admit/shed, enqueue, flush —
is a *sequential* decision process (each admission depends on the state
the previous one left), so it cannot be vectorized as numpy whole-array
ops without changing semantics.  It can, however, be compiled: this
module carries a small C translation of the pure-Python sweep in
:mod:`repro.fleet.columnar`, builds it once per process with the system
C compiler, and loads it through :mod:`ctypes`.

Bit-exactness contract: the C code performs the *same IEEE-754 double
operations in the same order* as the Python sweep (which in turn mirrors
the event-loop engine).  The build deliberately avoids every flag that
would let the compiler reassociate or contract floating point
(``-ffp-contract=off``, no ``-ffast-math``, no ``-march=native``), so
x86-64 SSE2 / aarch64 doubles come out bit-identical to CPython's —
a property the differential tests assert rather than assume.

When no C compiler is available (or ``REPRO_COLUMNAR_NATIVE=0`` is set)
the engine transparently falls back to the pure-Python sweep; results
are identical either way, only wall-clock changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

_SOURCE = r"""
#include <math.h>
#include <string.h>

/* Layout (L live replicas, B buckets, M max batch):
 *   price_full [L*B]        full-batch service ms per bucket
 *   ref_price  [L]          admission reference-batch price
 *   svc        [L*B*(M+1)]  service ms per (bucket, batch size); col 0 unused
 *   depth      [L*B]        queue depths (always < M between events)
 *   qidx/qenq  [L*B*M]      queued request index / enqueue time, FIFO
 *   seen       [L*B]        bucket ever used on this replica
 *   order      [L*B]        bucket slots in first-use order (order_n valid)
 *   next_dl    [L]          earliest pending deadline, INFINITY when none
 */

static void recompute_next_dl(long long r, long long B, long long M,
                              double wait_ms, const int *depth,
                              const double *qenq, const int *order,
                              const int *order_n, double *next_dl) {
    double nd = INFINITY;
    long long on = order_n[r];
    for (long long j = 0; j < on; ++j) {
        long long b = order[r * B + j];
        if (depth[r * B + b] > 0) {
            double cand = qenq[(r * B + b) * M] + wait_ms;
            if (cand < nd) nd = cand;
        }
    }
    next_dl[r] = nd;
}

static void flush_bucket(long long r, long long b, double flush_ms,
                         long long B, long long M, double wait_ms,
                         double *busy_until, double *busy_ms,
                         long long *batches, long long *served,
                         const double *svc, int *depth,
                         const long long *qidx, const double *qenq,
                         const int *order, const int *order_n,
                         double *next_dl, unsigned char *shed, double *finish,
                         long long *done_log, long long *done_n) {
    long long n = depth[r * B + b];
    double service = svc[(r * B + b) * (M + 1) + n];
    double start = flush_ms > busy_until[r] ? flush_ms : busy_until[r];
    double fin = start + service;
    busy_until[r] = fin;
    busy_ms[r] += service;
    batches[r] += 1;
    served[r] += n;
    for (long long j = 0; j < n; ++j) {
        long long idx = qidx[(r * B + b) * M + j];
        shed[idx] = 0;
        finish[idx] = fin;
        done_log[(*done_n)++] = idx;
    }
    depth[r * B + b] = 0;
    recompute_next_dl(r, B, M, wait_ms, depth, qenq, order, order_n, next_dl);
}

static void fire_dues(long long r, double now_ms,
                      long long B, long long M, double wait_ms,
                      double *busy_until, double *busy_ms,
                      long long *batches, long long *served,
                      const double *svc, int *depth,
                      const long long *qidx, const double *qenq,
                      const int *order, const int *order_n,
                      const long long *bucket_value,
                      double *next_dl, unsigned char *shed, double *finish,
                      long long *done_log, long long *done_n,
                      double *due_dl, long long *due_bv, long long *due_b) {
    /* Collect every due (deadline, bucket) pair first, then flush — a
     * flush only empties queues, so the due set is fixed up front
     * (mirrors DynamicBatcher.due_batches). */
    long long count = 0;
    long long on = order_n[r];
    for (long long j = 0; j < on; ++j) {
        long long b = order[r * B + j];
        if (depth[r * B + b] > 0) {
            double dl = qenq[(r * B + b) * M] + wait_ms;
            if (dl <= now_ms) {
                due_dl[count] = dl;
                due_bv[count] = bucket_value[b];
                due_b[count] = b;
                ++count;
            }
        }
    }
    /* Insertion sort by (deadline, bucket value) — Python's due.sort(). */
    for (long long i = 1; i < count; ++i) {
        double dl = due_dl[i];
        long long bv = due_bv[i], b = due_b[i];
        long long j = i - 1;
        while (j >= 0 && (due_dl[j] > dl || (due_dl[j] == dl && due_bv[j] > bv))) {
            due_dl[j + 1] = due_dl[j];
            due_bv[j + 1] = due_bv[j];
            due_b[j + 1] = due_b[j];
            --j;
        }
        due_dl[j + 1] = dl;
        due_bv[j + 1] = bv;
        due_b[j + 1] = b;
    }
    for (long long i = 0; i < count; ++i) {
        flush_bucket(r, due_b[i], due_dl[i], B, M, wait_ms,
                     busy_until, busy_ms, batches, served, svc, depth,
                     qidx, qenq, order, order_n, next_dl, shed, finish,
                     done_log, done_n);
    }
}

static double global_next(long long L, const double *next_dl) {
    double g = INFINITY;
    for (long long r = 0; r < L; ++r)
        if (next_dl[r] < g) g = next_dl[r];
    return g;
}

/* The admission projection: minimum over live replicas, strict < keeping
 * the lowest index on ties (Fleet.submit's plain loop).  Shared by the
 * per-arrival path and the shed-skip binary search so both evaluate the
 * byte-identical FP expression. */
static double best_projection(double t, long long L, long long B, long long M,
                              double wait_ms, const double *busy_until,
                              const double *price_full, const double *ref_price,
                              const int *depth, const int *order,
                              const int *order_n, long long *best_out) {
    long long best = 0;
    double bestp = 0.0;
    for (long long r = 0; r < L; ++r) {
        double backlog = busy_until[r] - t;
        if (backlog < 0.0) backlog = 0.0;
        double queued = 0.0;
        long long on = order_n[r];
        for (long long j = 0; j < on; ++j) {
            long long b = order[r * B + j];
            long long d = depth[r * B + b];
            if (d > 0)
                queued += (double)((d + M - 1) / M) * price_full[r * B + b];
        }
        double proj = backlog + queued + ref_price[r] + wait_ms;
        if (r == 0 || proj < bestp) {
            bestp = proj;
            best = r;
        }
    }
    *best_out = best;
    return bestp;
}

void arrival_run(long long i0, long long i1,
                 const double *arrival, const int *bucket, const double *slo,
                 long long L, long long B, long long M,
                 double wait_ms, double admit_factor, double uniform_slo,
                 double *busy_until, double *busy_ms,
                 long long *batches, long long *served,
                 const double *price_full, const double *ref_price,
                 const double *svc,
                 int *depth, long long *qidx, double *qenq,
                 unsigned char *seen, int *order, int *order_n,
                 double *next_dl, const long long *bucket_value,
                 unsigned char *shed, double *finish,
                 long long *done_log, long long *done_n,
                 double *due_dl, long long *due_bv, long long *due_b) {
    double g = global_next(L, next_dl);
    /* With a uniform per-request SLO the shed threshold is one constant
     * (the same product admit_factor * slo[i] the per-arrival check
     * computes); <= 0 disables the shed-skip fast path. */
    double uthresh = uniform_slo > 0.0 ? admit_factor * uniform_slo : -1.0;
    for (long long i = i0; i < i1; ++i) {
        double t = arrival[i];
        if (t >= g) {
            /* Fleet.advance: live replicas in id order. */
            for (long long r = 0; r < L; ++r) {
                if (next_dl[r] <= t) {
                    fire_dues(r, t, B, M, wait_ms, busy_until, busy_ms,
                              batches, served, svc, depth, qidx, qenq,
                              order, order_n, bucket_value, next_dl,
                              shed, finish, done_log, done_n,
                              due_dl, due_bv, due_b);
                }
            }
            g = global_next(L, next_dl);
        }
        long long best;
        double bestp = best_projection(t, L, B, M, wait_ms, busy_until,
                                       price_full, ref_price, depth,
                                       order, order_n, &best);
        if (bestp > admit_factor * slo[i]) {
            shed[i] = 1;
            if (uthresh > 0.0 && i + 1 < i1) {
                /* Shed-skip: replica state is frozen while requests shed,
                 * and the projection is FP-monotone non-increasing in t
                 * (IEEE subtraction/addition are monotone, min of
                 * monotone is monotone), so within the arrivals that
                 * precede the next deadline g the shed -> admit boundary
                 * is a clean threshold.  Binary-search it with the exact
                 * per-arrival predicate, then bulk-mark the sheds. */
                long long lim = i1;
                if (g < INFINITY) {
                    long long lo = i + 1, hi = i1;
                    while (lo < hi) {
                        long long mid = lo + (hi - lo) / 2;
                        if (arrival[mid] >= g) hi = mid; else lo = mid + 1;
                    }
                    lim = lo;
                }
                long long lo = i + 1, hi = lim, scratch;
                while (lo < hi) {
                    long long mid = lo + (hi - lo) / 2;
                    double p = best_projection(arrival[mid], L, B, M, wait_ms,
                                               busy_until, price_full,
                                               ref_price, depth, order,
                                               order_n, &scratch);
                    if (p > uthresh) lo = mid + 1; else hi = mid;
                }
                if (lo > i + 1) {
                    memset(shed + i + 1, 1, (size_t)(lo - (i + 1)));
                    i = lo - 1;
                }
            }
            continue;
        }
        long long r = best;
        long long b = bucket[i];
        long long d = depth[r * B + b];
        qidx[(r * B + b) * M + d] = i;
        qenq[(r * B + b) * M + d] = t;
        depth[r * B + b] = (int)(d + 1);
        if (d == 0) {
            if (!seen[r * B + b]) {
                seen[r * B + b] = 1;
                order[r * B + order_n[r]] = (int)b;
                order_n[r] += 1;
            }
            double dl = t + wait_ms;
            if (dl < next_dl[r]) next_dl[r] = dl;
            if (dl < g) g = dl;
        }
        if (d + 1 >= M) {
            flush_bucket(r, b, t, B, M, wait_ms, busy_until, busy_ms,
                         batches, served, svc, depth, qidx, qenq,
                         order, order_n, next_dl, shed, finish,
                         done_log, done_n);
            g = global_next(L, next_dl);
        }
    }
}
"""

_lib = None
_load_attempted = False
# Why this process sweeps in Python instead: "no C compiler",
# "compile failed (rc=N)", "load failed", or "disabled by
# REPRO_COLUMNAR_NATIVE=0".  None while the kernel is loaded (or the
# build was not tried yet).
fallback_reason: Optional[str] = None


def _compiler() -> Optional[str]:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _build() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Compile and load the kernel: ``(handle, None)`` or ``(None, reason)``.

    The build directory is removed on every path: once ``CDLL`` has
    mapped the shared object, the file is no longer needed.
    """
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler"
    workdir = tempfile.mkdtemp(prefix="repro-columnar-")
    src = os.path.join(workdir, "arrival_run.c")
    lib = os.path.join(workdir, "arrival_run.so")
    try:
        with open(src, "w") as fh:
            fh.write(_SOURCE)
        cmd = [
            compiler,
            "-O3",
            "-fPIC",
            "-shared",
            # Forbid FMA contraction: a fused multiply-add rounds once where
            # Python rounds twice, which would break bit-exactness.
            "-ffp-contract=off",
            "-o",
            lib,
            src,
            "-lm",
        ]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120
            )
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compile failed ({type(exc).__name__})"
        if proc.returncode != 0:
            return None, f"compile failed (rc={proc.returncode})"
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            return None, "load failed"
    finally:
        # Remove the two files the build wrote, then the empty directory.
        for path in (src, lib):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(workdir)

    import numpy.ctypeslib as npc
    import numpy as np

    f8 = npc.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i8 = npc.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i4 = npc.ndpointer(np.int32, flags="C_CONTIGUOUS")
    u1 = npc.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    ll = ctypes.c_longlong
    dd = ctypes.c_double
    handle.arrival_run.restype = None
    handle.arrival_run.argtypes = [
        ll, ll,                    # i0, i1
        f8, i4, f8,                # arrival, bucket, slo
        ll, ll, ll,                # L, B, M
        dd, dd, dd,                # wait_ms, admit_factor, uniform_slo
        f8, f8, i8, i8,            # busy_until, busy_ms, batches, served
        f8, f8, f8,                # price_full, ref_price, svc
        i4, i8, f8,                # depth, qidx, qenq
        u1, i4, i4,                # seen, order, order_n
        f8, i8,                    # next_dl, bucket_value
        u1, f8,                    # shed, finish
        i8, i8,                    # done_log, done_n (size-1 array)
        f8, i8, i8,                # due_dl, due_bv, due_b scratch
    ]
    return handle, None


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, building it on first call; ``None`` if unavailable."""
    global _lib, _load_attempted, fallback_reason
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_COLUMNAR_NATIVE", "1") == "0":
        _lib, fallback_reason = None, "disabled by REPRO_COLUMNAR_NATIVE=0"
    else:
        _lib, fallback_reason = _build()
    return _lib


def available() -> bool:
    """Whether the native sweep can run in this process."""
    return load() is not None
