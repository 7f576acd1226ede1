"""One measurement round of one workload, in a fresh process.

Prints one JSON object on its last stdout line: set-up time, op latencies,
attempted and failed counts, peak RSS and, when traced, the trace summary.
Times are given both as measured and normalised to the reference host's
speed (see ``harness.normalise``).  Run by ``run.py``; not meant to be
called by hand.
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# Only the standard library and harness are loaded before set-up starts.  This
# calibration and the one after the warm-up op bracket the set-up time.
from harness import SETUP_CAL_N, interpreter_loop, timed_ms  # noqa: E402

SETUP_CAL_BEFORE_MS = timed_ms(lambda: interpreter_loop(SETUP_CAL_N))
START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

ROOT = HERE.parent

from harness import SETUP_CAL_REF_MS, Tracer, normalise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 4
COPY_SHAPE = (16, 64, 56, 56)


def import_package():
    """Import ssnorm from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ssnorm
    if Path(ssnorm.__file__).resolve().parent != src / "ssnorm":
        raise ImportError(f"ssnorm imported from {ssnorm.__file__}, not {src}")


@dataclass
class Measurement:
    """Op latencies of one round in ms, normalised (and, untraced, as
    measured), with the calibration times and the op counts."""
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    untraced_raw: list = field(default_factory=list)
    cal_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(wl, budget_s: float, tracer=None) -> Measurement:
    """Closed loop: run ops until the budget is spent, at least MIN_OPS ran
    and the workload's input cycle is complete.  Each output is checked
    after its op's clock stops; an op that raises gives no latency sample.
    The workload's calibration runs between ops, so every op time is
    normalised by the calibrations just before and after it.

    With a tracer, odd-numbered ops run traced and even ones untraced, so
    drift in machine speed during the run affects both alike."""
    m = Measurement()
    period = wl.cycle * (2 if tracer else 1)
    end = time.perf_counter() + budget_s
    cal_before = timed_ms(wl.calibrate)
    while time.perf_counter() < end or m.attempted < MIN_OPS or m.attempted % period:
        i = m.attempted
        m.attempted += 1
        traced = tracer is not None and i % 2 == 1
        try:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            out = tracer.op(i, lambda: wl.op(i)) if traced else wl.op(i)
            op_ms = 1e3 * (time.perf_counter() - t0)
        except Exception:
            traceback.print_exc()
            m.failed += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        m.failed += not checked(wl, i, out)
        del out
        cal_after = timed_ms(wl.calibrate)
        m.cal_ms.append(cal_after)
        (m.traced if traced else m.untraced).append(
            normalise(op_ms, cal_before, cal_after, wl.CAL_REF_MS))
        if not traced:
            m.untraced_raw.append(op_ms)
        cal_before = cal_after
    return m


def checked(wl, i, out) -> bool:
    try:
        return bool(wl.check(i, out))
    except Exception:
        traceback.print_exc()
        return False


def copy_gbs(reps: int = 7) -> float:
    """Median single-thread copy bandwidth, in source GB per second."""
    src = np.random.default_rng(0).normal(size=COPY_SHAPE)
    dst = np.empty_like(src)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(src.nbytes / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    name = deps.get("blas", {}).get("name")
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"blas": name, "blas_threads": threads,
            "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS")}


def metadata() -> dict:
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, **blas_info()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)

    import_package()
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    wl.setup()
    warm = wl.op(0)
    setup_ms = 1e3 * (time.perf_counter() - START)
    setup_cal_after_ms = timed_ms(lambda: interpreter_loop(SETUP_CAL_N))
    wl.prepare_checks()
    warm_ok = checked(wl, 0, warm)
    del warm

    tracer = Tracer() if args.trace else None
    m = measure(wl, args.seconds, tracer)
    result = {"setup_s": normalise(setup_ms, SETUP_CAL_BEFORE_MS, setup_cal_after_ms,
                                   SETUP_CAL_REF_MS) / 1e3,
              "setup_raw_s": setup_ms / 1e3,
              "images_per_op": wl.images_per_op,
              "attempted": m.attempted + 1, "failed": m.failed + (not warm_ok),
              "samples_ms": m.untraced, "samples_raw_ms": m.untraced_raw,
              "cal_ms": statistics.median(m.cal_ms) if m.cal_ms else None,
              "metadata": metadata()}
    if tracer:
        tracer.dump(out_dir / f"spans-{args.workload}-round{args.round}.jsonl")
        result.update(traced_ms=m.traced, trace=tracer.summary(), copy_gbs=copy_gbs())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
