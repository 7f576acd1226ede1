"""ssnorm benchmark.

    python3 bench/run.py --workload {toy-train,layer-train,infer} \
        --seed N --seconds S --trace {0,1}

Runs the workload in ROUNDS fresh worker processes one after another, each
a single closed-loop caller measuring S/ROUNDS seconds, so set-up time and
peak memory are sampled several times and reported as medians.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each round alternates untraced and traced ops and the last
line carries the per-layer metrics.  The line before it is a report with run
metadata, the tail percentile and sample count, the failure counts and the
wall-clock figures as measured.  Spans and scratch files go to
``.bench_out/`` in the checkout.

Timings are normalised to host speed.  The shared host's speed drifts by
tens of percent over minutes, so next to every op the worker times a fixed
calibration (pure-Python work, plus a new full-tensor temporary on the
full-tensor workloads) and scales the op time by the calibration's reference
time over the calibration times just before and after the op.  The result
reads as milliseconds on the reference host and moves only with the work
the op does.

End-to-end metrics: ``setup_s`` is worker start to the end of the untimed
warm-up op (imports, input generation, warm-up; not the benchmark's own
reference computation), normalised by a pure-Python calibration timed just
before and after it, median over rounds.  ``op_ms.p50`` and ``op_ms.tail``
are over all timed ops; the tail is the latency with exactly ten samples
above it.  ``samples_per_s`` is images per second of timed op time.
``peak_rss_mb`` is the median of the rounds' ``ru_maxrss``.  ``ok_share``
is 1 - failed/attempted, where an op fails when it raises or its output
check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, PER_LAYER, merge_summaries, per_layer_metrics, tail  # noqa: E402

ROUNDS = 3
ROUND_TIMEOUT_S = 50


def git_commit(root: Path):
    """Commit id read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_round(args, rnd: int, out_dir: Path) -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / ROUNDS),
           "--trace", str(args.trace), "--round", str(rnd), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round {rnd} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds, attempted: int, failed: int) -> tuple[dict, dict]:
    samples = [ms for r in rounds for ms in r["samples_ms"]]
    tail_ms, pct, n = tail(samples)
    images = rounds[0]["images_per_op"] * len(samples)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "op_ms.p50": statistics.median(samples),
        "op_ms.tail": tail_ms,
        "samples_per_s": images / (sum(samples) / 1e3),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "ok_share": (attempted - failed) / attempted,
    }
    raw = [ms for r in rounds for ms in r["samples_raw_ms"]]
    detail = {"tail_percentile": pct, "tail_samples": n,
              "failed_share": failed / attempted,
              "timing": "normalised to the reference host's speed; "
                        "wall_clock holds the figures as measured",
              "wall_clock": {
                  "setup_s": statistics.median(r["setup_raw_s"] for r in rounds),
                  "op_ms.p50": statistics.median(raw),
                  "op_ms.tail": tail(raw)[0],
                  "samples_per_s": images / (sum(raw) / 1e3),
                  "calibration_ms": statistics.median(r["cal_ms"] for r in rounds)}}
    return values, detail


def per_layer(rounds) -> tuple[dict, dict]:
    summary = merge_summaries([r["trace"] for r in rounds])
    traced = [ms for r in rounds for ms in r["traced_ms"]]
    untraced = [ms for r in rounds for ms in r["samples_ms"]]
    values = per_layer_metrics(summary, summary["names"]["op"]["calls"], traced,
                               untraced, statistics.median(r["copy_gbs"] for r in rounds))
    detail = {"traced_ops": len(traced), "untraced_ops": len(untraced),
              "missing": summary["missing"],
              "input_gbs_note": "input bytes of array arguments / self time"}
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("toy-train", "layer-train", "infer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ssnorm" / "__init__.py").is_file():
        print(f"no ssnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        rounds = [run_round(args, rnd, out_dir) for rnd in range(ROUNDS)]
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        values, detail = per_layer(rounds) if args.trace else \
            end_to_end(rounds, attempted, failed)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        # ValueError also covers too few completed ops for the tail.
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    catalogue = PER_LAYER if args.trace else END_TO_END
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "rounds": ROUNDS,
              "metadata": dict(rounds[0]["metadata"], git_commit=git_commit(ROOT),
                               workload_seed=args.seed),
              "attempted": attempted, "failed": failed, **detail,
              "metrics": {m.name: {"value": values[m.name], "unit": m.unit,
                                   "better": m.better, "layer": m.layer}
                          for m in catalogue}}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                                  for m in catalogue}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
