#!/usr/bin/env python3
"""homolift benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload rose_stream --seed 0 --seconds 45 \
        --trace 0

Sets up the workload several times (fresh import of homolift from
``src/``, seeded input generation and parsing, fixture load) and reports
the median as ``setup_s``; then runs the operation list in a closed loop
for ``--seconds`` (after one untimed run of a fixed list's top rung) and
checks every answer.  With ``--trace 1`` the public homolift functions
are wrapped in spans for half of ``--seconds``, the same operations are
replayed without them to measure the tracing overhead, and per-layer
metrics replace the end-to-end ones.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

import os

# one thread for every numeric library, before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from env import MissingPackage, import_homolift  # noqa: E402

SETUP_REPEATS = 7
# Timings are reported in reference seconds: each measured time times
# CALIBRATION_REF_S over the median time of calibration_unit() in the
# samples taken within CALIBRATION_WINDOW_S of it; a sample is taken every
# CALIBRATION_EVERY_S of processor time, inside operations too.  On a
# shared host the machine's speed drifts by up to a third within minutes;
# homolift and the unit slow down together, so their ratio moves far less.
CALIBRATION_REF_S = 0.012
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 0.5
ADDRESS_SPACE_CAP = 2 << 30
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("top_rung_s", "s"), ("peak_rss_mb", "MB")]
RUN_LEVEL = [("run.certified_ratio", "ratio"),
             ("run.failed_op_ratio", "ratio"),
             ("search.conversion_failures", "count"),
             ("trace.overhead_ratio", "ratio")]
PER_LAYER = spans.metric_names() + RUN_LEVEL

FAILURES = ("mismatch", "timeout", "memory", "resource_warning",
            "recursion", "homolift_error", "other_error")


def calibration_unit():
    """Fixed work independent of homolift, shaped like its two hot loops:
    tuple-keyed dict updates on integers and a sort (the streams' Laurent
    polynomials), then row reduction of a list-of-lists integer matrix
    modulo a prime (the ladder's characteristic polynomials)."""
    counts = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * i
    p, n = 32003, 56
    h = [[(i * 131 + j * 71 + 7 * i * j + 1) % p for j in range(n)]
         for i in range(n)]
    for j in range(n - 1):
        inv = pow(h[j][j] or 1, p - 2, p)
        hj = h[j]
        for i in range(j + 1, n):
            f = h[i][j] * inv % p
            hi = h[i]
            for k in range(j, n):
                hi[k] = (hi[k] - f * hj[k]) % p
    return sorted(counts.values()), h


class Calibration:
    """Times calibration_unit() whenever tick() is called and, between
    start() and stop(), every CALIBRATION_EVERY_S of processor time from a
    timer signal, so that long operations are sampled while they run.
    ``paused`` is the total time spent in the unit; the callers take it off
    the times they measure."""

    def __init__(self):
        self.samples = []  # (end time, seconds)
        self.paused = 0.0
        self._busy = False

    def tick(self):
        if self._busy:  # the timer fired during a tick
            return
        self._busy = True
        # keep the collector out of the timed unit, so that the unit never
        # pays for an operation's garbage
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_unit()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.samples.append((t1, t1 - t0))
        self.paused += t1 - t0

    def start(self):
        signal.signal(signal.SIGVTALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_VIRTUAL, CALIBRATION_EVERY_S,
                         CALIBRATION_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scale(self, start=None, end=None):
        """Factor from measured to reference seconds, for the interval
        [start, end] from the samples within CALIBRATION_WINDOW_S of it, or
        from all samples when no interval is given or none is near."""
        near = [s for t, s in self.samples if start is not None
                and start - CALIBRATION_WINDOW_S <= t
                <= end + CALIBRATION_WINDOW_S]
        return CALIBRATION_REF_S / statistics.median(
            near or [s for _t, s in self.samples])

    def reference(self, start, seconds):
        """``seconds`` measured from ``start``, in reference seconds."""
        return seconds * self.scale(start, start + seconds)


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    ``except Exception`` inside homolift swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def attempt(op, homolift_error, limit):
    """Run one operation under the time limit.

    Returns (outcome, seconds, answer); the outcome is "ok" or one of
    FAILURES.  Nothing an operation raises escapes.
    """
    answer = None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "ok"
        if op.expect is not None and any(answer.get(k) != v
                                         for k, v in op.expect.items()):
            outcome = "mismatch"
    except OpTimeout:
        outcome = "timeout"
    except MemoryError:
        outcome = "memory"
    except RecursionError:
        outcome = "recursion"
    except ResourceWarning:
        outcome = "resource_warning"
    except workloads.VerdictMismatch:
        outcome = "mismatch"
    except homolift_error:
        outcome = "homolift_error"
    except Exception:  # noqa: BLE001 - counted, never fatal to the run
        outcome = "other_error"
        traceback.print_exc(limit=-3, file=sys.stderr)
    seconds = perf_counter() - t0
    if outcome == "mismatch":
        print(f"mismatch on {op.label}: got {answer}, expected {op.expect}",
              file=sys.stderr)
    return outcome, seconds, answer


def closed_loop(workload, homolift_error, seconds=None, count=None,
                recorder=None, calibration=None):
    """Execute operations in list order, cycling, until ``seconds`` have
    passed (for a fixed list: at the pass boundary nearest to it) or
    ``count`` operations ran.  Returns the (op, outcome, seconds, answer)
    records and the wall time.  With a started ``calibration`` the records
    hold reference seconds, each operation's from the calibration samples
    near it, and without the time the samples taken inside it cost."""
    ops = workload.ops
    records = []
    starts = []
    if calibration is not None:
        calibration.tick()
    start = perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if recorder is not None:
            recorder.start_op(i)
        starts.append(perf_counter())
        paused = calibration.paused if calibration is not None else 0.0
        outcome, busy, answer = attempt(op, homolift_error,
                                        workload.time_limit_s)
        if calibration is not None:
            busy -= calibration.paused - paused
        records.append((op, outcome, busy, answer))
        i += 1
        if count is not None:
            if i >= count:
                break
            continue
        elapsed = perf_counter() - start
        if not workload.fixed:
            if elapsed >= seconds:
                break
        elif i % len(ops) == 0:
            # stop at the pass boundary nearest to ``seconds``
            if elapsed + elapsed / (i // len(ops)) / 2 >= seconds:
                break
    wall = perf_counter() - start
    if calibration is not None:
        calibration.tick()
        records = [(op, outcome, calibration.reference(t, s), answer)
                   for (op, outcome, s, answer), t in zip(records, starts)]
    return records, wall


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(workload, records):
    """Outcome counts and the latency figures of one closed-loop run."""
    counts = dict.fromkeys(("ok",) + FAILURES, 0)
    for _op, outcome, _s, _a in records:
        counts[outcome] += 1
    ok = [(op, s, a) for op, outcome, s, a in records if outcome == "ok"]
    busy = [s for _op, s, _a in ok]
    if workload.fixed:
        # percentiles over the list's operations, each at its median over
        # the passes, so that they do not depend on how many passes fit
        by_label = {}
        for op, s, _a in ok:
            by_label.setdefault(op.label, []).append(s)
        latencies = sorted(statistics.median(v) for v in by_label.values())
    else:
        latencies = sorted(busy)
    rung = [s for op, s, _a in ok if op.label == workload.top_rung]
    if not latencies or not rung:
        raise RuntimeError(f"{workload.name}: no completed operation to "
                           f"time (top rung {workload.top_rung})")
    attempted = len(records)
    certified = sum(1 for _op, _s, a in ok
                    if a.get("found") or a.get("valid"))
    return {
        "counts": counts,
        "attempted": attempted,
        "failed": attempted - counts["ok"],
        "latencies": latencies,
        # a failed operation's time is the benchmark's own limit, so only
        # the time spent in completed operations divides
        "ops_per_s": len(busy) / sum(busy),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile(latencies, 90),
        "top_rung_s": statistics.median(rung),
        "certified_ratio": certified / attempted,
        "failed_op_ratio": (attempted - counts["ok"]) / attempted,
        "conversion_failures": sum(a.get("conversion_failures", 0)
                                   for _op, _s, a in ok),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(name, seed, calibration):
    """Fresh import plus workload construction, timed SETUP_REPEATS times;
    the median in reference seconds."""
    answers = workloads.known_answers(name)
    times = []
    calibration.tick()
    for _ in range(SETUP_REPEATS):
        paused = calibration.paused
        t0 = perf_counter()
        hl = import_homolift(fresh=True)
        workload = workloads.WORKLOADS[name](hl, seed, answers)
        times.append((t0, perf_counter() - t0 - (calibration.paused
                                                  - paused)))
        calibration.tick()
    # the inputs live for the whole run: keep the collector from rescanning
    # them on every full collection an operation triggers
    gc.collect()
    gc.freeze()
    return hl, workload, statistics.median(
        calibration.reference(t0, seconds) for t0, seconds in times)


def report(workload, summary, metrics, units, seconds):
    """Human-readable lines, then the JSON result as the last line."""
    n = len(summary["latencies"])
    print(f"workload {workload.name}: {summary['attempted']} operations "
          f"attempted over a {seconds:g} s closed loop, one client, "
          f"{len(workload.ops)} in the list")
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in
                                   summary["counts"].items() if v))
    print(f"certified_ratio = {summary['certified_ratio']:.4f} (inputs "
          f"ending with a verified certificate / attempted)")
    print(f"failed_op_ratio = {summary['failed_op_ratio']:.4f} "
          f"({summary['failed']}/{summary['attempted']})")
    beyond = n - math.ceil(0.9 * n)
    samples = ("operations of the list, each at its median over the passes"
               if workload.fixed else "latency samples")
    print(f"op_p90_s rests on {n} {samples}, {beyond} beyond it")
    if beyond < 10:
        highest = math.floor(100 * (n - 10) / n) if n > 10 else None
        note = (f"op_p{highest}_s = "
                f"{percentile(summary['latencies'], highest):.6g} s"
                if highest else "none")
        print(f"highest percentile with ten samples beyond it: {note}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    ok = summary["counts"]["mismatch"] == 0
    print(json.dumps({
        "correct": ok,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(
        ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    calibration = Calibration()
    calibration.start()
    try:
        hl, workload, setup_s = setup(args.workload, args.seed, calibration)
    except MissingPackage as exc:
        calibration.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        calibration.stop()
    if workload.fixed:
        # the top rung has the largest degree: running it once fills
        # homolift's caches (cyclotomic polynomials, CRT primes) for every
        # operation, so each measured pass starts in the same state
        rung = next(op for op in workload.ops
                    if op.label == workload.top_rung)
        attempt(rung, hl.HomoliftError, workload.time_limit_s)

    if not args.trace:
        setup_rss_mb = _peak_rss_mb()
        records, _wall = closed_loop(workload, hl.HomoliftError,
                                     seconds=args.seconds,
                                     calibration=calibration)
        calibration.stop()
        s = summarize(workload, records)
        # no bound on it: the memory the failed operations reach sets it
        print(f"peak resident set over the whole run: {_peak_rss_mb():.1f} MB")
        print(f"times are reference seconds: measured seconds times "
              f"{calibration.scale():.4f} on the median of the run's "
              f"{len(calibration.samples)} calibration samples, each time "
              f"scaled by the samples within {CALIBRATION_WINDOW_S:g} s")
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": s["ops_per_s"],
            "op_p50_s": s["op_p50_s"],
            "op_p90_s": s["op_p90_s"],
            "top_rung_s": s["top_rung_s"],
            "peak_rss_mb": setup_rss_mb,
        }
        report(workload, s, metrics, dict(END_TO_END), args.seconds)
        return 0

    recorder = spans.Recorder(hl)
    recorder.install()
    try:
        records, traced_wall = closed_loop(workload, hl.HomoliftError,
                                           seconds=args.seconds / 2,
                                           recorder=recorder)
    finally:
        recorder.uninstall()
    _plain, plain_wall = closed_loop(workload, hl.HomoliftError,
                                     count=len(records))
    s = summarize(workload, records)
    metrics = recorder.layer_metrics()
    metrics.update({
        "run.certified_ratio": s["certified_ratio"],
        "run.failed_op_ratio": s["failed_op_ratio"],
        "search.conversion_failures": s["conversion_failures"],
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
    recorder.write(path)
    print(f"{len(recorder.spans)} spans written to {path}; traced wall "
          f"{traced_wall:.3f} s, untraced replay {plain_wall:.3f} s")
    report(workload, s, metrics, dict(PER_LAYER), args.seconds / 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
