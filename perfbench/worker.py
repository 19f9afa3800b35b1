"""One benchmark process: runs a workload's ops in-process, closed loop.

Started by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object
on stdout.  Each op is one call to ``thurston_kit.cli.main``; the next op
starts when the previous one has returned and been checked.  The op's
latency covers only the call; writing its config file and checking its
output happen between ops, inside the wall time of the run.

The host's speed drifts by tens of percent within seconds, so an
untraced run also times a fixed kernel (:func:`calibrate`) before its
first op, then every ``CALIBRATE_EVERY_S`` seconds of ops, and after its
last op.  The kernel imports nothing from the program, so its time
measures the machine, not the code under test; ``run.py`` scales the
timings by it.  An op's latency is also given in units of the kernel's
time around it (the mean of the samples just before and just after it).
Calibration time is excluded from the run's wall time.

Modes:
  --setup-only           import and prepare the first op, report setup_s
                         and the kernel's time in this process
  --ops N                run exactly N ops, stopping early only at --max-seconds
  --ops N --traced       run exactly N ops, each once traced and once not
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import random
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy

#: seconds of ops between two calibration samples of an untraced run
CALIBRATE_EVERY_S = 0.25
#: calibration samples taken by a --setup-only process
SETUP_CALIBRATIONS = 9


def _mul2(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def calibrate() -> float:
    """Seconds taken by a fixed kernel of about 10 ms.

    It mixes the three kinds of work the workloads do, in roughly equal
    parts: integer bytecode, float arithmetic on 2x2 tuples with ``math``
    calls, and small NumPy array operations.
    """
    a = (math.cosh(0.3), math.sinh(0.3), math.sinh(0.3), math.cosh(0.3))
    b = (math.exp(0.2), 0.1, 0.0, math.exp(-0.2))
    x = numpy.linspace(0.0, 1.0, 64)
    t = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    m, logscale, seen = (1.0, 0.0, 0.0, 1.0), 0.0, {}
    for i in range(3_000):
        m = _mul2(m, a if i % 3 else b)
        scale = abs(m[0]) + abs(m[3])
        m = (m[0] / scale, m[1] / scale, m[2] / scale, m[3] / scale)
        logscale += math.log(scale)
        seen[i % 97] = logscale
    for _ in range(500):
        y = numpy.sqrt(x * x + 1.0)
        acc += float(y.sum()) + float(numpy.dot(x, y))
    return time.perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    parser.add_argument("--out", required=True, help="directory for config files and artifacts")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops", type=int)
    parser.add_argument("--max-seconds", type=float, help="wall time after which a run stops early")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="CSV file a traced run writes its spans to")
    args = parser.parse_args()

    import scipy
    import thurston_kit
    import thurston_kit.cli

    from workloads import ARTIFACTS, REFERENCE_SHARE, WORKLOADS, check

    workload = WORKLOADS[args.workload]
    ops = workload.ops(random.Random(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "op.cfg"

    def prepare(op) -> list[str]:
        for name in ARTIFACTS[op.kind]:
            (out / name).unlink(missing_ok=True)
        if not op.config:
            return list(op.argv)
        cfg_path.write_text(op.config + f"out_dir={out}\n")
        return ["--config", str(cfg_path), *op.argv]

    op = next(ops)
    prepare(op)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        calib_s = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(json.dumps({"setup_s": setup_s, "calib_s": calib_s}))
        return 0

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def execute(op) -> tuple:
        """Prepare the op's inputs, then time only the call to cli.main."""
        argv = prepare(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t = time.perf_counter()
            try:
                rc = thurston_kit.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - t
        return check(op, rc, stdout.getvalue(), stderr.getvalue(), out), elapsed

    failures: list[dict] = []

    def note(index: int, kind: str, status: str, reason: str, inputs: dict) -> None:
        failures.append({"op": index, "kind": kind, "status": status, "reason": reason, "inputs": inputs})

    #: (seconds, index of the last calibration sample before the op)
    latencies: list[tuple[float, int]] = []
    cells: list[tuple[int, tuple]] = []
    sample = random.Random(f"{args.seed}:reference")
    seen: set = set()
    repeats = cube_ops = cube_agree = pinned = 0
    plain_s = traced_s = 0.0
    calibrations: list[float] = []
    index = 0
    truncated = False
    start = last_calibration = time.monotonic()
    if tracer is None:
        calibrations.append(calibrate())
    while True:
        repeats += op.key() in seen
        seen.add(op.key())
        pinned += op.pinned
        if tracer is None:
            outcome, elapsed = execute(op)
            latencies.append((elapsed, len(calibrations) - 1))
        else:
            # the op also runs untraced, first on every other op, so that
            # drift in machine speed cancels out of the tracing overhead
            tracer.op = index
            for active in (False, True) if index % 2 == 0 else (True, False):
                tracer.set_active(active)
                result, elapsed = execute(op)
                tracer.set_active(False)
                if active:
                    outcome, traced_s = result, traced_s + elapsed
                else:
                    plain_s += elapsed
                    if result.status == "wrong":
                        note(index, op.kind, "wrong", f"untraced: {result.reason}", op.inputs)
        if outcome.status != "ok":
            note(index, op.kind, outcome.status, outcome.reason, op.inputs)
        if outcome.cell is not None and not op.pinned and sample.random() < REFERENCE_SHARE:
            cells.append((index, outcome.cell))
        if outcome.agree is not None:
            cube_ops += 1
            cube_agree += outcome.agree
        index += 1
        if index >= args.ops:
            break
        now = time.monotonic()
        if args.max_seconds is not None and now - start >= args.max_seconds:
            truncated = True
            break
        if tracer is None and now - last_calibration >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            last_calibration = time.monotonic()
        op = next(ops)
    if tracer is None:
        calibrations.append(calibrate())
    wall_s = time.monotonic() - start - sum(calibrations)

    if tracer is not None:
        tracer.write(Path(args.spans))

    if cells:
        from reference import envelope_cell

        from workloads import ENVELOPE_MAX_Q, ENVELOPE_TOL

        for i, (l0, t, d_lr, d_rl) in cells:
            ref = envelope_cell(l0, t, ENVELOPE_MAX_Q)
            if max(abs(ref[0] - d_lr), abs(ref[1] - d_rl)) > ENVELOPE_TOL:
                note(i, "envelope", "wrong", f"reference gives {ref}, program gives {(d_lr, d_rl)}", {"l0": l0, "t": t})

    result = {
        "setup_s": setup_s,
        "ops": index,
        "truncated": truncated,
        "wall_s": wall_s,
        "failed": len({f["op"] for f in failures}),
        "wrong": sum(f["status"] == "wrong" for f in failures),
        "failures": failures,
        "repeat_share": repeats / index,
        "pinned_ops": pinned,
        "reference_checks": len(cells),
        "cube_ops": cube_ops,
        "cube_agree": cube_agree,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["plain_s"], result["traced_s"] = plain_s, traced_s
    else:
        result["calib_s"] = statistics.fmean(calibrations)
        result["calibrations"] = len(calibrations)
        latencies_ms = [x * 1e3 for x, _ in latencies]
        # a calibration sample precedes and follows every op
        latencies_k = [x * 2.0 / (calibrations[i] + calibrations[i + 1]) for x, i in latencies]
        for name, values in (("op_%s_ms", latencies_ms), ("op_%s_k", latencies_k)):
            result[name % "p50"] = statistics.median(values)
            result[name % "p90"] = statistics.quantiles(values, n=10)[8] if index >= 2 else values[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
