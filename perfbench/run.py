"""thurston-kit benchmark.

    python3 perfbench/run.py --workload {envelope,oracle,genus2} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src`` (nothing is installed).  Each workload runs in a fresh worker
process (``worker.py``) as a closed loop with one client: every op is one
in-process call to ``thurston_kit.cli.main`` with seeded argv and config,
and the next op starts when the last one has returned.  BLAS threads are
pinned to 1.  The workloads, why each was chosen and the layer each
bypasses are defined in ``workloads.py``.

A run executes a fixed number of ops, the workload's nominal rate times
--seconds, so the ops attempted and failed depend only on --seed and
--seconds; the run stops early only past three times --seconds.

--trace 0 prints the end-to-end metrics: setup_s (median over several
fresh processes of the time from launch to the first op: interpreter
start, ``import thurston_kit``, first input), throughput_ops_s, op_p50_ms,
op_p90_ms, ok_frac (ops that pass their check / ops attempted, the
complement of failed_frac) and peak_rss_mb.

The timings are given at a reference machine speed.  The shared host
this benchmark was sized on (2 vCPUs of an Intel Xeon) changes speed by
up to 40% within seconds, which moves every wall-clock figure together.
Each process therefore also times a fixed kernel (``worker.calibrate``)
that shares no code with the program, and a timing t measured while the
kernel took k is reported as t * CALIBRATION_REF_S / k: its value on a
machine where the kernel takes CALIBRATION_REF_S.  k is the median over
the process for setup_s, the mean over the run for throughput_ops_s, and
the mean of the samples around each op for its latency.  The raw
wall-clock figures and k are in the ``info`` line.

--trace 1 runs a fixed, seed-determined number of ops in one fresh
worker, each op twice: once plain and once with every function of
``tracer.LAYERS`` wrapped in a span, alternating which goes first.  It
prints the per-layer calls, self time and errors, the work ratios, and
the tracing overhead (time in traced calls minus time in plain calls),
all as raw wall-clock figures.  Calls counts repeat exactly for a given
seed and --seconds.  The spans of the latest traced run of each workload
are written to .perfbench_out/spans-<workload>.csv.

Every op's output is checked (see ``workloads.check``).  Failures the
program reports are counted in ``failed`` and listed one per line before
the result; outputs that contradict a check make ``correct`` false.  The
last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: extra fresh processes that only set up, so setup_s is a median of several
SETUP_PROBES = 5
#: time of ``worker.calibrate`` on the reference machine the timings are scaled to
CALIBRATION_REF_S = 0.010
#: a run stops early once its ops have taken this many times --seconds
MAX_SECONDS_FACTOR = 3.0
#: the whole run must end within 180 s
DEADLINE_S = 170.0
OUT = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("THURSTON_KIT_CONFIG", None)
    return env


def run_worker(args: argparse.Namespace, out: Path, deadline: float, *extra: str) -> dict:
    """Start one fresh worker, wait for it, and return its JSON summary."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--t0", repr(t0), "--out", str(out), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def check_declared(trace: int) -> None:
    """The metric names printed must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key, units = ("per_layer", per_layer_units()) if trace else ("end_to_end", E2E_UNITS)
    names = {m["name"]: m["unit"] for m in declared[key]}
    if names != units:
        raise BenchError(f"BENCHMARK.json {key} does not match the metrics this benchmark prints")


def run_ops(args: argparse.Namespace) -> int:
    """Fixed op count of a run: about --seconds at the workload's nominal
    rate; a traced run executes each op twice, so it takes half as many."""
    ops = WORKLOADS[args.workload].rate * args.seconds
    return max(4, round(ops / 2 if args.trace else ops))


def scaled(seconds: float, calib_s: float) -> float:
    """A time measured while the calibration kernel took calib_s, at reference speed."""
    return seconds * CALIBRATION_REF_S / calib_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if not (ROOT / "src" / "thurston_kit" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'thurston_kit'}", file=sys.stderr)
        return 2
    try:
        check_declared(args.trace)
        if args.trace:
            # one spans file per workload, replaced by the next traced run
            spans = OUT / f"spans-{args.workload}.csv"
            main_run = run_worker(args, work, deadline, "--ops", str(run_ops(args)), "--traced", "--spans", str(spans))
            metrics = dict(main_run["layers"])
            cube_ops = main_run["cube_ops"]
            metrics["cube.hull_brute_agree_ratio"] = main_run["cube_agree"] / cube_ops if cube_ops else 0.0
            metrics["trace.overhead_s"] = main_run["traced_s"] - main_run["plain_s"]
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / main_run["plain_s"]
            units = per_layer_units()
        else:
            probes = [run_worker(args, work, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
            main_run = run_worker(args, work, deadline, "--ops", str(run_ops(args)),
                                  "--max-seconds", repr(MAX_SECONDS_FACTOR * args.seconds))
            # the main worker's setup is scaled by the kernel's time in its run
            probes.append(main_run)
            metrics = {
                "setup_s": statistics.median(scaled(p["setup_s"], p["calib_s"]) for p in probes),
                "throughput_ops_s": main_run["ops"] / scaled(main_run["wall_s"], main_run["calib_s"]),
                "op_p50_ms": main_run["op_p50_k"] * CALIBRATION_REF_S * 1e3,
                "op_p90_ms": main_run["op_p90_k"] * CALIBRATION_REF_S * 1e3,
                "ok_frac": 1.0 - main_run["failed"] / main_run["ops"],
                "peak_rss_mb": main_run["peak_rss_mb"],
            }
            units = E2E_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    workload = WORKLOADS[args.workload]
    info = {
        "workload": args.workload,
        "why": workload.why,
        "bypasses": workload.bypasses,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        **main_run["versions"],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "ops": main_run["ops"],
        "failed": main_run["failed"],
        "failed_frac": main_run["failed"] / main_run["ops"],
        "repeat_share": main_run["repeat_share"],
        "pinned_ops": main_run["pinned_ops"],
        "reference_checks": main_run["reference_checks"],
    }
    if not args.trace:
        info["truncated"] = main_run["truncated"]
        info["raw"] = {
            "setup_samples_s": [p["setup_s"] for p in probes],
            "calib_samples_s": [p["calib_s"] for p in probes],
            "calibrations": main_run["calibrations"],
            "throughput_ops_s": main_run["ops"] / main_run["wall_s"],
            "op_p50_ms": main_run["op_p50_ms"],
            "op_p90_ms": main_run["op_p90_ms"],
        }
    for failure in main_run["failures"]:
        print("failure", json.dumps(failure, sort_keys=True))
    print("info", json.dumps(info, sort_keys=True))
    result = {
        "correct": main_run["wrong"] == 0,
        "attempted": main_run["ops"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "failures": main_run["failures"], "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
