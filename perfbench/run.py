"""The repository benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload fig1_narrow --seed 1 --seconds 20 \
        --trace 0

Workloads: ``fig1_wide``, ``fig1_narrow``, ``small_batch`` and
``serve_jobs``, as ``BENCHMARK.json`` lists them (see
``perfbench/README.md``).
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, measured with tracing off; with ``--trace 1`` it
carries the per-layer metrics of a separate traced run.  The lines
before it are a human-readable report (host facts, every metric with
its unit, sample counts, and the error rate).

Set-up is timed several times per run, each in a fresh process: for the
sweep workloads from launching a worker to its ``ready`` line (imports
plus one warm-up cell); for ``serve_jobs`` from spawning the server to
its first ``/healthz`` 200.  Every timed interval is bracketed by the
reference routine of ``hostspeed.py`` on the same CPU and reported
scaled to the reference host speed; the report lines keep the raw wall
times.  The program is imported from ``./src``; a checkout without it
makes the benchmark fail with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1_wide", "fig1_narrow", "small_batch", "serve_jobs")
DEFAULT_SEED = 2000
#: Worker processes launched only to time set-up (the measured run's own
#: launch is one more sample).
SETUP_LAUNCHES = 6


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _proc_stat():
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)          # steal, total jiffies


def host_facts(before, after) -> dict:
    steal = after[0] - before[0]
    total = after[1] - before[1]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg()),
            "cpu_steal_frac": steal / total if total else 0.0}


def launch_worker(args, role: str, scratch: str, started: list):
    """Start a worker; returns (process, seconds from launch to ready).

    The process is appended to ``started`` so that ``run`` can stop it
    whatever happens."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--role", role, "--pins", args.pins, "--scratch", scratch]
    if args.server_cpu is not None:
        argv += ["--server-cpu", str(args.server_cpu)]
    if args.emit_pins:
        argv.append("--emit-pins")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        raise BenchError(f"worker did not get ready (exit {proc.wait()})")
    return proc, ready


def stop(proc) -> None:
    """SIGTERM (the worker then stops its server), wait, SIGKILL if stuck."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout and not proc.stdout.closed:
        proc.stdout.close()


def finish_worker(proc) -> dict:
    result = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    code = proc.wait()
    if code != 0 or result is None:
        raise BenchError(f"worker failed (exit {code})")
    return result


def finish_setup(proc) -> None:
    proc.stdout.read()
    if proc.wait() != 0:
        raise BenchError("set-up worker failed")


def percentile_report(values) -> str:
    """Median with its sample count, plus p90/p99 only where at least
    ten samples lie beyond the percentile."""
    ordered = sorted(values)
    text = f"p50={statistics.median(ordered):.4f} (n={len(ordered)})"
    for q in (0.99, 0.9):
        if len(ordered) * (1 - q) >= 10:
            index = min(len(ordered) - 1, int(q * len(ordered)))
            text += f" p{int(q * 100)}={ordered[index]:.4f}"
            break
    return text


def scaled(op: dict, key: str) -> float:
    """``op[key]`` seconds at the reference host speed."""
    return hostspeed.normalise(op[key], op["reference_s"])


def end_to_end(workload: str, result: dict, setup_s) -> dict:
    """The end-to-end metrics; times are scaled to the reference host
    speed (``hostspeed.py``).  ``trials_per_s`` is trials completed over
    the timed seconds, scaled by the run's mean reference time; the
    latencies are medians of per-operation scaled times."""
    ops = result["ops"]
    if not ops:
        raise BenchError("no operation completed")
    latency = "job_s" if workload == "serve_jobs" else "seconds"
    slowdown = (statistics.fmean(op["reference_s"] for op in ops)
                / hostspeed.REFERENCE_S)
    return {
        "trials_per_s": (sum(op["trials"] for op in ops)
                         / sum(op["seconds"] for op in ops) * slowdown),
        "job_p50_s": statistics.median(scaled(op, latency) for op in ops),
        "setup_s": statistics.median(
            hostspeed.normalise(*sample) for sample in setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def with_units(values: dict, declared) -> dict:
    """``values`` as ``{name: {value, unit}}`` in BENCHMARK.json's order;
    every declared metric must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report(args, result, metrics, facts, setup_s) -> None:
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host: " + json.dumps({**facts, "numpy": result["numpy"]}))
    ops = result["ops"]
    # traced runs time no reference routine: wall times only
    normalised = ops and not args.trace
    if normalised:
        print(f"# reference routine s: "
              f"{percentile_report([op['reference_s'] for op in ops])} "
              f"(scale: {hostspeed.REFERENCE_S} s)")
    for key in ("seconds", "job_s", "fetch_s", "extend_job_s"):
        values = [op for op in ops if key in op]
        if values:
            text = (f"# {'operation' if key == 'seconds' else key} wall s: "
                    + percentile_report([op[key] for op in values]))
            if normalised:
                text += "; scaled s: " + percentile_report(
                    [scaled(op, key) for op in values])
            print(text)
    if ops:
        trials = sum(op["trials"] for op in ops)
        wall = sum(op["seconds"] for op in ops)
        print(f"# trials completed / wall seconds: {trials / wall:.2f}")
    if "poll_s" in result:
        print(f"# serve client poll interval: {result['poll_s']} s")
    print(f"# setup_s wall samples: {[round(s[0], 4) for s in setup_s]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# error_rate: {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4f} (fraction)")
    for note in result["notes"]:
        print(f"# note: {note}")
    if "expected_layer" in result:
        print(f"# expected span: {json.dumps(result['expected_layer'])}")
        print(f"# spans: {' '.join(result['spans_files'])}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        raise BenchError(f"no program source under {root}/src; run from "
                         "the repository root")
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    started: list = []
    try:
        before = _proc_stat()
        # setup_s samples: [wall, mean reference time before and after]
        setup_s = []
        if args.workload != "serve_jobs" and not args.emit_pins:
            for _ in range(SETUP_LAUNCHES):
                ref_before = hostspeed.reference_seconds()
                proc, ready = launch_worker(args, "setup", scratch, started)
                finish_setup(proc)
                ref_after = hostspeed.reference_seconds()
                setup_s.append([ready, (ref_before + ref_after) / 2.0])
        ref_before = hostspeed.reference_seconds()
        proc, ready = launch_worker(args, "run", scratch, started)
        # no reference after this launch: the worker keeps this CPU busy
        setup_s.append([ready, ref_before])
        result = finish_worker(proc)
        if args.emit_pins:
            print(json.dumps(result["pins"], indent=1, sort_keys=True))
            return {}
        setup_s = result["setup_s"] or setup_s
        facts = host_facts(before, _proc_stat())
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        if args.trace:
            metrics = with_units(result["layers"], declared["per_layer"])
        else:
            metrics = with_units(end_to_end(args.workload, result, setup_s),
                                 declared["end_to_end"])
        report(args, result, metrics, facts, setup_s)
        correct = result["failed"] == 0 and result.get(
            "expected_layer", {}).get("clean", True)
        line = {"correct": bool(correct), "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}
        with open(os.path.join(out_dir, f"result-{args.workload}-"
                               f"{args.seed}-{args.trace}.json"), "w") as fh:
            json.dump({**line, "host": facts, "setup_s": setup_s,
                       "ops": result["ops"], "notes": result["notes"]}, fh)
        return line
    finally:
        for proc in started:
            stop(proc)
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned digests checked at the default seed")
    parser.add_argument("--emit-pins", action="store_true",
                        help="print operation 0's digests instead of "
                             "benchmarking (to refresh pins.json)")
    args = parser.parse_args(argv)
    # The work, its set-ups and its reference routine share one CPU; the
    # serve server gets another where there is one (workers inherit).
    cpus = hostspeed.cpus()
    args.server_cpu = cpus[-1] if cpus else None
    hostspeed.pin(cpus[0] if cpus else None)
    # SIGTERM unwinds through run()'s finally, which stops the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        line = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if line:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
