"""The process that does a workload's work (spawned by ``run.py``).

Protocol: the worker imports the program from ``<cwd>/src``, runs the
workload's warm-up cell and prints ``ready``; with ``--role setup`` it
then exits (``run.py`` times launch-to-ready).  With ``--role run`` it
runs the timed loop (or, with ``--trace 1``, a fixed number of
operations untraced and then traced), checks the outputs, and prints
one ``RESULT <json>`` line last.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

from hostspeed import on_cpu, reference_seconds


def _import_program(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"no program source at {src}/repro")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--pins", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--emit-pins", action="store_true")
    parser.add_argument("--server-cpu", type=int, default=None,
                        help="CPU the serve server and its reference "
                             "routine run on")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the finally blocks that stop the server
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    root = os.getcwd()
    _import_program(root)

    from workloads import WORKLOADS  # noqa: E402 - needs the program path

    workload = WORKLOADS[args.workload]()
    workload.warm()
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    runner = Runner(workload, args, root)
    try:
        result = (runner.emit_pins() if args.emit_pins
                  else runner.traced() if args.trace
                  else runner.timed())
    finally:
        runner.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


class Runner:
    """Runs one workload's operations and checks them."""

    #: Untraced server spawns per run, besides the one that serves.
    SERVER_SETUPS = 6

    def __init__(self, workload, args, root: str) -> None:
        from workloads import DEFAULT_SEED

        self.workload = workload
        self.args = args
        self.root = root
        self.serve = workload.name == "serve_jobs"
        # the serve work runs in the server, so its reference runs there
        self.ref_cpu = args.server_cpu if self.serve else None
        self.server = None
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        # span dumps outlive the run's scratch directory
        self.out_dir = os.path.dirname(os.path.abspath(args.scratch))
        with open(args.pins) as handle:
            pins = json.load(handle)
        self.pins = pins.get(workload.name) \
            if args.seed == DEFAULT_SEED else None

    # -- serve plumbing ----------------------------------------------------

    def _start_server(self, traced_out=None, fixed_malloc=False):
        from workloads import Server

        launcher = (os.path.join(os.path.dirname(os.path.abspath(
            __file__)), "serve_launcher.py") if traced_out else None)
        with on_cpu(self.ref_cpu):
            server = Server(self.root, self.args.scratch, launcher=launcher,
                            trace_out=traced_out, fixed_malloc=fixed_malloc)
        self.server = server
        self.workload.attach(server)
        return server

    def _stop_server(self) -> float:
        rss = self.server.peak_rss_mb()
        self.server.close()
        self.server = None
        return rss

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def _reference(self) -> float:
        if self.args.trace:
            return 0.0  # traced runs report raw times only
        with on_cpu(self.ref_cpu):
            return reference_seconds()

    def _serve_setups(self) -> None:
        """``setup_s`` samples as ``[wall, mean reference time]``."""
        from workloads import Server

        for index in range(self.SERVER_SETUPS + 1):
            before = self._reference()
            if index < self.SERVER_SETUPS:
                with on_cpu(self.ref_cpu):
                    server = Server(self.root, self.args.scratch)
                server.close()
            else:
                server = self._start_server()
            self.setup_s.append(
                [server.setup_s, (before + self._reference()) / 2.0])

    # -- operations --------------------------------------------------------

    def _run_op(self, index: int):
        from workloads import op_seed

        before = self._reference()
        try:
            result = self.workload.op(op_seed(self.args.seed, index))
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self.attempted += self.workload.cells
            self.failed += self.workload.cells
            self.notes.append(f"op {index} raised {type(exc).__name__}: "
                              f"{exc}")
            return None
        result.reference_s = (before + self._reference()) / 2.0
        return result

    def _check(self, index: int, result) -> None:
        self.attempted += result.cells
        pins = self.pins if index == 0 else None
        try:
            bad = self.workload.check(result, pins)
        except Exception as exc:  # noqa: BLE001 - a failed check
            bad = result.cells
            self.notes.append(f"check {index} raised {type(exc).__name__}: "
                              f"{exc}")
        result.outputs = None  # keep memory flat across the run
        if bad:
            self.notes.append(f"op {index}: {bad} of {result.cells} failed "
                              "the output check")
        self.failed += bad

    def _oracle(self) -> None:
        """Differential oracle on a seeded sample of cells (untimed)."""
        import numpy as np
        from repro.sim.differential import run_differential

        rng = np.random.default_rng([self.args.seed, 1])
        for spec in self.workload.oracle_specs(rng,
                                               self.workload.oracle_cells):
            self.attempted += 1
            seed = int(rng.integers(2**31))
            try:
                ok = run_differential(spec, seed=seed).ok
            except Exception as exc:  # noqa: BLE001 - a failed check
                ok = False
                self.notes.append(f"oracle raised {type(exc).__name__}")
            if not ok:
                self.failed += 1
                self.notes.append(f"oracle mismatch n={spec.n} seed={seed}")

    @staticmethod
    def _own_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _summary(self, ops) -> dict:
        import numpy
        from workloads import POLL_SECONDS

        summary = {"ops": [{"seconds": op.seconds, "trials": op.trials,
                            "cells": op.cells,
                            "reference_s": op.reference_s, **op.latencies}
                           for op in ops],
                   "attempted": self.attempted, "failed": self.failed,
                   "notes": self.notes, "setup_s": self.setup_s,
                   "numpy": numpy.__version__}
        if self.serve:
            summary["poll_s"] = POLL_SECONDS
        return summary

    # -- modes -------------------------------------------------------------

    def timed(self) -> dict:
        """Operations until they add up to ``--seconds``.

        The checks between operations do not count towards it, so that
        a workload with costly checks (serve) still measures
        ``--seconds`` of work; a run whose operations keep failing stops
        after twice that much wall time."""
        if self.serve:
            self._serve_setups()
        ops = []
        start = time.perf_counter()
        measured = 0.0
        index = 0
        while True:
            result = self._run_op(index)
            if result is not None:
                ops.append(result)
                measured += result.seconds
                self._check(index, result)
            index += 1
            if (measured >= self.args.seconds or time.perf_counter() - start
                    >= 2 * self.args.seconds):
                break
        if self.serve:
            default_rss = self._stop_server()
            rss = self._serve_rss_probe(index)
            self.notes.append(f"serve peak RSS with the default malloc "
                              f"settings: {default_rss:.1f} MB")
        else:
            rss = self._own_rss_mb()
        self._oracle()
        summary = self._summary(ops)
        summary["peak_rss_mb"] = rss
        return summary

    def _serve_rss_probe(self, index: int) -> float:
        """Peak RSS of a fresh server with fixed malloc settings that
        runs one more iteration (untimed, checked like the others)."""
        self._start_server(fixed_malloc=True)
        result = self._run_op(index)
        if result is not None:
            self._check(index, result)
        return self._stop_server()

    def traced(self) -> dict:
        """Fixed operations untraced, then the same operations traced."""
        import tracer as tracing

        count = self.workload.trace_ops
        if self.serve:
            self._start_server()
        untraced = [self._run_op(index) for index in range(count)]
        if self.serve:
            self._stop_server()
        for index, result in enumerate(untraced):
            if result is not None:
                self._check(index, result)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        server_dump = None
        if self.serve:
            server_dump = os.path.join(
                self.out_dir, f"trace-{self.workload.name}-server.jsonl")
            self._start_server(traced_out=server_dump)
        tracer.start()
        traced = []
        for index in range(count):
            tracer.set_tag(f"op-{index}")
            traced.append(self._run_op(index))
        tracer.stop()
        if self.serve:
            self._stop_server()
        for index, result in enumerate(traced):
            if result is not None:
                self._check(index, result)
        ok_ops = [op for op in untraced if op is not None]
        summary = self._summary(ok_ops)
        summary["layers"] = layer_metrics(
            tracer, tracing.load_dump(server_dump) if server_dump else None,
            untraced=[op for op in untraced if op is not None],
            traced=[op for op in traced if op is not None])
        if summary["layers"]["trace.hook_errors"]:
            self.notes.append("a counter hook raised; counts are incomplete")
        # a missed patch must not read as 0 s
        expected = self.workload.expected_layer
        fired = summary["layers"][f"{expected}.self_s"] > 0
        summary["expected_layer"] = {
            "layer": expected, "fired": fired,
            "clean": fired and not summary["layers"]["trace.hook_errors"]}
        if not fired:
            self.notes.append(f"expected span {expected} never fired")
        span_out = os.path.join(self.out_dir,
                                f"trace-{self.workload.name}.jsonl")
        tracer.dump(span_out)
        summary["spans_files"] = [
            os.path.relpath(path, self.root)
            for path in (span_out, server_dump) if path]
        return summary

    def emit_pins(self) -> dict:
        """Digests of operation 0 at the current seed (for pins.json)."""
        if self.serve:
            self._start_server()
        result = self._run_op(0)
        if result is None:
            raise SystemExit("; ".join(self.notes))
        return {"pins": {self.workload.name: self.workload.digests(result)}}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, server, untraced, traced) -> dict:
    """Per-layer metrics of one traced run (client + optional server)."""
    import tracer as tracing

    self_s, calls, root_self = tracer.layer_times()
    counts = dict(tracer.counts)
    wall = tracer.root_wall()
    queue_waits = tracer.queue_waits()
    if server is not None:
        for layer, seconds in server["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for layer, n in server["calls"].items():
            calls[layer] = calls.get(layer, 0) + n
        for key, value in server["counts"].items():
            counts[key] = counts.get(key, 0) + value
        root_self += server["root_self_s"]
        wall += server["root_wall_s"]
        queue_waits += server["queue_wait_s"]

    def count(key):
        return counts.get(key, 0)

    kernel_trials = count("sim.kernel.trials")
    out = {
        "sim.kernel.calls": calls.get("sim.kernel", 0),
        "sim.kernel.trials": kernel_trials,
        "sim.kernel.overflow_trials": count("sim.kernel.overflow_trials"),
        "sim.kernel.useful_frac": (
            1.0 - count("sim.kernel.overflow_trials") / kernel_trials
            if kernel_trials else 0.0),
        "sim.kernel.tensor_mb": count("sim.kernel.tensor_mb"),
        "sim.fast.calls": calls.get("sim.fast", 0),
        "sim.sampler.values": count("sim.sampler.values"),
        "sim.sampler.extend_calls": count("sim.sampler.extend_calls"),
        "sim.engine.trials": calls.get("sim.engine", 0),
        "api.compile.trials_kernel": count("api.compile.trials_kernel"),
        "api.compile.trials_fast": count("api.compile.trials_fast"),
        "api.compile.trials_event": count("api.compile.trials_event"),
        "seedhash.calls": calls.get("seedhash", 0),
        "sim.frame.npz_bytes": count("sim.frame.npz_bytes"),
        "api.sweep.cells": count("api.sweep.cells"),
        "serve.store.puts": count("serve.store.puts"),
        "serve.store.bytes_written": count("serve.store.bytes_written"),
        "serve.store.gets": count("serve.store.gets"),
        "serve.store.bytes_read": count("serve.store.bytes_read"),
        "serve.job.state_saves": count("serve.job.state_saves"),
        "serve.job.state_loads": count("serve.job.state_loads"),
        "serve.executor.chunks_computed": count(
            "serve.executor.chunks_computed"),
        "serve.executor.chunks_adopted": (
            count("serve.executor.chunks_planned")
            - count("serve.executor.chunks_computed")),
        "serve.executor.queue_wait_s": _median(queue_waits),
        "serve.server.requests": count("serve.server.requests"),
        "serve.server.status_polls": count("serve.server.status_polls"),
        **{f"serve.client.{key[:-2]}_p50_s": _median(
            [op.latencies[key] for op in untraced if key in op.latencies])
           for key in ("job_s", "extend_job_s", "fetch_s")},
        "trace.hook_errors": count("trace.hook_errors"),
        "trace.wall_s": wall,
        "trace.root_self_s": root_self,
        "trace.untraced_wall_s": sum(op.seconds for op in untraced),
        "trace.overhead_s": (sum(op.seconds for op in traced)
                             - sum(op.seconds for op in untraced)),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
