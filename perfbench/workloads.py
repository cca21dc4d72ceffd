"""The benchmark's four workloads, driven through the program's public API.

Each workload exposes:

* ``warm()`` — the one warm-up cell that ends set-up;
* ``op(seed)`` — one timed operation, returning an :class:`OpResult`;
* ``check(result, pins)`` — output checks, outside the timed region;
  returns the number of failed operations (cells, or jobs);
* ``oracle_specs(rng, count)`` — a seeded sample of ``oracle_cells``
  cell specs for :func:`repro.sim.differential.run_differential`;
* ``trace_ops`` — operations per traced run (fixed, so counts repeat);
* ``expected_layer`` — the layer a traced run must reach, else the run
  reports ``correct: false``.

Seeds: operation ``i`` of a run with ``--seed s`` uses root seed
``op_seed(s, i)``; at the default seed, operation 0's frames (and the
Figure-1 table) are compared against ``pins.json``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import (
    NoiseSpec,
    NoisyModelSpec,
    SweepAxis,
    SweepSpec,
    TrialSpec,
    run_sweep,
)
from repro.api.spec import ProtocolSpec
import repro.api.sweep as sweep_module
from repro.experiments import figure1
from repro.noise.distributions import figure1_distributions
from repro.serve.client import ServeClient
from repro.serve.server import build_preset_sweep
from repro.sim.frame import ALL_COLUMNS, OBJECT_COLUMNS

DEFAULT_SEED = 2000


def op_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def frames_digest(labelled_frames) -> str:
    """sha256 over every column of every ``(labels, frame)`` pair."""
    digest = hashlib.sha256()
    for labels, frame in labelled_frames:
        digest.update(repr(labels).encode())
        for name in ALL_COLUMNS:
            column = frame.column(name)
            digest.update(name.encode())
            if name in OBJECT_COLUMNS:
                digest.update(repr(column.tolist()).encode())
            else:
                digest.update(column.dtype.str.encode())
                digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def sample_specs(cells, rng: np.random.Generator, count: int) -> list:
    """``count`` distinct cell specs drawn with ``rng``, in grid order."""
    picks = rng.choice(len(cells), size=min(count, len(cells)),
                       replace=False)
    return [cells[int(i)].spec for i in sorted(picks)]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frame_faults(frame, trials: int, n: int, stop_first: bool) -> List[str]:
    """Invariants every correct cell frame satisfies."""
    faults = []
    if len(frame) != trials:
        faults.append(f"{len(frame)} trials, expected {trials}")
    if not np.all(frame.column("n") == n):
        faults.append("wrong n column")
    if not np.all(frame.agreed):
        faults.append("agreement violated")
    if stop_first and not np.all(frame.decided):
        faults.append("a trial stopped without a decision")
    if not stop_first:
        # run to quiescence: every process that did not halt decided
        live = frame.column("n") - frame.column("n_halted")
        if not np.all(frame.column("n_decided") == live):
            faults.append("a live process never decided")
    return faults


@dataclass
class OpResult:
    """One timed operation: latency, work done, and what to check.

    ``outputs`` holds what the checks read (``frames`` as ``[(labels,
    frame)]``, the Figure-1 ``table``, ...); the runner drops it once
    checked.  ``latencies`` holds the parts of ``seconds`` a workload
    times separately (the serve client's job, fetch and extending job).
    ``reference_s`` is the mean reference-routine time measured just
    before and after the operation (see ``hostspeed.py``).
    """

    seconds: float
    trials: int
    cells: int
    outputs: Optional[Dict] = None
    latencies: Dict[str, float] = field(default_factory=dict)
    reference_s: float = 0.0


class _Figure1:
    """Figure-1 points through ``figure1.run`` + ``figure1.format_result``
    (the two calls ``figure1.main`` makes), restricted to a distribution
    subset ``main`` cannot select.  The frames are observed by rebinding
    ``figure1``'s ``run_sweep`` name to a pass-through that keeps each
    result; it resolves ``repro.api.sweep.run_sweep`` per call, so a
    traced run still sees the traced function.
    """

    def __init__(self, ns, trials: int, distributions) -> None:
        every = figure1_distributions()
        self.ns = tuple(ns)
        self.trials = trials
        self.distributions = {name: every[name] for name in distributions}
        self._seen: list = []
        figure1.run_sweep = self._observed_run_sweep

    def _observed_run_sweep(self, *args, **kwargs):
        result = sweep_module.run_sweep(*args, **kwargs)
        self._seen.append(result)
        return result

    @property
    def cells(self) -> int:
        return len(self.ns) * len(self.distributions)

    def warm(self) -> None:
        figure1.run(ns=(10,), trials=8,
                    distributions=dict(list(self.distributions.items())[:1]),
                    seed=1)

    def op(self, seed: int) -> OpResult:
        self._seen.clear()
        start = time.perf_counter()
        result = figure1.run(ns=self.ns, trials=self.trials,
                             distributions=self.distributions, seed=seed)
        table = figure1.format_result(result)
        seconds = time.perf_counter() - start
        (swept,) = self._seen
        frames = [(cell.labels, frame) for cell, frame in swept]
        return OpResult(seconds=seconds, trials=self.trials * self.cells,
                        cells=self.cells,
                        outputs={"frames": frames, "table": table})

    def check(self, result: OpResult, pins: Optional[Dict]) -> int:
        failed = sum(
            1 for labels, frame in result.outputs["frames"]
            if frame_faults(frame, self.trials, int(dict(labels)["n"]),
                            stop_first=True))
        if pins is not None and self.digests(result) != pins:
            failed = result.cells
        return failed

    def digests(self, result: OpResult) -> Dict:
        return {"frames": frames_digest(result.outputs["frames"]),
                "table": text_digest(result.outputs["table"])}

    def oracle_specs(self, rng: np.random.Generator, count: int):
        sweep = figure1.sweep_spec(self.ns, self.trials, self.distributions)
        return sample_specs(sweep.cells(), rng, count)


class Fig1Wide(_Figure1):
    name = "fig1_wide"
    oracle_cells = 1   # about 2.5 s per trial at n = 1000
    trace_ops = 1
    expected_layer = "sim.kernel"

    def __init__(self) -> None:
        super().__init__(ns=(1000,), trials=512,
                         distributions=("exponential(1)",))


class Fig1Narrow(_Figure1):
    name = "fig1_narrow"
    oracle_cells = 4
    trace_ops = 1
    expected_layer = "sim.fast"     # the kernel-overflow fallback

    def __init__(self) -> None:
        super().__init__(ns=(1, 10), trials=2500,
                         distributions=tuple(figure1_distributions()))


class SmallBatch:
    """``run_sweep`` over protocol x halting x n, run to quiescence."""

    name = "small_batch"
    oracle_cells = 2
    trace_ops = 2
    expected_layer = "sim.engine"
    trials = 20

    def __init__(self) -> None:
        base = TrialSpec(n=64, model=NoisyModelSpec(
            noise=NoiseSpec.of("exponential", mean=1.0)))
        self.sweep = SweepSpec(base=base, trials=self.trials, axes=(
            SweepAxis("protocol", (ProtocolSpec("lean"),
                                   ProtocolSpec("optimized")),
                      name="protocol", labels=("lean", "optimized")),
            SweepAxis("failures.h", (0.0, 0.005, 0.02)),
            SweepAxis("n", (64, 256)),
        ))
        self.cells = self.sweep.size

    def warm(self) -> None:
        cell = self.sweep.cells()[0]
        run_sweep(SweepSpec(base=cell.spec, axes=(), trials=2), seed=1)

    def op(self, seed: int) -> OpResult:
        start = time.perf_counter()
        # resolved per call, so a traced run sees the traced function
        result = sweep_module.run_sweep(self.sweep, seed=seed)
        seconds = time.perf_counter() - start
        frames = [(cell.labels, frame) for cell, frame in result]
        return OpResult(seconds=seconds, trials=self.trials * self.cells,
                        cells=self.cells, outputs={"frames": frames})

    def check(self, result: OpResult, pins: Optional[Dict]) -> int:
        failed = 0
        for (labels, frame), cell in zip(result.outputs["frames"],
                                         self.sweep.cells()):
            if frame_faults(frame, self.trials, cell.spec.n,
                            stop_first=False):
                failed += 1
        if pins is not None and self.digests(result) != pins:
            failed = result.cells
        return failed

    def digests(self, result: OpResult) -> Dict:
        return {"frames": frames_digest(result.outputs["frames"])}

    def oracle_specs(self, rng: np.random.Generator, count: int):
        return sample_specs(self.sweep.cells(), rng, count)


# -- serve ------------------------------------------------------------------

#: Fixed client poll interval (s).  The client's 0.5 s default would
#: quantize a job of under a second.  Each status poll costs the server
#: about 4 ms under its GIL: polling every 20 ms made the cold job about
#: 15 % slower than polling every 100 ms, so 50 ms bounds both effects.
POLL_SECONDS = 0.05
CHUNK_SIZE = 256
SERVE_TRIALS = 1024            # four chunks per cell
SERVE_NS = (10, 100)
COLD = ("exponential(1)",)
EXTENDED = ("exponential(1)", "uniform [0,2]")


def serve_body(distributions, seed: int) -> Dict:
    return {"preset": {"name": "figure1", "ns": list(SERVE_NS),
                       "trials": SERVE_TRIALS,
                       "distributions": list(distributions)},
            "seed": seed, "chunk_size": CHUNK_SIZE}


class Server:
    """One ``repro serve`` subprocess on a fresh temporary store.

    ``launcher=None`` runs the user-facing CLI (``python -m repro serve
    serve``); otherwise ``launcher`` is a script taking ``--store`` and
    ``--trace-out`` (the traced run's launcher).  ``setup_s`` is the
    time from spawning the process to the first ``/healthz`` 200.

    The server runs in the caller's environment unless ``fixed_malloc``
    is set.  Then glibc's malloc is pinned to one arena and a fixed mmap
    threshold, so that peak RSS measures the work: by default the request
    and job threads touch a scheduling-dependent number of arenas, and
    the dynamic mmap threshold moves large arrays onto the heap after the
    first free; the same work then peaked at 56, 65, 68 or 80 MB from
    run to run.  Only the peak-RSS probe uses it.
    """

    def __init__(self, root: str, scratch: str,
                 launcher: Optional[str] = None,
                 trace_out: Optional[str] = None,
                 fixed_malloc: bool = False) -> None:
        self.store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        if fixed_malloc:
            env.update(MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
        if launcher is None:
            argv = [sys.executable, "-m", "repro", "serve", "serve",
                    "--store", self.store, "--port", "0"]
        else:
            argv = [sys.executable, launcher, "--store", self.store,
                    "--trace-out", trace_out]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env,
                                     cwd=root, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            self._await_health()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """SIGTERM, wait for exit, delete the store."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


class ServeJobs:
    """Closed loop, one client: cold job, fetch its frames, then the job
    extended by one distribution (adopting the cold job's chunks), fetch
    its frames."""

    name = "serve_jobs"
    oracle_cells = 2
    trace_ops = 2
    expected_layer = "serve.store"

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.client: Optional[ServeClient] = None
        self.cells = 2          # operations per iteration: two jobs

    def attach(self, server: Server) -> None:
        self.server = server
        self.client = ServeClient(server.url, timeout=120.0)

    def warm(self) -> None:
        pass  # set-up is the server's spawn-to-healthy time

    def _run_job(self, body: Dict):
        """Submit and poll to a terminal state: (job id, final state)."""
        submitted = self.client.submit(body)
        status = self.client.wait(submitted["job_id"],
                                  interval=POLL_SECONDS, timeout=120)
        return submitted["job_id"], status.get("state")

    def op(self, seed: int) -> OpResult:
        start = time.perf_counter()
        cold_id, cold_state = self._run_job(serve_body(COLD, seed))
        done_cold = time.perf_counter()
        frames = self.client.result_frames(cold_id)
        fetched = time.perf_counter()
        ext_id, ext_state = self._run_job(serve_body(EXTENDED, seed))
        done_ext = time.perf_counter()
        extended = self.client.result_frames(ext_id)
        end = time.perf_counter()
        return OpResult(
            seconds=end - start,
            trials=SERVE_TRIALS * len(SERVE_NS) * len(EXTENDED),
            cells=2,
            outputs={"seed": seed, "frames": frames, "extended": extended,
                     "states": [cold_state, ext_state]},
            latencies={"job_s": done_cold - start,
                       "fetch_s": fetched - done_cold,
                       "extend_job_s": done_ext - fetched})

    def check(self, result: OpResult, pins: Optional[Dict]) -> int:
        """Both jobs ``done``; the extending job's frames equal in-process
        ``run_sweep`` on the same sweep and seed, and start with the cold
        job's frames (the adopted chunks)."""
        out = result.outputs
        failed = sum(1 for state in out["states"] if state != "done")
        local = run_sweep(
            build_preset_sweep(serve_body(EXTENDED, out["seed"])["preset"]),
            seed=out["seed"])
        fetched = [frame for _labels, frame in out["extended"]]
        cold = [frame for _labels, frame in out["frames"]]
        if fetched != local.frames or cold != fetched[:len(cold)]:
            failed = 2
        if pins is not None and self.digests(result) != pins:
            failed = 2
        return failed

    def digests(self, result: OpResult) -> Dict:
        return {"frames": frames_digest(result.outputs["frames"]),
                "extended_frames": frames_digest(result.outputs["extended"])}

    def oracle_specs(self, rng: np.random.Generator, count: int):
        sweep = build_preset_sweep(serve_body(EXTENDED, 0)["preset"])
        return sample_specs(sweep.cells(), rng, count)


WORKLOADS = {cls.name: cls for cls in (Fig1Wide, Fig1Narrow, SmallBatch,
                                       ServeJobs)}
