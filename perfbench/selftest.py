"""Self-test of the benchmark itself (not of the program).

Run from the repository root: ``python3 perfbench/selftest.py``
(about three minutes).  It checks that

1. every traced target is patched at its definition and at every
   ``repro.*`` site that bound it by name (module globals and default
   arguments), so no call can bypass its span;
2. each workload's traced run reaches the layer it exists to stress
   (``sim.kernel`` on fig1_wide, ``sim.fast`` on fig1_narrow,
   ``sim.engine`` on small_batch, ``serve.store`` on serve_jobs), its
   per-layer self times plus the root's self time add up to the traced
   wall, and two traced runs on one seed give identical counts;
3. a wrong pinned digest makes the error rate non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Counts that must repeat exactly across traced runs on one seed
#: (status polls and state loads depend on timing and are left out).
DETERMINISTIC = (
    "sim.kernel.calls", "sim.kernel.trials", "sim.kernel.overflow_trials",
    "sim.fast.calls", "sim.sampler.values", "sim.sampler.extend_calls",
    "sim.engine.trials", "api.compile.trials_kernel",
    "api.compile.trials_fast", "api.compile.trials_event",
    "seedhash.calls", "api.sweep.cells", "serve.store.puts",
    "serve.store.bytes_written", "serve.executor.chunks_computed",
    "serve.executor.chunks_adopted",
)


def bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          *args], capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_patch_coverage() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import importlib

    import tracer as tracing

    tracing._import_all()
    originals = {}
    for targets in tracing.LAYERS.values():
        for module_name, attr, _hook in targets:
            if "." not in attr:
                module = importlib.import_module(module_name)
                originals[f"{module_name}.{attr}"] = getattr(module, attr)
    sites = tracing.install(tracing.Tracer())
    missing = [target for target, where in sites.items() if not where]
    assert not missing, f"targets patched nowhere: {missing}"
    for name, mod in tracing._repro_modules():
        for key, value in vars(mod).items():
            for target, original in originals.items():
                assert value is not original, \
                    f"{name}.{key} still binds untraced {target}"
    print(f"ok: {len(sites)} targets patched at "
          f"{sum(len(v) for v in sites.values())} sites")


def check_traced_runs() -> None:
    for workload in ("fig1_wide", "fig1_narrow", "small_batch",
                     "serve_jobs"):
        runs = [bench("--workload", workload, "--seed", "7", "--trace", "1")
                for _ in range(2)]
        for line in runs:
            assert line["correct"] and line["failed"] == 0, line
            metrics = {k: v["value"] for k, v in line["metrics"].items()}
            total = sum(value for name, value in metrics.items()
                        if name.endswith(".self_s"))
            total += metrics["trace.root_self_s"]
            assert abs(total - metrics["trace.wall_s"]) < 1e-6 * max(
                1.0, metrics["trace.wall_s"]), (workload, total, metrics)
        first, second = ({k: line["metrics"][k]["value"]
                          for k in DETERMINISTIC} for line in runs)
        assert first == second, (workload, first, second)
        print(f"ok: {workload} traced twice, counts identical, self "
              "times sum to the traced wall")


def check_wrong_pin_fails() -> None:
    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)
    digest = pins["fig1_narrow"]["frames"]
    pins["fig1_narrow"]["frames"] = ("0" if digest[0] != "0" else "1") + \
        digest[1:]
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    wrong = os.path.join(out_dir, "wrong-pins.json")
    with open(wrong, "w") as handle:
        json.dump(pins, handle)
    try:
        line = bench("--workload", "fig1_narrow", "--seconds", "1",
                     "--pins", wrong)
    finally:
        os.unlink(wrong)
    assert not line["correct"] and line["failed"] > 0, line
    print(f"ok: a wrong pinned digest fails {line['failed']} of "
          f"{line['attempted']} operations")


def main() -> int:
    check_patch_coverage()
    check_wrong_pin_fails()
    check_traced_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
