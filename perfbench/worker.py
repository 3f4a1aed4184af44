"""Load generator: runs one workload's passes in a BLAS-pinned process.

Usage: python3 perfbench/worker.py <workload> <seed> <seconds> <trace> <workdir>

Started by run.py with the thread pins and ``PYTHONPATH`` already set. One
pass runs every scenario of the workload once, one at a time, each writing
its outputs under ``<workdir>/pass_NNN``; the reference kernel is timed
before the first scenario and after each one, outside the timed spans (see
reference.py). Passes repeat until the next one would end after ``seconds``
(at least one runs). With trace 1 each repeat is a pair: an untraced pass,
then a traced one. Prints one JSON line with the pass timings; the outputs
are checked afterwards by run.py.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.cli = workload in workloads.CLI_WORKLOADS
        self.scenarios = workloads.scenarios(workload, seed)
        self.configs = [] if self.cli else \
            [workloads.resolve(workload, s) for s in self.scenarios]
        self.count = 0

    def run_pass(self, traced: bool) -> dict:
        """Run every scenario once; returns timings and any errors."""
        out = self.workdir / f"pass_{self.count:03d}"
        self.count += 1
        out.mkdir(parents=True)
        tracer = tracing.Tracer() if traced else None
        tracing.assert_unwrapped()
        latencies, errors = [], {}
        kernel_s = [reference.sample(8)]
        try:
            if traced and not self.cli:
                tracer.install()
            for i, scenario in enumerate(self.scenarios):
                t0 = time.perf_counter()
                if self.cli:
                    error = self._run_cli(scenario.id, out, tracer)
                else:
                    error = self._run_inprocess(self.configs[i], out, tracer)
                latencies.append(time.perf_counter() - t0)
                if error:
                    errors[scenario.id] = error
                # outside the timed spans; longer after longer scenarios, so
                # that each scale averages over more of the speed's jitter
                kernel_s.append(reference.sample(
                    max(2, round(0.08 * latencies[-1] / reference.NOMINAL_S))))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracing.assert_unwrapped()
        wall = sum(latencies)
        result = {"dir": out.name, "traced": traced, "wall_s": wall,
                  "scenario_s": latencies, "kernel_s": kernel_s,
                  "errors": errors}
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, wall)
            result["self_s"] = dict(tracer.self_s)
            result["absent"] = tracer.absent
            result["counts"] = dict(tracer.counts)
            result["spans"] = tracer.spans
        return result

    def _run_inprocess(self, cfg, out: Path, tracer) -> str | None:
        import ptdimer.scenarios

        cfg = replace(cfg, directory=str(out))
        try:
            if tracer is None:
                ptdimer.scenarios.run_scenario(cfg)
            else:
                with tracer.span("scenarios", cfg.scenario):
                    ptdimer.scenarios.run_scenario(cfg)
        except Exception:  # the pass goes on; run.py counts the failed runs
            return traceback.format_exc()
        return None

    def _run_cli(self, scenario_id: str, out: Path, tracer) -> str | None:
        args = ["run", "--scenario", scenario_id, "--svg", "--out", str(out)]
        summary = out / f"{scenario_id}.trace.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "ptdimer", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(summary),
                   *args]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()}"
        if tracer is not None:
            tracer.merge(json.loads(summary.read_text(encoding="utf-8")))
            summary.unlink()
        return None


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seconds = float(seconds)
    import ptdimer

    src = HERE.parent / "src"
    if Path(ptdimer.__file__).resolve().parent != src / "ptdimer":
        print(f"imported ptdimer from {ptdimer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    runner = Runner(workload, int(seed), Path(workdir))
    modes = (False, True) if trace == "1" else (False,)
    passes = []
    repeat_s = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in modes:
            passes.append(runner.run_pass(traced))
        repeat_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(repeat_s) > seconds:
            break
    usage = resource.RUSAGE_CHILDREN if runner.cli else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(usage).ru_maxrss
    print(json.dumps({"environment": _environment(), "passes": passes,
                      "peak_rss_mb": peak_kib * 1024 / 1e6,
                      "order": [s.id for s in runner.scenarios]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
