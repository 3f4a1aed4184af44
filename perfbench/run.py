"""ptdimer benchmark: end-to-end and per-layer timing of the three engines.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py; LAYERS.md gives why each was chosen
and which layer metric should move which end-to-end metric on which workload.
The run pins BLAS to one thread in every child process, measures set-up in
fresh interpreters, starts worker.py to generate the load, then checks each
engine run's outputs (checks.py). It prints one JSON line with the
environment and details, then, as its last line, the result:
{"correct", "attempted", "failed", "metrics"}. ``attempted`` counts engine
runs and ``failed`` those that failed a check, so fail_rate = failed /
attempted. With --trace 0 the metrics are the end-to-end ones, with times
scaled to a fixed reference machine speed (reference.py; the raw times are in
the detail line); with --trace 1 a separate traced run (tracing.py) gives the
per-layer ones, as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One BLAS thread: the matrices are at most 49 x 49, and the load stays on
# one core whatever the machine's core count.
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _python(script: str, *args, timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run a sibling script in a pinned child; returns its last stdout line."""
    # A process group of its own, so that a timeout also stops its children.
    proc = subprocess.Popen([sys.executable, str(HERE / script), *map(str, args)],
                            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{script} ran longer than {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}:\n{stderr}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{script} printed nothing:\n{stderr}")
    return lines[-1]


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _check(workload: str, seed: int, workdir: Path, passes: list[dict]):
    """Check every engine run of every pass; returns attempted, failures."""
    import checks

    scenarios = workloads.scenarios(workload, seed)
    configs = [workloads.resolve(workload, s) for s in scenarios]
    agreement = workload in workloads.AGREEMENT_WORKLOADS
    attempted, failures = 0, []
    for p in passes:
        out = workdir / p["dir"]
        for scenario, cfg in zip(scenarios, configs):
            attempted += len(cfg.engines)
            error = p["errors"].get(scenario.id)
            if error:
                failures += [f"{p['dir']}/{scenario.id}/{e}: {error}"
                             for e in cfg.engines]
                continue
            for engine, problems in checks.check_scenario(
                    out, cfg, agreement).items():
                if problems:
                    failures.append(f"{p['dir']}/{scenario.id}/{engine}: "
                                    + "; ".join(problems))
    return attempted, failures


def _at_reference(p: dict) -> list[float]:
    """A pass's scenario latencies at the reference speed: each is scaled by
    the kernel times measured just before and just after it."""
    import reference

    k = p["kernel_s"]
    return [s * 2 * reference.NOMINAL_S / (k[i] + k[i + 1])
            for i, s in enumerate(p["scenario_s"])]


def _wall(passes: list[dict]) -> float:
    """Median pass wall time at the reference speed."""
    return statistics.median(sum(_at_reference(p)) for p in passes)


def _end_to_end(timed: list[dict], setup: list[tuple], peak_rss_mb: float):
    return {
        "wall_s": _wall(timed),
        # median over the scenarios of each one's median latency, so that
        # the middle of a mix of short and long scenarios stays put
        "scenario_s_p50": statistics.median(
            statistics.median(latencies)
            for latencies in zip(*map(_at_reference, timed))),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(raw * scale for raw, scale in setup),
    }


def _per_layer(timed: list[dict], traced: list[dict]):
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = _wall(traced) - _wall(timed)
    return values


def _with_units(kind: str, values: dict[str, float]):
    """The metrics BENCHMARK.json declares, in its order, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def _accounting(traced: list[dict]) -> dict:
    """Self time per layer in the median traced pass, plus the remainder."""
    p = sorted(traced, key=lambda q: q["wall_s"])[(len(traced) - 1) // 2]
    return {"wall_s": p["wall_s"], "self_s": p["self_s"],
            "unaccounted_s": p["layers"]["trace.unaccounted_s"],
            "counts": p["counts"], "absent": p["absent"], "spans": p["spans"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "ptdimer" / "__init__.py").is_file():
        print(f"no ptdimer sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)  # before this process loads numpy
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else [
            tuple(map(float, _python("setup_probe.py", args.workload,
                                     args.seed, timeout=30).split()))
            for _ in range(SETUP_PROBES)]
        worker = json.loads(_python(
            "worker.py", args.workload, args.seed, args.seconds, args.trace,
            workdir))
        passes = worker["passes"]
        attempted, failures = _check(args.workload, args.seed, workdir, passes)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = _with_units("per_layer", _per_layer(timed, traced))
    else:
        metrics = _with_units("end_to_end", _end_to_end(
            timed, setup, worker["peak_rss_mb"]))
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(),
        "environment": worker["environment"],
        "scenario_order": worker["order"],
        "timed_passes_raw_s": [p["wall_s"] for p in timed],
        "timed_passes_s": [sum(_at_reference(p)) for p in timed],
        "traced_passes_raw_s": [p["wall_s"] for p in traced],
        "scenario_samples": sum(len(p["scenario_s"]) for p in timed),
        "setup_samples_raw_s_scale": setup,
        "fail_rate": len(failures) / attempted,
        "failures": failures[:10],
    }
    if traced:
        detail["accounting"] = _accounting(traced)
    print(json.dumps({"perfbench": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:.6g} {unit}", file=sys.stderr)
    print(f"{'fail_rate':24s} {len(failures)}/{attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
