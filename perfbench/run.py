"""Pipeline benchmark for ngontower: construct-65537, stored-65537, sweep-small.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
Run from the root of a source checkout; the program is imported from src/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1.  A summary goes to
standard error, and results and traces are kept under perfbench/out/.
See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import monotonic

import checks
from workloads import EXPECTED_LAYERS, WORKLOADS, op_commands, op_count, setup_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Interpreter start and imports are timed in this many fresh processes.
SETUP_RUNS = 3
# A run must end within 180 s; past this the workload process is killed.
RUN_DEADLINE_S = 170
WORKER_ENV = {
    # PartRef hashes contain a str, so string hashing is fixed per process.
    "PYTHONHASHSEED": "0",
    # Every set-up compiles the program's modules, whether or not an earlier
    # run left bytecode behind.
    "PYTHONDONTWRITEBYTECODE": "1",
    # One thread: no BLAS or OpenMP pools beside the interpreter.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "geom_steps": "count"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(arg: str, deadline: float) -> tuple[float, dict]:
    """Run worker.py to its end.  Returns the monotonic time just before it
    started and the JSON line it printed."""
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    start = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), arg],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        # The group holds the worker and the command it has forked.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload process passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    return start, json.loads(out.decode().splitlines()[-1])


def _plan(workload, seed, run_dir, ops, traced):
    """Set-up commands, and the operations as (commands, traced) pairs.  A
    traced run times each operation untraced and then traced, back to back,
    which gives the tracing overhead as paired differences."""
    setup = setup_commands(workload, seed, run_dir)
    for j, cmd in enumerate(setup):
        cmd.log = str(run_dir / f"setup-{j:02d}-{cmd.kind}.log")
    plan = []
    for i in range(ops):
        op_dir = run_dir / f"op{i:03d}"
        op_dir.mkdir(parents=True)
        cmds = op_commands(workload, seed, run_dir, op_dir)
        for j, cmd in enumerate(cmds):
            cmd.log = str(op_dir / f"{j:02d}-{cmd.kind}.log")
        plan += [(cmds, False), (cmds, True)] if traced else [(cmds, False)]
    return setup, plan


def _set_up_and_run(run_dir, setup, plan, deadline):
    """Set-up time is interpreter start and imports, the median of SETUP_RUNS
    fresh processes, plus the workload process's input preparation, which
    runs once.  Returns (setup_s, import samples, the worker's result)."""
    import_s = []
    for _ in range(SETUP_RUNS - 1):
        start, done = _worker("--imports-only", deadline)
        import_s.append(done["imported"] - start)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(
        json.dumps(
            {
                "setup": [asdict(c) for c in setup],
                "ops": [{"commands": [asdict(c) for c in cmds], "traced": t} for cmds, t in plan],
            }
        )
    )
    start, result = _worker(str(plan_path), deadline)
    import_s.append(result["imported"] - start)
    if any(result["setup_codes"]):
        raise BenchError(f"set-up failed, exit codes {result['setup_codes']}")
    return median(import_s) + result["ready"] - result["imported"], import_s, result


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run: set-up, the timed operations, then the output checks."""
    deadline = monotonic() + RUN_DEADLINE_S
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup, plan = _plan(workload, seed, run_dir, op_count(workload, seconds), traced)
        setup_s, import_s, result = _set_up_and_run(run_dir, setup, plan, deadline)
        report = summarize(workload, setup, plan, setup_s, result, checks.Checker())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if traced:
        _write_trace(workload, seed, plan, result)
    _save(workload, seed, traced, report, import_s, result)
    return report


def summarize(workload, setup, plan, setup_s, result, checker) -> dict:
    """The run's report from the worker's result.  Checks the outputs of
    every operation that did not fail.  No command of any workload is
    expected to fail, so a failed operation makes the run incorrect, and a
    metric with no operation to measure it is an error, never a 0."""
    problems = []
    try:
        for cmd in setup:
            checker.command(cmd)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    ok, geom_steps = [], []
    for (cmds, _), op in zip(plan, result["ops"]):
        if any(op["codes"]):
            problems.append(f"operation failed, exit codes {op['codes']}")
            continue
        ok.append(op)
        try:
            geom_steps.append(sum(checker.command(cmd) for cmd in cmds))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    if not geom_steps:
        raise BenchError(f"no operation ran and passed its checks: {problems}")
    for line in problems:
        print(f"{workload}: FAILED: {line}", file=sys.stderr)
    if any(t for _, t in plan):
        metrics = _layer_metrics(workload, result)
    else:
        values = {
            "setup_s": setup_s,
            "op_s": median(op["seconds"] for op in ok),
            "peak_rss_mb": median(op["peak_kib"] / 1024 for op in ok),
            "geom_steps": median(geom_steps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": not problems,
        "attempted": len(result["ops"]),
        "failed": len(result["ops"]) - len(ok),
        "metrics": metrics,
    }


def _layer_metrics(workload, result):
    """Medians over the traced operations.  The overhead is the median of
    traced less untraced time over the back-to-back pairs."""
    import layers

    ops = result["ops"]
    pairs = [(u, t) for u, t in zip(ops[::2], ops[1::2]) if not any(u["codes"] + t["codes"])]
    if not pairs:
        raise BenchError("no traced operation succeeded with its untraced twin")
    metrics = {}
    for name in layers.LAYER_METRICS:
        if not name.startswith("trace."):
            metrics[name] = median(t["layers"][name] for _, t in pairs)
    metrics["trace.overhead_s"] = median(t["seconds"] - u["seconds"] for u, t in pairs)
    spans = median(sum(len(tr["spans"]) for tr in t["traces"]) for _, t in pairs)
    metrics["trace.span_cost_s"] = spans * result["wrapped_call_s"]
    calls = layers.calls_by_layer(metrics)
    missing = sorted(name for name in EXPECTED_LAYERS[workload] if not calls[name])
    for name in missing:
        print(f"{workload}: layer {name} recorded no calls; its entry point may have moved", file=sys.stderr)
    metrics["trace.missing_layers"] = len(missing)
    return {k: {"value": v, "unit": layers.unit(k)} for k, v in metrics.items()}


def _write_trace(workload, seed, plan, result):
    """Spans of the traced operations, as [name, start, end, parent]."""
    traced = []
    for (cmds, _), op in zip(plan, result["ops"]):
        if "traces" in op:
            traced.append([{"argv": c.argv, **t} for c, t in zip(cmds, op["traces"])])
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "operations": traced}))


def _save(workload, seed, traced, report, import_s, result):
    import mpmath
    import numpy

    traces = [tr for op in result["ops"] for tr in op.get("traces", ())]
    saved = {
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "report": report,
        "import_s": import_s,
        "prepare_s": result["ready"] - result["imported"],
        "op_s": [op["seconds"] for op in result["ops"]],
        "oracle_backend": result["oracle_backend"],
        "unresolved_targets": sorted({t for tr in traces for t in tr["unresolved"]}),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": f"{_cpu_model()}, {os.cpu_count()} CPUs, {platform.platform()}",
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(saved, indent=1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _summary(workload, report):
    print(
        f"{workload}: attempted {report['attempted']}, failed {report['failed']}, "
        f"correct {report['correct']}",
        file=sys.stderr,
    )
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ngontower" / "cli.py").is_file():
        print(f"error: no ngontower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The checks import the program too; no bytecode they leave may spare a
    # later set-up its compiling.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _summary(name, report)
        reports.append(report)
    for name, report in zip(names, reports):
        line = report if len(names) == 1 else {"workload": name, **report}
        print(json.dumps(line))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
