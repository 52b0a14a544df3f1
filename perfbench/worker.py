"""The workload process: set-up, then a fixed number of timed operations.

    python3 perfbench/worker.py PLAN.json
    python3 perfbench/worker.py --imports-only

Run by run.py.  Set-up imports every module of the program and runs the
plan's set-up commands; the worker then runs the plan's operations, one at a
time.  It prints one JSON line: the `time.monotonic()` readings taken when
the imports and the set-up were done, and each operation's time, exit codes,
peak RSS and, when traced, spans.  CLOCK_MONOTONIC is one clock for every
process, so run.py subtracts the reading it took before starting this one.
With --imports-only the worker stops after the imports.

Every command runs as `ngontower.cli.main(argv)` in a child forked from the
set-up process, as a fresh `ngontower` process would, but without paying
interpreter start and imports again.  No command, and so no operation, can
be served by state that an earlier one left behind.  A traced command
installs the layer wrappers in its own child, so the set-up process, and
every untraced command, stays unwrapped.
"""

import importlib
import json
import os
import pkgutil
import sys
import traceback
from time import monotonic, perf_counter


def _import_program():
    package = importlib.import_module("ngontower")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"ngontower.{info.name}")
    return sys.modules["ngontower.cli"]


def _oracle_backend() -> str:
    """Which product kernel the oracle used, for as long as there is a choice."""
    kernels = sys.modules.get("ngontower.kernels")
    if kernels is None or not hasattr(kernels, "active_backend"):
        return "single (no ngontower.kernels switch)"
    return kernels.active_backend()


def _child(cli, argv, log, w, traced):
    code = 1
    try:
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        if traced:
            import layers

            start = perf_counter()
            tracer = layers.Tracer()
            layers.install(tracer)
            install_s = perf_counter() - start
        try:
            code = cli.main(argv) or 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except BaseException:  # noqa: BLE001 - report as the CLI would, then exit 1
            traceback.print_exc()
            code = 1
        if traced:
            data = {
                "spans": tracer.spans,
                "counts": tracer.counts,
                "unresolved": tracer.unresolved,
                "install_s": install_s,
            }
            with os.fdopen(w, "w") as fh:
                fh.write(json.dumps(data))
    except BaseException:  # noqa: BLE001 - a fault of the benchmark itself
        traceback.print_exc()
        code = 70
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code & 0xFF)


def run_command(cli, argv, log, traced=False):
    """Fork, run one command, wait.  Returns (exit code, peak RSS in KiB,
    the child's trace as raw JSON bytes, empty when untraced)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _child(cli, argv, log, w, traced)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        raw = fh.read()
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, raw


def run_op(cli, commands, traced):
    start = perf_counter()
    done = [run_command(cli, c["argv"], c["log"], traced) for c in commands]
    seconds = perf_counter() - start
    op = {
        "seconds": seconds,
        "codes": [code for code, _, _ in done],
        "peak_kib": max(kib for _, kib, _ in done),
    }
    if traced:
        import layers

        # A command that died before writing its trace leaves no spans.
        empty = {"spans": [], "counts": {}, "unresolved": [], "install_s": 0.0}
        op["traces"] = [json.loads(raw) if raw else empty for _, _, raw in done]
        op["layers"] = layers.layer_totals(op["traces"], seconds)
    return op


def main(arg):
    cli = _import_program()
    imported = monotonic()
    if arg == "--imports-only":
        print(json.dumps({"imported": imported}), flush=True)
        return 0
    with open(arg) as fh:
        plan = json.load(fh)
    setup_codes = [run_command(cli, c["argv"], c["log"])[0] for c in plan["setup"]]
    ready = monotonic()
    ops = []
    if not any(setup_codes):
        ops = [run_op(cli, op["commands"], op["traced"]) for op in plan["ops"]]
    result = {
        "imported": imported,
        "ready": ready,
        "setup_codes": setup_codes,
        "ops": ops,
        "oracle_backend": _oracle_backend(),
    }
    if any(op["traced"] for op in plan["ops"]):
        import layers

        result["wrapped_call_s"] = layers.wrapped_call_s()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
