"""diffrad benchmark: one workload in one process, closed loop, no threads.

    python3 perfbench/run.py --workload chain-corpus --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; diffrad is imported from ./src.
With --trace 0 it times ops back to back for --seconds (and at least
MIN_OPS ops) and reports the end-to-end metrics; with --trace 1 it replays
the workload's first ops untraced, traced and scalar-counted, and reports
the per-layer metrics.  Every op's result is checked.  The last line of
stdout is the JSON result; details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from calibration import REF_MS, SpeedSampler, calibrate, machine_ms, speed
from spans import SpanRecorder, counting_scalars, layer_metrics
from workloads import PAPER_FIXTURES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100
OP_LIMIT_S = 10.0  # an op running longer is stopped and counted as failed
SETUP_LIMIT_S = 60.0
PROBE_LIMIT_S = 10.0
# Every limit is cut to what is left of RUN_LIMIT_S, counted from the start,
# and the timed loop leaves PROBE_RESERVE_S of it for the probes, so that a
# run ends in bounded time even when diffrad hangs.
RUN_LIMIT_S = 160.0
PROBE_RESERVE_S = 20.0
SETUP_REPEATS = 3
COLD_PROBES = 9
IMPORT_PROBES = 5


class OpTimeout(Exception):
    pass


_deadline = [float("inf")]  # set by main()


def left(limit: float) -> float:
    """`limit`, cut to the time left before the run's deadline."""
    return max(min(limit, _deadline[0] - time.perf_counter()), 0.01)


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise OpTimeout("time limit exceeded")


@contextmanager
def time_limit(seconds: float):
    """SIGALRM raises OpTimeout in the block after `seconds`."""
    _armed[0] = True
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        _armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_call(fn):
    """(result, seconds, error) of fn(), stopped after OP_LIMIT_S."""
    result = err = None
    t0 = time.perf_counter()
    try:
        with time_limit(left(OP_LIMIT_S)):
            result = fn()
    except Exception as exc:  # a raising op is a failed op, the run goes on
        err = exc
    return result, time.perf_counter() - t0, err


def checked(op, result, err) -> str | None:
    """None when the op succeeded, else why it failed."""
    if err is None:
        try:
            if op.check(result):
                return None
            why = "wrong result"
        except Exception as exc:  # a result the check cannot read is wrong
            why = f"unreadable result ({type(exc).__name__}: {exc})"
    else:
        why = f"{type(err).__name__}: {err}"
    return f"{op.kind} {repr(op.inputs)[:160]}: {why}"


# -- set-up -----------------------------------------------------------------------


def import_diffrad():
    """Fresh import of diffrad from ./src; returns the modules as a namespace."""
    for name in [n for n in sys.modules if n == "diffrad" or n.startswith("diffrad.")]:
        del sys.modules[name]
    pkg = importlib.import_module("diffrad")
    if Path(pkg.__file__).resolve().parent != SRC / "diffrad":
        raise RuntimeError(f"diffrad imported from {pkg.__file__}, not {SRC}")
    names = ("scalar", "poly", "diffcalc", "shiftcalc", "casorati", "theorems", "parser", "cli")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"diffrad.{n}") for n in names}
    )


def pin_to_current_cpu() -> int:
    """Keep this process, and the probes it starts, on the CPU it runs on,
    so that the kernel timings calibrate the CPU the timed work ran on."""
    cpus = os.sched_getaffinity(0)
    # field 39 of /proc/self/stat is the CPU last run on
    cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    if cpu not in cpus:
        cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return cpu


def set_up(workload, seed: int, sampler: SpeedSampler):
    """Import, build inputs and warm up, SETUP_REPEATS times; returns the
    last lib and ops, the median calibrated set-up time in seconds and the
    warm-up failures.  A set-up that cannot import diffrad or build its
    inputs raises."""
    def build():
        lib = import_diffrad()
        return lib, workload.build(lib, seed)

    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        built, _, build_s, err = measure(sampler, build, SETUP_LIMIT_S)
        if err is not None:
            raise RuntimeError("set-up failed") from err
        lib, ops = built
        warm = [(op, measure(sampler, op.run, OP_LIMIT_S)) for op in ops[: workload.warmup]]
        times.append(build_s + sum(scaled for _, (_, _, scaled, _) in warm))
        failures = [
            f"warm-up {why}"
            for op, (result, _, _, err) in warm
            if (why := checked(op, result, err))
        ]
        if failures:  # repeating a failing set-up measures nothing
            break
    return lib, ops, statistics.median(times), failures


# -- measurement -------------------------------------------------------------------


def measure(sampler: SpeedSampler, fn, limit: float):
    """(result, raw s, calibrated s, error) of fn() stopped after `limit`
    s, with the kernel sampled inside; raw time excludes the kernel runs."""
    sampler.marks = []
    sampler.mark()
    result = err = None
    start = time.perf_counter()
    try:
        with time_limit(left(limit)):
            sampler.start()
            try:
                result = fn()
            finally:
                sampler.stop()
    except Exception as exc:  # a raising op is a failed op, the run goes on
        err = exc
    end = time.perf_counter()
    sampler.mark()
    return (result, *calibrate(sampler.marks, start, end), err)


def timed_loop(ops, seconds: float, sampler: SpeedSampler, between=None):
    """Closed loop: op i+1 starts when op i has returned.  Runs for
    `seconds` of op time and at least MIN_OPS ops, calling `between(busy)`
    after each op; returns per-op (kind, raw s, calibrated s) and the
    failures."""
    samples, failures = [], []
    busy = 0.0
    i = 0
    while (busy < seconds or len(samples) < MIN_OPS) and left(RUN_LIMIT_S) > PROBE_RESERVE_S:
        op = ops[i % len(ops)]
        results, raw, scaled, err = measure(sampler, op.run, OP_LIMIT_S)
        samples.append((op.kind, raw, scaled))
        busy += raw
        why = checked(op, results, err)
        if why:
            failures.append(why)
        if between:
            between(busy)
        i += 1
    return samples, failures


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(argv: list[str], sampler: SpeedSampler):
    """One fresh interpreter, with a kernel mark right before and after it:
    (process, start, end), or why it failed."""
    sampler.marks = []
    sampler.mark()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=subprocess_env(),
            capture_output=True, text=True, timeout=left(PROBE_LIMIT_S),
        )
    except subprocess.TimeoutExpired:
        return f"probe {argv}: timed out"
    end = time.perf_counter()
    sampler.mark()
    if proc.returncode != 0:
        return f"probe {argv}: exit {proc.returncode}: {proc.stderr[-300:]}"
    return proc, start, end


def cold_verify_paper(sampler: SpeedSampler):
    """Calibrated ms of one fresh `python -m diffrad.cli verify-paper
    --json`, run through cold_probe.py so that the kernel is also sampled
    inside the process; or why it failed."""
    out = probe([str(HERE / "cold_probe.py"), "verify-paper", "--json"], sampler)
    if isinstance(out, str):
        return out
    proc, start, end = out
    inside = [tuple(m) for m in json.loads(proc.stderr.rsplit("marks ", 1)[1])]
    _, scaled = calibrate([sampler.marks[0], *inside, sampler.marks[1]], start, end)
    doc = json.loads(proc.stdout)
    if doc["total"] >= len(PAPER_FIXTURES) and doc["passed"] == doc["total"]:
        return scaled * 1e3
    return f"verify-paper: {doc['passed']}/{doc['total']} passed"


def import_ms(sampler: SpeedSampler):
    """Calibrated ms of `import diffrad` in a fresh interpreter, or why it failed."""
    out = probe(
        ["-c", "import time; t = time.perf_counter(); import diffrad; print(time.perf_counter() - t)"],
        sampler,
    )
    if isinstance(out, str):
        return out
    (a0, a1), (b0, b1) = sampler.marks
    # timed by the child's clock, calibrated by the kernel around it
    return float(out[0].stdout) * 1e3 * speed((a1 - a0) * 1e3, (b1 - b0) * 1e3)


def median_of(results: list):
    """Median of the numbers among `results` and the failure messages."""
    values = [r for r in results if not isinstance(r, str)]
    return (statistics.median(values) if values else float("nan")), [r for r in results if isinstance(r, str)]


def end_to_end(ops, seconds: float, sampler: SpeedSampler):
    """Timed loop with the cold-start probes spread over it, so that they
    sample the same stretches of machine speed as the ops."""
    cold = []

    def probing():  # a failed probe means a broken CLI: stop probing
        return len(cold) < COLD_PROBES and not any(isinstance(c, str) for c in cold)

    def between(busy):
        if probing() and busy >= len(cold) * seconds / COLD_PROBES:
            cold.append(cold_verify_paper(sampler))

    samples, failures = timed_loop(ops, seconds, sampler, between)
    while probing():
        cold.append(cold_verify_paper(sampler))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_ms, probe_failures = median_of(cold)
    ms = [scaled * 1e3 for _, _, scaled in samples]
    metrics = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "cold_verify_paper_ms": cold_ms,
    }
    return metrics, len(samples), samples, failures, probe_failures


def per_layer(workload, ops, seconds: float, seed: int, sampler: SpeedSampler):
    """Each of the workload's first trace_ops ops runs untraced and then
    traced, back to back so that drift in machine speed cancels in the
    overhead ratio; a third pass counts scalar operations.  Results are
    checked after each pass, outside any patching."""
    traced_ops = [ops[i % len(ops)] for i in range(workload.trace_ops)]
    rec = SpanRecorder()
    plain, traced, counted, factors = [], [], [], []
    before = machine_ms()
    for i, op in enumerate(traced_ops):
        plain.append(timed_call(op.run))
        middle = machine_ms()
        with rec.tracing():
            rec.op = i
            span = rec.open("op")
            traced.append(timed_call(op.run))
            rec.close(span)
        after = machine_ms()
        factors.append((speed(before, middle), speed(middle, after)))
        before = after
        if sum(t for _, t, _ in traced) > seconds:
            break
    counts = defaultdict(int)
    with counting_scalars(counts):
        for op in traced_ops[: len(traced)]:
            counted.append(timed_call(op.run))
    failures = [
        why
        for runs in (plain, traced, counted)
        for op, (result, _, err) in zip(traced_ops, runs)
        if (why := checked(op, result, err))
    ]
    done = traced_ops[: len(traced)]
    traced_scale = [f for _, f in factors]
    metrics = layer_metrics(rec, [op.tier for op in done], counts, len(counted), traced_scale)
    plain_s = sum(t * f for (_, t, _), (f, _) in zip(plain, factors))
    traced_s = sum(t * f for (_, t, _), f in zip(traced, traced_scale))
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    metrics["cli.import_ms"], probe_failures = median_of([import_ms(sampler) for _ in range(IMPORT_PROBES)])
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{workload.name}-seed{seed}.json.gz")
    samples = [(op.kind, t, t * f) for op, (_, t, _), f in zip(done, traced, traced_scale)]
    return metrics, 3 * len(done), samples, failures, probe_failures


# -- environment and output --------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diffrad").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(args) -> dict:
    import mpmath  # a dependency of diffrad, so already imported

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration": f"times in ms/s of a machine where the reference kernel takes {REF_MS} ms",
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffrad" / "__init__.py").is_file():
        print(f"no diffrad sources under {SRC}", file=sys.stderr)
        return 2
    _deadline[0] = time.perf_counter() + RUN_LIMIT_S
    units = declared_metrics(args.trace)
    compileall.compile_dir(SRC / "diffrad", quiet=1)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    cpu = pin_to_current_cpu()

    sampler = SpeedSampler()
    lib, ops, setup_s, problems = set_up(workload, args.seed, sampler)
    if args.trace:
        metrics, attempted, samples, failures, probe_failures = per_layer(
            workload, ops, args.seconds, args.seed, sampler
        )
    else:
        metrics, attempted, samples, failures, probe_failures = end_to_end(ops, args.seconds, sampler)
        metrics["setup_s"] = setup_s
    problems += probe_failures
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    env = {**environment(args), "cpu": cpu}
    doc = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(
        json.dumps(
            {
                "env": env,
                "failures": failures,
                "problems": problems,
                **doc,
                "ops": [[kind, round(raw * 1e3, 4), round(cal * 1e3, 4)] for kind, raw, cal in samples],
            }
        )
        + "\n"
    )
    for why in (problems + failures)[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name in units:
        print(f"{name:<48} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
