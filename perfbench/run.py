"""bordismkit benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload {span,window,localize,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/``).
Every iteration is a fresh child process started from this one, one at a
time, with its own empty working directory, ``TMPDIR``, ``XDG_CACHE_HOME``,
``HOME`` and ``NUMBA_CACHE_DIR``, so nothing cached by one iteration can
speed up the next.  This process and its children share one CPU.  Inputs come
from ``--seed`` alone.

Traffic model: bordismkit is an exact-math library with a CLI, not a
service.  A user runs one computation (or one CLI verb) and waits, so every
workload is a closed loop of one operation or one CLI process at a time.

* ``span``     GF(2) side: kernel_space(1..4), spanning_rank(3),
               spanning_rank(4, target=511).  Seed-independent.
* ``window``   integer side: support_floor(1..3, 2), kernel_sample_unitary
               (3,1) and (2,2), surjectivity_probe(2,1).  Seed-independent.
* ``localize`` Chern-number sweeps of standard and seeded random torus
               manifolds, a GF(2) integrality table with many queries and
               reference checks, and products/reductions of classes.
* ``cli``      a seeded script of cold ``python -m bordismkit.cli`` calls.

With ``--trace 0`` the last line carries the end-to-end metrics: wall_s
(median time of the workload's operation list in a fresh process, import
excluded; for cli, of one script of cold invocations), setup_s (median
fresh-process ``import bordismkit``) and peak_rss_mb (median peak resident
memory of an iteration's processes).  Times there are reference seconds:
raw seconds corrected for the machine's speed at the time (calib.py).
With ``--trace 1`` it carries the per-layer metrics of
``tracer.PER_LAYER_UNITS`` (raw seconds) from traced iterations run
alternately with untraced ones, plus trace.overhead_s.  The line before it
reports, per workload, error_rate, raw and reference medians, the wall-time
tail, cli verb latencies (verb_p50_s, verb_tail_s), input sizes, sample
counts and the environment.

Exit code 2, with no result printed, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBES = 5         # extra fresh-process imports per run for setup_s
RUN_DEADLINE_S = 170.0    # a run never outlives this, whatever the program does
CAP_ENV = ("BORDISMKIT_MAX_N", "BORDISMKIT_NO_NUMBA")


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest of p99.9/p99/p95/p90/p75/p50 with
    at least ten samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def tally(iterations: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over a run's iterations.

    An iteration whose process died, timed out or wrote no result counts all
    of its operations as failed.
    """
    known = max((it["attempted"] for it in iterations if it.get("attempted")), default=1)
    attempted = failed = 0
    for it in iterations:
        if it.get("crashed"):
            attempted += known
            failed += known
        else:
            attempted += it["attempted"]
            failed += len(it["failures"])
    return attempted, failed


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts and reaps the run's child processes, one at a time."""

    def __init__(self, root: str, run_dir: str, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def env(self, home: str) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in CAP_ENV}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONHASHSEED"] = "0"
        for var in ("TMPDIR", "XDG_CACHE_HOME", "HOME", "NUMBA_CACHE_DIR"):
            path = os.path.join(home, var.lower())
            os.makedirs(path)
            env[var] = path
        return env

    def spawn(self, argv: list[str], stdin: bytes = b"") -> dict:
        """Run one child to completion; returns exit code, output, peak RSS
        and the wall time from start to reaping."""
        self.count += 1
        home = os.path.join(self.run_dir, f"child-{self.count}")
        cwd = os.path.join(home, "cwd")
        os.makedirs(cwd)
        env = self.env(home)
        try:
            with tempfile.TemporaryFile(dir=self.run_dir) as fin, \
                    tempfile.TemporaryFile(dir=self.run_dir) as fout, \
                    tempfile.TemporaryFile(dir=self.run_dir) as ferr:
                fin.write(stdin)
                fin.seek(0)
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                        cwd=cwd, env=env)
                status, rusage = _reap(proc, self.deadline - time.monotonic())
                elapsed = time.perf_counter() - t0
                fout.seek(0)
                ferr.seek(0)
                return {"code": status, "stdout": fout.read(), "stderr": ferr.read(),
                        "rss_mb": rusage.ru_maxrss / 1024.0, "start": t0,
                        "elapsed": elapsed}
        finally:
            shutil.rmtree(home, ignore_errors=True)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for the child with os.wait4 (for its rusage), killing it at the
    timeout."""
    reaped = False

    def on_alarm(signum, frame):
        if not reaped:
            proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.05))
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _worker(runner: Runner, mode: str, workload: str, arg: str,
            trace: bool = False, out: str | None = None) -> tuple[dict | None, dict]:
    """Run worker.py; its JSON result is read back (and removed unless
    ``out`` names where to keep it)."""
    path = out or os.path.join(runner.run_dir, f"result-{runner.count + 1}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            arg, path] + (["--trace"] if trace else [])
    proc = runner.spawn(argv)
    result = None
    if proc["code"] == 0 and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if out is None:
            os.remove(path)
    elif proc["stderr"]:
        sys.stderr.write(proc["stderr"].decode(errors="replace")[-2000:])
    return result, proc


# ---------------------------------------------------------------------------
# workloads


def run_library(runner: Runner, workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
    spec = os.path.join(runner.run_dir, "inputs.json")
    if _worker(runner, "inputs", workload, str(seed), out=spec)[0] is None:
        return {"iterations": [{"crashed": True, "traced": False}]}
    iterations: list[dict] = []
    t_loop = time.monotonic()
    k = 0
    while not runner.expired():
        traced = trace and k % 2 == 1
        result, proc = _worker(runner, "library", workload, spec, traced)
        k += 1
        if result is None:
            iterations.append({"crashed": True, "traced": traced})
        else:
            result.update(traced=traced, rss_mb=proc["rss_mb"])
            iterations.append(result)
        kinds = {it["traced"] for it in iterations}
        if time.monotonic() - t_loop >= seconds and (not trace or len(kinds) == 2):
            break
    return {"iterations": iterations}


def run_cli(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    inputs = os.path.join(runner.run_dir, "cli-inputs")
    os.makedirs(inputs)
    out = os.path.join(inputs, "script.json")
    proc = runner.spawn([sys.executable, os.path.join(HERE, "worker.py"),
                         "cli-script", "cli", str(seed), out])
    if proc["code"] != 0:
        sys.stderr.write(proc["stderr"].decode(errors="replace")[-2000:])
        return {"iterations": [{"crashed": True, "traced": False}], "script": []}
    with open(out, encoding="utf-8") as fh:
        script = json.load(fh)["script"]
    iterations: list[dict] = []
    t_loop = time.monotonic()
    k = 0
    while not runner.expired():
        traced = trace and k % 2 == 1
        iterations.append(_cli_iteration(runner, script, traced))
        k += 1
        kinds = {it["traced"] for it in iterations}
        if time.monotonic() - t_loop >= seconds and (not trace or len(kinds) == 2):
            break
    return {"iterations": iterations, "script": script}


def _cli_iteration(runner: Runner, script: list[dict], traced: bool) -> dict:
    outputs: list[bytes] = []
    latencies, verbs, traces, failures = [], [], [], {}
    timeline = calib.Timeline()
    rss = 0.0
    for idx, inv in enumerate(script):
        timeline.chunk()
        if inv["stdin_from"] is not None:
            stdin = outputs[inv["stdin_from"]]
        else:
            stdin = (inv["stdin"] or "").encode()
        trace_out = os.path.join(runner.run_dir, f"trace-{idx}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_out]
        else:
            argv = [sys.executable, "-m", "bordismkit.cli"]
        proc = runner.spawn(argv + inv["argv"], stdin)
        outputs.append(proc["stdout"])
        latencies.append(proc["elapsed"])
        timeline.work(proc["start"], proc["start"] + proc["elapsed"])
        verbs.append(inv["argv"][0])
        rss = max(rss, proc["rss_mb"])
        label = f"{idx}:{' '.join(inv['argv'][:1])}"
        if proc["code"] != 0:
            failures[label] = f"exit code {proc['code']}"
        elif proc["stdout"] != inv["expected"].encode():
            failures[label] = "stdout differs from the in-process answer"
        elif inv["problem"]:
            failures[label] = inv["problem"]
        if traced and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as fh:
                traces.append(json.load(fh))
            os.remove(trace_out)
        if runner.expired():
            break
    for _ in range(3):
        timeline.chunk()
    latencies_ref = timeline.reference_pieces()
    return {"traced": traced, "wall_s": sum(latencies), "wall_ref_s": sum(latencies_ref),
            "latencies": latencies, "latencies_ref": latencies_ref,
            "verbs": verbs, "rss_mb": rss, "attempted": len(latencies),
            "failures": failures, "traces": traces}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(done: list[dict], setup: list[dict]) -> dict:
    return {
        "wall_s": {"value": median([it["wall_ref_s"] for it in done]), "unit": "s"},
        "setup_s": {"value": median([p["import_ref_s"] for p in setup]), "unit": "s"},
        "peak_rss_mb": {"value": median([it["rss_mb"] for it in done]), "unit": "MB"},
    }


def _merge_raw(raws: list[dict]) -> dict:
    """Sum the layer records of several processes (one cli script)."""
    spans: dict = {}
    hot: dict = {}
    counters: dict = {}
    absent: set = set()
    for raw in raws:
        for name, vals in raw["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, (0, 0.0, 0.0)), vals)]
        for name, vals in raw["hot"].items():
            hot[name] = [a + b for a, b in zip(hot.get(name, (0, 0.0)), vals)]
        for name, val in raw["counters"].items():
            # an answer is the same in every process; other counts add up
            counters[name] = val if name.startswith("answer.") else counters.get(name, 0) + val
        absent.update(raw["absent"])
    return {"spans": spans, "hot": hot, "counters": counters, "absent": sorted(absent)}


def per_layer(workload: str, done: list[dict]) -> tuple[dict, dict]:
    import tracer as tracing

    traced = [it for it in done if it["traced"]]
    plain = [it for it in done if not it["traced"]]
    if workload == "cli":
        raws = [_merge_raw([t["layers"] for t in it["traces"]]) for it in traced]
        shims = [t for it in traced for t in it["traces"]]
    else:
        raws = [it["layers"] for it in traced]
        shims = []
    per_iter = [tracing.layer_metrics(raw) for raw in raws]
    values: dict[str, float] = {}
    repeat = True
    for name, unit in tracing.PER_LAYER_UNITS.items():
        series = [m[name] for m in per_iter if name in m]
        if unit == "count":
            values[name] = series[0] if series else 0
            repeat = repeat and len(set(series)) <= 1
        else:
            values[name] = median(series)
    values["cli.import_s"] = median([t["import_s"] for t in shims])
    values["cli.main.s"] = median([t["main_s"] for t in shims])
    for verb in tracing.CLI_VERBS:
        values[f"cli.{verb}.s"] = median([t["main_s"] for t in shims if t["verb"] == verb])
    # in reference seconds, so a change of machine speed between the traced
    # and the untraced workers does not read as overhead
    values["trace.overhead_s"] = (median([it["wall_ref_s"] for it in traced])
                                  - median([it["wall_ref_s"] for it in plain]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER_UNITS.items()}
    absent = sorted({a for raw in raws for a in raw["absent"]})
    return metrics, {"counts_repeat": repeat, "absent_layers": absent,
                     "counters": _merge_raw(raws[:1])["counters"] if raws else {},
                     "hot_calls_by_operation": traced[0].get("op_calls") if traced else {},
                     "traced_iterations": len(traced), "untraced_iterations": len(plain)}


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: str) -> str | None:
    # the ceiling keeps git from taking a repository above the checkout for it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, probe: dict | None, cpus: list[int]) -> dict:
    env = dict(probe["environment"]) if probe else {}
    env.update({
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    })
    return env


# ---------------------------------------------------------------------------
# main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("span", "window", "localize", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bordismkit", "__init__.py")):
        print("error: no bordismkit sources under ./src; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the speed calibration then
    # measures the CPU the work runs on (the children inherit the mask).
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    import selftest
    problems = selftest.run()
    if problems:
        print("error: benchmark self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3

    start = time.monotonic()
    parent = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(parent, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent)
    try:
        runner = Runner(root, run_dir, start + RUN_DEADLINE_S)
        # bytecode as an installed package has it; built fresh in each run
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(root, "src", "bordismkit")],
                       check=True, stdout=subprocess.DEVNULL)
        probes = [_worker(runner, "import", args.workload, str(args.seed))[0]
                  for _ in range(IMPORT_PROBES)]
        setup = [p for p in probes if p]
        probe = setup[0] if setup else None
        trace = bool(args.trace)
        if args.workload == "cli":
            res = run_cli(runner, args.seed, args.seconds, trace)
        else:
            res = run_library(runner, args.workload, args.seed, args.seconds, trace)
        iterations = res["iterations"]
        done = [it for it in iterations if not it.get("crashed")]
        setup += [it for it in done if "import_s" in it and not it["traced"]]
        attempted, failed = tally(iterations)
        attempted += len(probes)
        failed += sum(p is None for p in probes)
        plain = [it for it in done if not it["traced"]]
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "iterations": len(iterations),
            "error_rate": {"value": failed / max(attempted, 1), "unit": "ratio"},
            "failures": [f for it in done for f in
                         (f"{k}: {v}" for k, v in it["failures"].items())][:20],
        }
        walls = [it["wall_ref_s"] for it in plain]
        details["wall_s"] = {"median": median(walls), "samples": len(walls),
                             "tail": tail(walls), "unit": "s",
                             "raw_median": median([it["wall_s"] for it in plain]),
                             "speed": median([it["wall_ref_s"] / it["wall_s"]
                                              for it in plain])}
        details["setup_s"] = {"raw_median": median([p["import_s"] for p in setup]),
                              "samples": len(setup)}
        sizes = next((it["sizes"] for it in done if it.get("sizes")), None)
        if sizes:
            details["input_sizes"] = sizes
        if args.workload == "cli":
            lat = [x for it in plain for x in it["latencies_ref"]]
            t = tail(lat)
            details["verb_p50_s"] = {"value": median(lat), "unit": "s",
                                     "samples": len(lat), "raw_median": median(
                                         [x for it in plain for x in it["latencies"]])}
            details["verb_tail_s"] = {"value": t[1] if t else None, "unit": "s",
                                      "percentile": t[0] if t else None}
            details["script"] = [" ".join(inv["argv"][:1]) for inv in res["script"]]
        if trace:
            metrics, extra = per_layer(args.workload, done)
            details.update(extra)
        else:
            metrics = end_to_end(plain, setup)
        details["environment"] = environment(root, probe, cpus)
        details["run_s"] = time.monotonic() - start
        correct = failed == 0 and bool(plain)
        print(json.dumps({"details": details}))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
