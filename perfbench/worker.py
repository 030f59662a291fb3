"""One fresh-process iteration of a benchmark workload.

    python3 perfbench/worker.py MODE WORKLOAD ARG OUT [--trace]

MODE ``import`` only imports bordismkit and records the environment;
``inputs`` makes a library workload's inputs from the seed ARG;
``library`` runs a library workload's operation list on the inputs in file
ARG (timed, import excluded) and checks every answer afterwards;
``cli-script`` builds the cli workload's script and expected outputs for
the seed ARG.  The result is written as JSON to
OUT with the calibration chunks timed in this process (see calib.py); the
parent (run.py) reads peak memory from this process's rusage.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import calib

CHUNKS = 3       # calibration chunks around the import and the list
SAMPLE_S = 0.2   # and one this often while the list runs


def _environment() -> dict:
    import importlib.metadata
    import importlib.util

    import bordismkit
    backend = getattr(bordismkit, "active_backend", None)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": backend() if backend is not None else None,
    }


class _Sampler:
    """Times a calibration chunk every SAMPLE_S seconds while operations run.

    A SIGALRM handler runs the chunk between bytecodes, so the machine's
    speed is followed through long operations too; the timeline cuts the
    handler's time out of the work.  Traced workers run without it, since
    their span times cannot leave it out.
    """

    def __init__(self, timeline: calib.Timeline, active: bool):
        self.timeline = timeline
        self.active = active

    def _tick(self, signum, frame) -> None:
        self.timeline.chunk()

    def __enter__(self) -> "_Sampler":
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _library(workload: str, spec: dict, trace: bool) -> dict:
    import tracer as tracing
    import workloads

    recorder = None
    if trace:
        recorder = tracing.Tracer()
        tracing.install(recorder)
    ops, sizes = workloads.build(workload, spec)
    answers: dict = {}
    op_calls: dict = {}  # traced: hot-leaf calls made by each operation
    timeline = calib.Timeline()
    for _ in range(CHUNKS):
        timeline.chunk()
    with _Sampler(timeline, active=recorder is None):
        for label, thunk in ops:
            before = {k: v[0] for k, v in recorder.hot.items()} if recorder else {}
            t0 = time.perf_counter()
            try:
                answers[label] = thunk()
            except Exception as exc:  # an operation that raised counts as failed
                answers[label] = exc
            timeline.work(t0, time.perf_counter())
            if recorder:
                delta = {k: v[0] - before.get(k, 0) for k, v in recorder.hot.items()}
                op_calls[label] = {k: d for k, d in delta.items() if d}
    for _ in range(CHUNKS):
        timeline.chunk()
    try:
        verdicts = workloads.check(workload, answers)
    except Exception as exc:  # a checker crash fails every operation
        verdicts = {label: f"check raised {exc!r}" for label in answers}
    failures = {label: why for label, why in verdicts.items() if why is not None}
    failures.update({label: "not checked" for label in answers if label not in verdicts})
    return {
        "wall_s": timeline.raw_s(),
        "wall_ref_s": timeline.reference_s(),
        "attempted": len(ops),
        "failures": failures,
        "sizes": sizes,
        "layers": recorder.raw() if recorder is not None else None,
        "op_calls": op_calls,
    }


def main(argv: list[str]) -> int:
    mode, workload, arg, out = argv[:4]
    trace = "--trace" in argv[4:]
    setup = calib.Timeline()
    for _ in range(CHUNKS):
        setup.chunk()
    t0 = time.perf_counter()
    import bordismkit  # noqa: F401  (the import is what is timed)
    setup.work(t0, time.perf_counter())
    for _ in range(CHUNKS):
        setup.chunk()
    result = {"import_s": setup.raw_s(), "import_ref_s": setup.reference_s()}
    if mode == "import":
        result["environment"] = _environment()
    elif mode == "inputs":
        import workloads
        result["inputs"] = workloads.inputs(workload, int(arg))
    elif mode == "library":
        with open(arg, encoding="utf-8") as fh:
            spec = json.load(fh)["inputs"]
        result.update(_library(workload, spec, trace))
    elif mode == "cli-script":
        import workloads
        result["script"] = workloads.cli_script(int(arg), os.path.dirname(out))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
