"""One benchmark pass in a fresh interpreter.

Reads ``{"src": ..., "trace": bool, "tasks": [[id, argv], ...]}`` on stdin,
imports ``nkoszul.cli`` from ``src``, calls ``cli.main(argv)`` for each task
in turn with the task's output captured, and writes one JSON object to
stdout: the import-finished time on the system-wide monotonic clock, each
task's exit code, output and time and their sum, the peak RSS, the times of
a fixed calibration kernel run before the first task and after each task
and, when tracing, the tracer's spans and counts.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def calibrate():
    """Seconds for a fixed sparse accumulate over Fractions.

    It does the kind of work nkoszul's echelon loops do, in code no change
    to nkoszul can alter, so its time tracks how fast the host runs such
    work at the moment.  Collection is off so that nkoszul's heap does not
    add to it.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        seed = 12345
        for _ in range(40):
            acc = {}
            for _ in range(150):
                seed = (seed * 1103515245 + 12345) % 2**31
                v = Fraction(seed % 17 - 8, seed % 7 + 1) * Fraction(seed % 13 + 1, seed % 5 + 1)
                k = seed % 97
                cur = acc.get(k)
                acc[k] = v if cur is None else cur + v
        return time.perf_counter() - t
    finally:
        gc.enable()


def main():
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import nkoszul.cli as cli

    imported_at = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calibration = [calibrate()]
    results = []
    for task_id, argv in spec["tasks"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
        seconds = time.perf_counter() - t
        if tracer is not None:
            tracer.stop()
        calibration.append(calibrate())
        results.append(
            {
                "id": task_id,
                "code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "seconds": seconds,
            }
        )
    report = {
        "imported_at": imported_at,
        "verdict_s": sum(r["seconds"] for r in results),
        "calibration_s": calibration,
        "tasks": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["uncovered"] = tracer.uncovered()
        report["trace"] = tracer.snapshot()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
