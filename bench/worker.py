"""One timed repeat in a fresh interpreter.

Reads a JSON request on stdin, imports quasisat from the checkout's
`src/`, runs every job in order (a closed loop: the next sentence starts
when the previous verdict is back) and writes one JSON object on stdout.
A job is sentence text, a budget and a perturbed copy for the distance
query; labels stay with the parent process.

Request keys: `src` (the directory to import quasisat from), `jobs`,
`trace` (install the span hooks), `timer` (calibrate while the sentences
run, see below) and `spans` (a path for the span dump, or null).  With
`jobs` empty the worker only measures the import.

Calibration.  The speed of a shared host drifts by up to 2x within
seconds while the process's CPU time tracks its wall time, so raw times
from one run to the next spread far more than any change worth
detecting.  The worker therefore runs a fixed pure-stdlib reference
chunk (Fraction and integer arithmetic, like quasisat's own) around the
import and, from an interval timer, about every 50 ms while the
sentences run, also in the middle of a long one.  The chunks' own time
is taken out of every measurement, and each stretch of work between two
chunks is rescaled by `CHUNK_NOMINAL_S / (median of the nearest chunk
times)`, which expresses it in seconds of a host running the chunk at
its nominal speed.  The chunk runs with the garbage collector off, so
the program's heap cannot change its speed.  Repeats of a traced run
go without the timer, so that no chunk lands inside a span and traced
and untraced repeats are timed alike.
"""
from __future__ import annotations

import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# the reference chunk's time on an unloaded 2-core x86-64 VM, Python 3.11
CHUNK_NOMINAL_S = 0.002
CALIBRATE_EVERY_S = 0.05
_NEAREST = 5


def _chunk() -> None:
    """The fixed reference work."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7)
        if acc > 1000:
            acc -= 1000


class Calibration:
    """Reference chunk runs, as (start, end) times, and the rescaling of
    the work around them."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []
        self._busy = False

    def run(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _chunk()
        self.marks.append((t0, time.perf_counter()))
        if gc_on:
            gc.enable()
        self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _scale(self, t: float) -> float:
        """Nominal over measured chunk time near time t."""
        i = bisect.bisect(self.marks, (t, t))
        near = self.marks[max(0, i - _NEAREST // 2 - 1):i + _NEAREST // 2 + 1]
        return CHUNK_NOMINAL_S / statistics.median(e - s for s, e in near)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and rescaled work time in [t0, t1], chunks taken out."""
        raw = cal = 0.0
        edge = t0
        for s, e in self.marks + [(t1, t1)]:
            if s < t0 or s > t1:
                continue
            piece = s - edge
            raw += piece
            cal += piece * self._scale((edge + s) / 2)
            edge = e
        return raw, cal


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.  Not
    ru_maxrss: after fork and exec that keeps the parent's peak when it
    was higher."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    cal = Calibration()
    for _ in range(2):
        cal.run()
    t0 = time.perf_counter()
    import quasisat
    t1 = time.perf_counter()
    for _ in range(2):
        cal.run()
    import_s, import_cal_s = cal.measure(t0, t1)
    if not Path(quasisat.__file__).resolve().is_relative_to(src):
        print(f"quasisat imported from {quasisat.__file__}, not {src}", file=sys.stderr)
        return 3

    parse, decide, distance = quasisat.parse, quasisat.quasi_decide, quasisat.distance_enclosure
    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        parse = tracer.wrap("parser.parse", parse)
        decide = tracer.wrap("solver.quasi_decide", decide)
        distance = tracer.wrap("distance.distance_enclosure", distance)

    out = []
    clock = time.perf_counter
    times = []
    if request["timer"]:
        cal.start_timer()
    for i, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.sentence = i
        rec: dict = {"id": job["id"]}
        t0 = clock()
        try:
            f = parse(job["text"])
            v = decide(f, budget=job["budget"])
        except Exception as e:  # reported as a failed operation
            f = None
            rec["error"] = f"{type(e).__name__}: {e}"
        t1 = clock()
        if f is not None:
            rec.update(outcome=v.outcome, iterations=v.iterations,
                       complexes=sum(r.complexes for r in v.trace),
                       certificate=None if v.certificate is None else _q(v.certificate))
        try:
            g = parse(job["perturbed"])
            d = distance(f if f is not None else parse(job["text"]), g, Fraction(job["tol"]))
            rec["distance"] = [_q(d.lo), _q(d.hi)]
        except Exception as e:
            rec["distance_error"] = f"{type(e).__name__}: {e}"
        t2 = clock()
        times.append((t0, t1, t2))
        rec["chars"] = len(job["text"]) + len(job["perturbed"])
        out.append(rec)
    cal.stop_timer()
    for _ in range(2):
        cal.run()
    wall = cal_wall = 0.0
    for rec, (t0, t1, t2) in zip(out, times):
        rec["solve_s"], rec["solve_cal_s"] = cal.measure(t0, t1)
        rec["distance_s"], rec["distance_cal_s"] = cal.measure(t1, t2)
        wall += rec["solve_s"] + rec["distance_s"]
        cal_wall += rec["solve_cal_s"] + rec["distance_cal_s"]

    result = {"import_s": import_s, "import_cal_s": import_cal_s,
              "wall_s": wall, "wall_cal_s": cal_wall,
              "chunks": [e - s for s, e in cal.marks], "items": out,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.reduce()
        result["trace"]["chars"] = sum(rec["chars"] for rec in out)
        if request.get("spans"):
            tracer.write_spans(request["spans"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
