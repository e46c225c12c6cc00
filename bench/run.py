"""Run one qgames benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

qgames is imported from the ``src/`` beside ``bench/``; without it the run
stops with exit code 2 and prints no result. The workload runs whole cycles
of a fixed operation mix until ``--seconds`` have passed, then checks every
answer outside the timed region. Lines before the last
name each metric with its unit, the environment and any failed check; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics from the span recorder with ``--trace 1``). A traced run also writes
its spans to ``.bench_out/spans-<workload>-<seed>.tsv.gz``.

Times are paced: the speed of a shared host drifts by up to 1.5x within a
minute, for qgames and for any other code alike, so after every operation
the run times one fixed unit of reference work (``Pace``) and scales the
operation's latency by ``PACE_REFERENCE_S`` over the median of the nine
nearest such timings. A paced time is the time the operation would take on
a host where the reference unit takes ``PACE_REFERENCE_S``; the unscaled
figures are printed on the lines before the result. Each import timing is
scaled by the reference timings just before and after it, and each set-up
timing by timings of a contraction unit (``CONTRACTION_REFERENCE_S``). Pacing
cannot tell the host's drift from a slowdown the program leaves behind for
the next code to run (threads still spinning, garbage to collect): such a
cost is scaled away in part.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: What one unit of reference work takes on the reference host: paced times
#: read as if measured there. (0.7-1.2 ms on the 2-vCPU Xeon VM it was
#: measured on.)
PACE_REFERENCE_S = 1e-3
#: The same for the contraction unit that paces each set-up (7-12 ms there).
CONTRACTION_REFERENCE_S = 10e-3
#: Pace timings on each side of an operation that set its scale.
PACE_WINDOW = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "evaluate", "workbench"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return parser.parse_args(argv)


# Times ``import qgames, qgames.cli`` in a fresh interpreter, like the
# benchmark's own import; argv[1] is the source directory.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import qgames, qgames.cli; print(time.perf_counter() - t0)"
)


def import_qgames() -> float:
    """Import qgames and its CLI from this checkout's sources; return the
    import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qgames
    import qgames.cli  # noqa: F401  (the workloads drive it; its import is set-up)

    elapsed = time.perf_counter() - start
    if Path(qgames.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qgames was imported from {qgames.__file__}, not from {SRC}")
    return elapsed


class Pace:
    """Times fixed units of reference work that do not touch qgames.

    ``sample`` is interpreted arithmetic and small complex Hermitian
    eigen-decompositions, the two kinds of work qgames' operations and
    imports are made of. ``contraction`` is the pairwise product of a stack
    of matrices, the einsum that validating a measurement basis does and
    that dominates building the D = 64 game; that set-up follows the host's
    speed more weakly than ``sample`` does."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.matrices = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (4, 8, 16)]
        self.stack = rng.normal(size=(16, 16, 16)) + 1j * rng.normal(size=(16, 16, 16))

    def contraction(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            products = self.np.einsum("aij,bjk->abik", self.stack, self.stack)
            float(self.np.abs(products).max())
        return time.perf_counter() - start

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        for m in self.matrices:
            for _ in range(6):
                self.np.linalg.eigh(m @ m.conj().T)
        return time.perf_counter() - start


def paced(times, paces) -> list[float]:
    """Each time scaled to the reference pace by the median of the pace
    timings nearest to it (``paces[i]`` was taken just after ``times[i]``)."""
    out = []
    for i, t in enumerate(times):
        near = paces[max(0, i - PACE_WINDOW):i + PACE_WINDOW + 1]
        out.append(t * PACE_REFERENCE_S / statistics.median(near))
    return out


def probe_import() -> float:
    """Time the import once more, in a fresh interpreter that has ended
    when this returns."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "commit": commit(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = blas_threads(np)
    return env


def blas_threads(np):
    """Thread count of the OpenBLAS numpy loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_loop(workload, seconds: float, recorder, pace: Pace):
    """Run one untimed warm-up cycle, then whole timed cycles until
    ``seconds`` have passed; log (op, result, error, latency, cycle, pace),
    where pace is the reference unit timed just after the op."""
    for op in workload.cycle(0):
        try:
            op.call()
        except Exception:  # the timed cycles report every failure
            pass
        pace.sample()
    log = []
    start = time.perf_counter()
    cycle = 1
    while cycle == 1 or time.perf_counter() - start < seconds:
        for op in workload.cycle(cycle):
            call = op.call if recorder is None else (lambda op=op: recorder.run_op(len(log), op.call))
            error = None
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a raised error is a failed op, not a crash of the run
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            log.append((op, result, error, latency, cycle, pace.sample()))
        cycle += 1
    return log


def check_all(log) -> list[tuple[int, str, list]]:
    failures = []
    for i, (op, result, error, *_) in enumerate(log):
        if error is not None:
            problems = [f"raised {error}"]
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # a malformed answer fails its op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((i, op.kind, problems))
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: the host gives the run two
    # shared cores, and a second BLAS thread spinning after each small
    # matrix product measures the scheduler, not qgames (the import probes
    # inherit it).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_s = import_qgames()
    except ImportError as exc:
        print(f"error: cannot import qgames from {SRC}: {exc}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    pace = Pace()
    work = OUT / f"work-{os.getpid()}"
    try:
        # set-up is repeated and its median reported; the import is timed
        # as often, in fresh interpreters after the first. Each import is
        # paced by the reference unit timed around it (the run's own import,
        # timed at start, by units timed after it), each set-up by the
        # contraction unit timed around it.
        reps = 1 if args.tiny else workload.setup_reps

        def paced_timing(measure, unit, reference):
            """``measure()`` seconds, scaled by the median of ``unit`` timed
            three times just before and three times just after it; and
            that median."""
            around = [unit() for _ in range(3)]
            seconds = measure()
            around += [unit() for _ in range(3)]
            return seconds * reference / statistics.median(around), statistics.median(around)

        import_times = [paced_timing(lambda: import_s, pace.sample, PACE_REFERENCE_S)[0]]
        import_times += [paced_timing(probe_import, pace.sample, PACE_REFERENCE_S)[0]
                         for _ in range(reps - 1)]

        def set_up():
            t0 = time.perf_counter()
            workload.setup(args.seed, work)
            return time.perf_counter() - t0

        setups = [paced_timing(set_up, pace.contraction, CONTRACTION_REFERENCE_S) for _ in range(reps)]
        setup_times = [seconds for seconds, _ in setups]
        recorder = None
        if args.trace:
            recorder = spans.Recorder()
            spans.install(recorder)
        log = run_loop(workload, args.seconds, recorder, pace)
        failures = check_all(log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(log)
    failed = len(failures)
    raw = [entry[3] for entry in log]
    latencies = paced(raw, [entry[5] for entry in log])
    repeats = attempted - len({entry[0].key for entry in log})
    # throughput per cycle, then the median cycle: a slow phase of the
    # machine in a few cycles does not move it
    failed_ops = {i for i, _, _ in failures}

    def throughput(times):
        per_cycle = {}
        for i, (entry, lat) in enumerate(zip(log, times)):
            done, spent = per_cycle.get(entry[4], (0, 0.0))
            per_cycle[entry[4]] = (done + (i not in failed_ops), spent + lat)
        return statistics.median(done / spent for done, spent in per_cycle.values()), len(per_cycle)

    ops_per_s, cycles = throughput(latencies)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {cycles} cycles, {sum(raw):.3f} s timed")
    by_kind = {}
    for (op, *_), lat in zip(log, latencies):
        by_kind.setdefault(op.kind, []).append(lat)
    for kind, lats in sorted(by_kind.items()):
        print(f"op {kind}: {len(lats)} ops, paced median {1e3 * statistics.median(lats):.3f} ms")
    for i, kind, problems in failures[:20]:
        print(f"FAIL op {i} {kind}: {'; '.join(problems)}")

    def p90(times):
        return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]

    if args.trace:
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
        metrics = spans.layer_metrics(recorder, attempted, ops_per_s)
    else:
        tail = p90(latencies)
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(import_times) + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        extra = {
            "fail_ratio": (failed / attempted, "1"),
            "latency_samples": (attempted, "count"),
            "samples_beyond_p90": (sum(lat > tail for lat in latencies), "count"),
            "repeat_share": (repeats / attempted, "1"),
            "import_s": (statistics.median(import_times), "s"),
            "first_setup_s": (import_times[0] + setup_times[0], "s"),
            "pace_ms": (1e3 * statistics.median(entry[5] for entry in log), "ms"),
            "contraction_ms": (1e3 * statistics.median(unit for _, unit in setups), "ms"),
            "unpaced_ops_per_s": (throughput(raw)[0], "1/s"),
            "unpaced_latency_p50_ms": (1e3 * statistics.median(raw), "ms"),
            "unpaced_latency_p90_ms": (1e3 * p90(raw), "ms"),
        }
        for name, (value, unit) in extra.items():
            print(f"metric {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
