"""zdkit benchmark: one workload, one closed-loop client, in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/zdkit).
The process writes seeded fixtures into .perfbench_work/, then calls
zdkit.cli.main(argv) back to back, one op after the previous one returns,
and checks every op's outputs with perfbench/checks.py.

--trace 0 measures with no tracing and reports the end-to-end metrics:
setup_s (median wall time of a fresh interpreter importing zdkit.cli,
sampled at even intervals through the run), work_per_s (work units per
second of op time), op_p50_s and op_p90_s (op latency) and peak_rss_mb
(peak resident memory of this process).
--trace 1 runs the same ops untraced for half the time, then traced for the
other half, reports the per-layer metrics of perfbench/spans.py and writes
the spans and counts to .perfbench_out/trace-<workload>-seed<N>.json.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os

# OpenBLAS reads its thread count when numpy loads, so this precedes every
# numpy import.  With two threads on a two-core box a kappa=48 SVD timed the
# scheduler (median 48 ms, against 0.5 ms on one thread).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import fixtures  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 11
MAX_REPORTED_FAILURES = 5
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "op_p50_s": "s",
              "op_p90_s": "s", "peak_rss_mb": "MB"}


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    def git(*cmd):
        return subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


class SetupTimer:
    """Wall time of fresh interpreters importing zdkit.cli, as a CLI call pays."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.cmd = [sys.executable, "-c", "import zdkit.cli"]
        self.times = []
        self._spawn()  # writes the bytecode caches; untimed

    def _spawn(self):
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)

    def sample(self):
        t0 = time.perf_counter()
        self._spawn()
        self.times.append(time.perf_counter() - t0)


class Client:
    """Issues ops in order and keeps the tallies of one run."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def call(self, i, tracer=None):
        """Run op i; returns (latency s, units, bytes written)."""
        op = self.workload.op(i)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(op.argv)
            else:
                with tracer.span("cli.main"):
                    code = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a dead run
            self._fail(i, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0, 0
        latency = time.perf_counter() - t0
        try:
            op.check(code)
        except Exception as exc:  # CheckFailed, or outputs that do not parse
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return latency, 0, 0
        written = sum(os.path.getsize(p) for p in op.outputs)
        return latency, op.units, written

    def _fail(self, i, msg):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"op {i} failed: {msg}", file=sys.stderr)

    def run_for(self, seconds, start, tracer=None, setup=None):
        """Ops start, start+1, ... until seconds have passed; per-op lists.

        With a SetupTimer, one setup sample is taken between ops at each of
        SETUP_SAMPLES evenly spaced times, so the median spans the run.
        """
        lat, units, written = [], [], []
        gc.collect()
        t0 = time.perf_counter()
        marks = [t0 + seconds * (j + 0.5) / SETUP_SAMPLES
                 for j in range(SETUP_SAMPLES)] if setup else []
        i = start
        while (now := time.perf_counter()) < t0 + seconds:
            if marks and now >= marks[0]:
                marks.pop(0)
                setup.sample()
                continue
            a, b, c = self.call(i, tracer)
            lat.append(a)
            units.append(b)
            written.append(c)
            i += 1
        for _ in marks:  # ops outlasted the run's last marks
            setup.sample()
        return lat, units, written


def warm_up(client, seconds) -> int:
    """Untimed ops so caches fill and lazy set-up finishes; next op index."""
    lat, _, _ = client.run_for(min(1.0, 0.1 * seconds), 0)
    return len(lat)


def end_to_end(client, seconds):
    """End-to-end metrics of an untraced run; (metrics, ops timed)."""
    setup = SetupTimer()
    start = warm_up(client, seconds)
    lat, units, _ = client.run_for(seconds, start, setup=setup)
    return {
        "setup_s": statistics.median(setup.times),
        "work_per_s": sum(units) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(lat)


def per_layer(client, seconds, name, seed, env):
    """Per-layer metrics of a half untraced, half traced run; (metrics, ops)."""
    start = warm_up(client, seconds)
    plain, _, _ = client.run_for(seconds / 2, start)
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        traced, _, written = client.run_for(seconds / 2, start, tracer)
    n = min(len(plain), len(traced))
    overhead = sum(traced[:n]) / sum(plain[:n]) - 1.0
    metrics = tracer.metrics(len(traced), sum(written), overhead)
    modules = tracer.module_self_times()
    wall = sum(modules.values())
    dominant = max(modules, key=modules.get)
    expected = client.workload.dominant
    verdict = ("as expected" if dominant == expected
               else f"NOT as expected: {expected} was expected to dominate")
    print(f"# {name}: dominant module {dominant} "
          f"({modules[dominant] / wall:.1%} of traced op time), {verdict}")
    for mod, t in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"#   {mod:<11} self {t / len(traced):.6f} s/op  "
              f"share {t / wall:.4f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "env": env,
            "ops_traced": len(traced), "ops_untraced": len(plain),
            "waits": "none: one thread, no queues, so no wait metrics exist",
            "module_self_s": modules, "dominant": dominant,
            "expected_dominant": expected,
            "span_self_s": tracer.self_times(), "counts": tracer.counts,
            "metrics": metrics,
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in tracer.spans],
        }, fh)
    return metrics, len(traced)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(fixtures.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny fixtures, for the benchmark's own self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "zdkit", "cli.py")):
        print(f"error: no zdkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import zdkit.cli

    if not os.path.realpath(zdkit.cli.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: imported zdkit from {zdkit.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    env = environment()
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = fixtures.WORKLOADS[args.workload](args.seed, args.size, work)
        client = Client(zdkit.cli, workload)
        if args.trace:
            metrics, ops = per_layer(client, args.seconds, args.workload,
                                     args.seed, env)
            units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
        else:
            metrics, ops = end_to_end(client, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "size": args.size, "unit_of_work": workload.unit,
                      "ops_measured": ops, "env": env}))
    for k, v in metrics.items():
        print(f"# {args.workload} {k} {v:.6g} {units[k]}")
    print(f"# {args.workload} failed_frac "
          f"{client.failed / client.attempted:.6g} ratio")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
