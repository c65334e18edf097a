"""dcqdlab benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; dcqdlab is imported from ./src.  Workloads are
`exact_n3` and `cli_reports`, the two in BENCHMARK.json, and `sampled_sweep`
(see perfbench/workloads.py and perfbench/README.md).  The next op starts
only after the previous one and its output check have finished.  Ops run
until `--seconds` have passed, and every run completes at least the
workload's counting window of ops.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, in which every
op runs once untraced and once traced, and the spans are written to
`.perfbench_out/`.  The line before it is a JSON detail record: machine and
library provenance, the input hash, sample counts and check counts.
"""

import time

SETUP_START = time.perf_counter()  # set-up time starts before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# set-up is measured in this process and in SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 7
# Workloads whose BLAS gets one thread per usable CPU; the others get one
# thread.  Only exact_n3 makes large BLAS calls.  On the small matrices of the
# other workloads a second OpenBLAS thread gains nothing and stalls the op
# whenever the other CPU is busy (an n = 2 op of 55 ms took 1.4 s beside one
# other busy process).
MULTI_THREADED_BLAS = {"exact_n3"}
MAX_TRACEBACKS = 3
RAISED = object()  # output of an attempt whose call raised


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, workdir: str):
    """Import numpy and dcqdlab and draw the inputs of the counting window."""
    threads = str(len(os.sched_getaffinity(0)) if name in MULTI_THREADED_BLAS else 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    import numpy  # noqa: F401

    sys.path.insert(0, SRC)
    import dcqdlab

    if not os.path.abspath(dcqdlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dcqdlab was imported from {dcqdlab.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    window = [workload.make_op(seed, i, workdir) for i in range(workload.window)]
    digest = hashlib.sha256(b"".join(op.digest for op in window)).hexdigest()
    return workload, window, digest


def warm_blas() -> float:
    """Make the first multi-threaded BLAS call before any op is timed.

    On the 2-core machine the benchmark was written on, the first
    multi-threaded OpenBLAS call of a process sometimes stalls for about 1 s;
    left in the loop it would land on one op at random.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).random((512, 256))
    np.linalg.lstsq(a, a[:, 0], rcond=None)
    return time.perf_counter() - start


def setup_in_fresh_process(args) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs ops, times them, checks them and counts failures."""

    def __init__(self, workload, window, seed, workdir):
        self.workload = workload
        self.window = window
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks_run = 0
        self.errors: list[str] = []

    def op_at(self, i: int):
        if i < len(self.window):
            return self.window[i]
        return self.workload.make_op(self.seed, i, self.workdir)

    def timed(self, op, call):
        """Run `call` (which runs `op`) as one attempt; return (output, seconds).

        The output is RAISED when the call raised; the failure is counted here.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            self._fail(op, "raised")
            return RAISED, time.perf_counter() - start
        return out, time.perf_counter() - start

    def check(self, op, out) -> None:
        if out is RAISED:
            return
        self.checks_run += 1
        try:
            op.check(out)
        except Exception:
            self._fail(op, "check failed")

    def _fail(self, op, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_TRACEBACKS:
            text = f"{op.kind}: {what}\n{traceback.format_exc()}"
            self.errors.append(text)
            print(text, file=sys.stderr)

    def finish(self, op) -> None:
        for path in op.files:
            if os.path.exists(path):
                os.remove(path)

    def untraced(self, seconds: float) -> list[float]:
        times = []
        start = time.perf_counter()
        i = 0
        while i < self.workload.window or time.perf_counter() - start < seconds:
            op = self.op_at(i)
            out, elapsed = self.timed(op, op.call)
            self.check(op, out)
            times.append(elapsed)
            self.finish(op)
            i += 1
        return times

    def traced(self, seconds: float, tracer):
        """Run each op once untraced and once traced, alternating which goes first."""
        plain, traced, kinds = [], [], {}
        start = time.perf_counter()
        i = 0
        while i < self.workload.window or time.perf_counter() - start < seconds:
            op = self.op_at(i)
            kinds[i] = op.kind
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        out, elapsed = self.timed(op, lambda: tracer.run_op(i, op.call))
                    finally:
                        tracer.remove()
                    traced.append(elapsed)
                else:
                    out, elapsed = self.timed(op, op.call)
                    plain.append(elapsed)
                self.check(op, out)
            self.finish(op)
            i += 1
        return plain, traced, kinds


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q, method="linear"))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        os.environ["DCQDLAB_OUTPUT_DIR"] = workdir
        try:
            workload, window, digest = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the benchmark or dcqdlab from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "inputs_sha256": digest}))
            return 0
        return run(args, workload, window, digest, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, window, digest, setup_s, workdir) -> int:
    runner = Runner(workload, window, args.seed, workdir)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    detail["blas_warmup_s"] = warm_blas()
    same_inputs = True
    if args.trace == 0:
        setups = [setup_s]
        for _ in range(SETUP_SAMPLES - 1):
            child = setup_in_fresh_process(args)
            setups.append(child["setup_s"])
            same_inputs &= child["inputs_sha256"] == digest
        detail["same_inputs_in_fresh_process"] = same_inputs
        times = runner.untraced(args.seconds)
        metrics = {
            "ops_per_s": metric(len(times) / sum(times), "1/s"),
            "op_p50_s": metric(percentile(times, 50), "s"),
            "op_p90_s": metric(percentile(times, 90), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
        detail.update(op_samples=len(times), setup_samples_s=setups)
    else:
        import spans

        tracer = spans.Tracer()
        plain, traced, kinds = runner.traced(args.seconds, tracer)
        summary = spans.summarize(tracer, set(range(workload.window)), len(traced), kinds)
        metrics = {name: metric(v, unit) for name, (v, unit) in summary["metrics"].items()}
        metrics["trace.ops"] = metric(len(traced), "count")
        metrics["trace.ops_per_s_untraced"] = metric(len(plain) / sum(plain), "1/s")
        metrics["trace.ops_per_s_traced"] = metric(len(traced) / sum(traced), "1/s")
        metrics["trace.overhead_frac"] = metric(sum(traced) / sum(plain) - 1.0, "ratio")
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        detail.update(
            op_samples=len(traced),
            window_kinds=summary["per_kind"],
            spans_file=os.path.relpath(spans_path, ROOT),
            spans=len(tracer.spans),
        )
    detail.update(
        inputs_sha256=digest,
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=runner.failed / runner.attempted,
        checks_run=runner.checks_run,
        errors=runner.errors,
        provenance=provenance(),
    )
    correct = runner.failed == 0 and runner.checks_run == runner.attempted and same_inputs
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
