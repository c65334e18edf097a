"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...]

Run from the repository root.  For each workload it makes one untraced and
two traced short runs and checks that

* every emitted metric name and unit matches BENCHMARK.json, and no name is
  missing or extra;
* the result is correct, nothing failed and every op's output check ran;
* the inputs hash of a fresh process agrees with the run's own, and the same
  seed gives the same hash while another seed gives another;
* the exact counters repeat between the two traced runs.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.  An untraced
exact_n3 run makes two 16 s ops and a traced one two pairs, so the whole
test takes several minutes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXACT_COUNTERS = (
    "dcqd.measurement_basis.per_config",
    "ops.pauli_basis.calls",
    "numpy.kron.calls",
    "inversion.design_mb",
)


def bench(*args, cwd=ROOT, run=RUN):
    done = subprocess.run(
        [sys.executable, run, *map(str, args)], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return done


def result_of(done) -> tuple[dict, dict]:
    if done.returncode != 0:
        raise SystemExit(f"benchmark exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def expect(ok: bool, message: str, failures: list) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def check_run(workload, trace, spec, failures) -> dict:
    detail, result = result_of(bench("--workload", workload, "--seed", 1, "--seconds", 1, "--trace", trace))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys", failures)
    expect(got == want, f"{tag}: metric names and units match BENCHMARK.json", failures)
    expect(result["correct"] and result["failed"] == 0, f"{tag}: correct, 0 failed", failures)
    expect(
        result["attempted"] >= 1 and detail["checks_run"] == result["attempted"],
        f"{tag}: {detail['checks_run']} of {result['attempted']} output checks ran",
        failures,
    )
    if trace == 0:
        expect(detail["same_inputs_in_fresh_process"], f"{tag}: fresh processes drew the same inputs", failures)
    return result["metrics"]


def check_seeds(workload, failures) -> None:
    def digest(seed):
        done = bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", 0, "--setup-only")
        return json.loads(done.stdout.strip().splitlines()[-1])["inputs_sha256"]

    a, b, c = digest(7), digest(7), digest(8)
    expect(a == b and a != c, f"{workload}: same seed same inputs, other seed other inputs", failures)


def check_bare_directory(failures) -> None:
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(
            "--workload", "cli_reports", "--seed", 1, "--seconds", 1, "--trace", 0,
            cwd=bare, run=os.path.join(bare, "perfbench", "run.py"),
        )
        expect(
            done.returncode != 0 and '"correct"' not in done.stdout,
            "without src/ the benchmark fails and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="smoke test of the benchmark")
    p.add_argument("--workload", action="append", choices=names)
    workloads = p.parse_args().workload or names
    failures: list[str] = []
    check_bare_directory(failures)
    for workload in workloads:
        check_seeds(workload, failures)
        check_run(workload, 0, spec, failures)
        first = check_run(workload, 1, spec, failures)
        second = check_run(workload, 1, spec, failures)
        for name in EXACT_COUNTERS:
            expect(
                first[name]["value"] == second[name]["value"],
                f"{workload}: {name} = {first[name]['value']} in both traced runs",
                failures,
            )
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
