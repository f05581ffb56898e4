"""risnoma benchmark: one workload per process, end-to-end metrics by
default, per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload syslevel-eepa --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is the result as one JSON
object. See README.md for the workloads and metrics.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_out")

# One thread per numeric library, set before numpy is first imported.
THREAD_ENV = {
    k: "1"
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

# Import time of the package's CLI module in a fresh interpreter; the
# package is risnoma, or the frozen copy that calibrates it.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); __import__(sys.argv[1] + '.cli'); "
    "print(repr(time.perf_counter() - t))"
)
IMPORT_SAMPLES = 5
IMPORT_REF_SECONDS = 0.15  # the frozen import's median on a 2-vCPU Intel Xeon VM


def prepare() -> None:
    """Point imports at the checkout's ``src/`` and import ``risnoma.cli``.
    Exits with code 2 when there is no source."""
    if not os.path.isfile(os.path.join(SRC, "risnoma", "cli.py")):
        print(f"no risnoma source under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import risnoma.cli  # noqa: F401

    if not os.path.abspath(risnoma.cli.__file__).startswith(SRC + os.sep):
        print(f"risnoma imported from {risnoma.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> list:
    """Import time of ``risnoma.cli`` in fresh interpreters, in reference
    seconds: each sample is bracketed by imports of the frozen copy, the
    way sections are bracketed by calibrations (see calibrate.py)."""
    import subprocess

    import calibrate

    def probe(package: str, path: str) -> float:
        env = dict(os.environ, PYTHONPATH=path, **THREAD_ENV)
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, package], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return float(out.stdout)

    samples = []
    before = probe("risnoma_seed", calibrate.FROZEN)
    for _ in range(IMPORT_SAMPLES):
        raw = probe("risnoma", SRC)
        after = probe("risnoma_seed", calibrate.FROZEN)
        samples.append(raw * calibrate.scale(IMPORT_REF_SECONDS, before, after))
        before = after
    return samples


def environment() -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "risnoma")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"  # a source checkout need not be a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import json
    import resource
    import shutil
    import statistics

    import layers
    import reference
    from spans import Tracer

    os.makedirs(SCRATCH, exist_ok=True)
    outdir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, outdir)
        calibration = workloads.make_calibration(args.workload, outdir)
        tracer = Tracer(layers.HOOKS) if args.trace else None
        warm_up, plain, traced = workloads.closed_loop(workload, calibration, args.seconds, tracer)
        sections = [warm_up] + plain + [t.section for t in traced]
        attempted = sum(s.attempted for s in sections)
        failed = sum(s.failed for s in sections)

        if args.trace:
            metrics = {}
            for name in layers.PER_LAYER:
                metrics[name] = statistics.median(t.layers.get(name, 0.0) for t in traced)
            metrics["trace.overhead_s"] = statistics.median(t.section.wall for t in traced) - statistics.median(
                s.wall for s in plain
            )
            metrics["trace.hooks_missing"] = len(tracer.missing)
            ref_out = os.path.join(outdir, "reference.csv")
            if workloads.invoke_cli(reference.ARGV + ["--out", ref_out]):
                metrics["check.max_rel_dev"] = reference.max_rel_dev(workloads.read_means(ref_out), reference.load())
            else:
                metrics["check.max_rel_dev"] = 1.0
            tracer.dump(os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            if tracer.missing:
                print(f"missing hooks: {', '.join(sorted(tracer.missing))}")
            units = layers.PER_LAYER
        else:
            # times in reference seconds; see calibrate.py
            latencies = [x * s.scale for s in plain for x in s.latencies]
            tail = workloads.tail_percentile(len(latencies))
            metrics = {
                "setup_s": statistics.median(import_seconds()),
                "wall_ref_s": statistics.median(s.wall * s.scale for s in plain),
                "evals_per_ref_s": statistics.median(s.evals / (s.wall * s.scale) for s in plain),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_p50_ref_ms": 1e3 * statistics.median(latencies),
                "op_p99_ref_ms": 1e3 * workloads.percentile(latencies, tail),
            }
            units = {"setup_s": "s", "wall_ref_s": "s", "evals_per_ref_s": "1/s", "peak_rss_mib": "MiB",
                     "op_p50_ref_ms": "ms", "op_p99_ref_ms": "ms"}
            print(f"sections {len(plain)}  ops {len(latencies)}  op_p99_ref_ms is p{tail}")
            print(f"raw wall_s {statistics.median(s.wall for s in plain):.6g}  "
                  f"reference/raw {statistics.median(s.scale for s in plain):.4g}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:<46} {value:.6g} {units[name]}")
    print(f"{'fail_frac':<46} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print("env " + json.dumps(dict(environment(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                                   trace=args.trace)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    prepare()
    sys.exit(main())
