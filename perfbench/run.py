"""obstacle-afem benchmark: the paper's three experiments, end to end.

    python3 perfbench/run.py --workload e2-adaptive --seed 1 --seconds 25 \
        --trace 0

Runs the workload repeatedly, each sample in a fresh interpreter
(``child.py``), until ``--seconds`` have passed, and checks every result.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it pairs each untraced sample with a traced one and
reports the per-layer metrics and a per-level phase table.  Human-
readable lines come first; the last stdout line is the JSON result.

The seed only shuffles the order of the samples (workload runs and
set-up probes); the workloads' inputs are fixed by the paper.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Set-up is sampled at least this often per run: every workload sample
# gives one reading, extra set-up-only probes make up the rest.
MIN_SETUP_SAMPLES = 7
# The run must end within 180 s: no workload sample starts after
# LAST_START_S, and a sample still running at DEADLINE_S is killed.
LAST_START_S = 120.0
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of each sample: one BLAS/OpenMP thread.

    The cap is below nproc on purpose: on a shared 2-core machine the
    2-thread BLAS made e1-adaptive slower (median 4.00 s against 3.74 s)
    and noisier (coefficient of variation 10% against 3.5%), because its
    threads spin while the Python loop runs.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _commit():
    """HEAD commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """Hash of the package sources, which identifies the code measured
    also in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, env):
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "src_sha256": _source_digest(),
        "python": platform.python_version(),
        **versions, "cpu": _cpu_model(), "nproc": _nproc(),
        "threads": {v: env[v] for v in THREAD_VARS},
    }


def sample(workload, mode, env, timeout):
    """Run one child; returns (parsed JSON, seconds to set-up) or None."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "--workload", workload,
             "--mode", mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"# sample failed ({mode}): killed after {timeout:.0f} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"# sample failed ({mode}, exit {proc.returncode}): {tail[0]}")
        return None
    out = json.loads(lines[-1])
    return out, out["setup_end"] - start


def measure(args, env):
    """Draw samples until --seconds have passed; returns the readings."""
    rng = random.Random(args.seed)
    setups, runs, traced = [], [], []
    probes = 0
    attempted = failed = 0
    begin = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - begin)

    # Warm the file and bytecode caches; CLI users do not pay for them.
    sample(args.workload, "setup", env, left())
    while left() > 0:
        elapsed = time.monotonic() - begin
        done = bool(runs) and (elapsed >= args.seconds
                               or elapsed >= LAST_START_S)
        if done and len(setups) >= MIN_SETUP_SAMPLES:
            break
        need_probes = len(setups) < MIN_SETUP_SAMPLES
        if done or (need_probes and rng.random() < 0.5):
            got = sample(args.workload, "setup", env, left())
            probes += 1
            if got is None:
                raise RuntimeError("set-up probe failed")
            setups.append(got[1])
            continue
        modes = ["run", "trace"] if args.trace else ["run"]
        rng.shuffle(modes)
        for mode in modes:
            attempted += 1
            got = sample(args.workload, mode, env, max(left(), 1.0))
            if got is None:
                failed += 1
                continue
            out, setup_s = got
            setups.append(setup_s)
            if out["failures"]:
                failed += 1
                for f in out["failures"]:
                    print(f"# check failed ({mode}): {f}")
            (traced if mode == "trace" else runs).append(out)
    return setups, runs, traced, attempted, failed, probes


def report_fingerprint(name, runs, golden):
    prints = sorted({r["fingerprint"] for r in runs})
    want = golden[name]["fingerprint"]
    status = "match" if prints == [want] else "MISMATCH"
    print(f"# fingerprint {','.join(prints)} golden {want}: {status}")
    last = runs[-1]
    print(f"# levels {last['levels']} final N {last['final_N']} "
          + " ".join(f"{k}={v!r}" for k, v in last["observed"].items()))


def end_to_end(setups, runs):
    n = len(runs)
    return {
        "run_s": (median([r["run_s"] for r in runs]), "s", n),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB", n),
        "rho_final": (median([r["observed"]["rho"] for r in runs]), "1", n),
        "eps_final": (median([r["observed"]["eps"] for r in runs]), "1", n),
    }


LAYER_UNITS = {"_s": "s", "_frac": "1"}


def per_layer(runs, traced):
    layers = {}
    for key in traced[0]["layers"]:
        unit = next((u for suf, u in LAYER_UNITS.items()
                     if key.endswith(suf)), "count")
        layers[key] = (median([t["layers"][key] for t in traced]), unit,
                       len(traced))
    n = len(traced)
    layers["vi.kkt_max"] = (max(t["observed"]["kkt"] for t in traced), "1", n)
    # Samples are drawn in pairs, so the ratio within a pair cancels most
    # of the machine's drift in speed.
    pairs = list(zip(runs, traced))
    overhead = median([t["run_s"] / r["run_s"] for r, t in pairs]) - 1.0
    unaccounted = median([1.0 - t["top_level_s"] / t["run_s"]
                          for t in traced])
    layers["trace.overhead_frac"] = (overhead, "1", len(pairs))
    layers["trace.unaccounted_frac"] = (unaccounted, "1", n)
    first = traced[0]
    print(f"# traced run_s {median([t['run_s'] for t in traced]):.4f} "
          f"untraced {median([r['run_s'] for r in runs]):.4f}; "
          f"{first['n_spans']} spans")
    print(f"# top-level phases cover {100 * (1 - unaccounted):.2f}% of the "
          f"traced run_s; unaccounted {unaccounted:.4f} vs overhead "
          f"{overhead:.4f}")
    print("# absent targets: " + (", ".join(first["absent"]) or "none"))
    for line in spans.format_phase_table(first["phase_rows"]):
        print("# " + line)
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "obstacle_afem" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    env = child_env()
    print("# provenance " + json.dumps(provenance(args, env)))

    setups, runs, traced, attempted, failed, probes = measure(args, env)
    if not runs or (args.trace and not traced):
        print("error: no workload sample completed", file=sys.stderr)
        return 1
    report_fingerprint(args.workload, runs + traced, golden)
    metrics = end_to_end(setups, runs)
    if args.trace:
        metrics = per_layer(runs, traced)
    print(f"# samples: {len(runs)} untraced, {len(traced)} traced, "
          f"{probes} set-up probes; fail_frac {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    for key, (value, unit, n) in metrics.items():
        print(f"# {key} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
