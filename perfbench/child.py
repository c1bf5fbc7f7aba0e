"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --mode {setup,run,trace}

``setup`` imports the package, builds the workload's problem and prints
the monotonic clock reading at which that finished; ``run`` then also
times the workload call and checks its result; ``trace`` does the same
with spans recorded.  The last stdout line is one JSON object.  The
package is taken from ``src/`` of the checkout this file lives in.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import obstacle_afem
    origin = Path(obstacle_afem.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"obstacle_afem imported from {origin}, "
                          f"not from {ROOT / 'src'}")
    return obstacle_afem


def _count_marked(oa):
    """Record len(marked) of every refine call of the adaptive loop."""
    counts = []
    refine = oa.adapt.refine

    def counting_refine(mesh, marked):
        counts.append(len(marked))
        return refine(mesh, marked)

    oa.adapt.refine = counting_refine
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    oa = _import_package()
    import workloads
    factory, run = workloads.WORKLOADS[args.workload]
    problem = getattr(oa.problems, factory)()
    out = {"setup_end": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    golden = workloads.load_golden()
    marked = _count_marked(oa)
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer().install()
    t0 = time.perf_counter()
    result, j_ref = run(oa, problem)
    out["run_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    failures, observed = workloads.check(oa, args.workload, problem, result,
                                         j_ref, golden)
    out.update(
        failures=failures,
        observed=observed,
        levels=len(result.records),
        final_N=result.records[-1].n_elements,
        fingerprint=workloads.fingerprint(result, marked),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out.update(
            layers=spans.layer_metrics(tracer.spans),
            top_level_s=spans.top_level_seconds(tracer.spans),
            phase_rows=spans.phase_rows(tracer.spans),
            absent=tracer.absent,
            n_spans=len(tracer.spans),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
