"""trasr benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Workloads: train-desk, train-paper,
decode-beam (see BENCHMARK.json for why each exists). `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of one traced unit of
work and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every operation succeeded and matched its stored reference; 1 on
a failed or mismatched operation; 2 when the workload cannot be set up
(for example when the checkout holds no trasr sources).
"""

import argparse
import json
import math
import os
import shutil
import sys

import env

BLAS_THREADS = env.pin_blas()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="trasr benchmark")
    p.add_argument("--workload", required=True,
                   choices=("train-desk", "train-paper", "decode-beam"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.import_trasr()
        import harness
        import selftest
        import workloads
    except env.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    work = env.WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    bench = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            out = harness.run_traced(
                args.workload, args.seed, work,
                env.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                [m["name"] for m in wanted])
        else:
            out = harness.run(args.workload, args.seed, args.seconds, work)
    except harness.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The harness arithmetic is checked before any result is printed, but
    # after the run, so that its time stays out of setup_s.
    selftest.run_all()

    metrics = {}
    for m in wanted:
        value = out.metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            out.fail(0, f"metric {m['name']} not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = out.failed == 0 and not out.problems
    detail = {
        "workload": args.workload,
        "env": env.record(args.seed, workloads.input_set(args.seed), BLAS_THREADS),
        "attempted": out.attempted, "succeeded": out.attempted - out.failed,
        "failed": out.failed, "problems": out.problems, "notes": out.notes,
        "metrics": metrics,
    }
    (env.WORK_DIR / f"result-{tag}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(detail["env"]))
    print(f"operations: attempted {out.attempted}  succeeded {out.attempted - out.failed}"
          f"  failed {out.failed}")
    for problem in out.problems:
        print(f"  problem: {problem}")
    if out.notes:
        print("notes " + json.dumps(out.notes))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
