"""The repository benchmark: trace -> plan -> served metrics at rho ~ 0.8.

Usage::

    python3 perfbench/run.py --workload prefill-stream --seed 1 --seconds 6 --trace 0

Run from the root of a checkout.  The seed makes the inputs (arrival trace,
fault storm); the same seed gives the same inputs and bitwise the same
simulated metrics.  ``--trace 0`` runs a full untraced pass and reports the
end-to-end metrics.  ``--trace 1`` runs an untraced and a traced pass of the
main path, checks they agree bitwise, and reports the per-layer metrics.

Every metric is printed by name with its unit.  The full record (environment,
request ledgers per phase, checks, ladder probes) is written under
``.perfbench_out/``, spans too in a traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count the
benchmark's operations (deploys and served runs) and the checks that failed.
The exit code is 0 only when every check passed.  See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import env  # noqa: E402  (pins the BLAS thread pools before numpy loads)

env.pin()
env.use_source_tree()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = env.ROOT / ".perfbench_out"
#: fresh processes timed from spawn to the first timed call
SETUP_PROBES = 3


def parse_args(argv):
    """Parse the command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(workload: str):
    """Seconds from spawn to the first timed call, raw and corrected, per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, repr(spawned)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, corrected = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(corrected)))
    return samples


def ledger_dict(p):
    """The pass's request ledgers as plain data."""
    return {
        phase: {
            "attempted": ledger.attempted,
            "succeeded": ledger.succeeded,
            "failed": ledger.attempted - ledger.succeeded,
            "slo_met": ledger.slo_met,
            "outcomes": dict(ledger.outcomes),
        }
        for phase, ledger in p.ledgers.items()
    }


def print_metrics(title, metrics, units, not_applicable=()):
    """Print one metric per line, by name and unit."""
    print(title)
    for name, value in metrics.items():
        note = "  (n/a: layer bypassed)" if name in not_applicable else ""
        print(f"  {name:42s} {value:>16.6g} {units[name]}{note}")


def print_ledgers(p):
    """Print the request ledger of every phase."""
    print("requests by phase (failed and shed requests count as SLO misses):")
    for phase, row in ledger_dict(p).items():
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(row["outcomes"].items()) if v)
        print(
            f"  {phase:8s} attempted={row['attempted']} succeeded={row['succeeded']} "
            f"failed={row['failed']} slo_met={row['slo_met']}  [{outcomes}]"
        )


def untraced(args, setup):
    """A full untraced pass: the end-to-end metrics."""
    import pipeline
    import report

    samples = setup_samples(args.workload)
    p = pipeline.run_pass(setup, args.seed, args.seconds, full=True)
    metrics = report.end_to_end(p, samples)
    served = p.served
    print_metrics(
        f"end-to-end metrics ({args.workload}, seed {args.seed}):", metrics, report.END_TO_END_UNITS
    )
    print(
        f"  samples: ttft/tpot percentiles over {served.num_finished} finished of "
        f"{served.num_requests} requests; setup median of {len(samples)} processes; "
        f"schedule median of {len(p.deploys) - 1} warm deploys; main phase best of {len(p.reps)}; "
        f"wall times corrected by the speed probe (main-phase factors "
        f"{', '.join(f'{t.factor:.3f}' for t in p.reps)})"
    )
    print_ledgers(p)
    detail = {
        "setup_samples_s": samples,
        "deploy_raw_s": [d.raw for d in p.deploys],
        "deploy_factors": [d.factor for d in p.deploys],
        "main_rep_raw_s": [t.raw for t in p.reps],
        "main_rep_factors": [t.factor for t in p.reps],
        "main_best_corrected_s": p.best_wall_s,
        "ladder": [
            {"rate": r, "attainment": a, "makespan_over_span": b, "pass": ok}
            for r, a, b, ok in p.ladder
        ],
        "samples": {"finished": served.num_finished, "requests": served.num_requests},
    }
    return p, metrics, detail


def traced(args, setup):
    """An untraced and a traced pass of the main path: the per-layer metrics."""
    import pipeline
    import report
    from tracing import Tracer

    setup.new_system().deploy(seed=pipeline.SCHEDULER_SEED)  # warm lazy imports first
    plain = pipeline.run_pass(setup, args.seed, 0.0, full=False)
    with Tracer() as tracer:
        p = pipeline.run_pass(setup, args.seed, 0.0, full=False)
    for c in plain.checks:
        c.name = f"untraced: {c.name}"
    p.checks.extend(plain.checks)
    p.operations += plain.operations
    p.check("traced plan == untraced plan", p.plan_id == plain.plan_id)
    p.check(
        "traced served metrics == untraced (bitwise)",
        pipeline.same_arrays(p.served, plain.served)
        and pipeline.served_metrics(p) == pipeline.served_metrics(plain),
    )
    if p.live is not None:
        p.check(
            "traced live loop == untraced (bitwise)",
            pipeline.live_signature(p.live) == pipeline.live_signature(plain.live),
        )
    overhead = (p.schedule_s + p.best_wall_s) / (plain.schedule_s + plain.best_wall_s) - 1.0
    metrics = report.per_layer(p, tracer, overhead)
    not_applicable = () if p.live is not None else report.LIVE_ONLY
    print_metrics(
        f"per-layer metrics ({args.workload}, seed {args.seed}, traced pass):",
        metrics, report.PER_LAYER, not_applicable,
    )
    if p.live is not None:
        print("  " + report.table4_note(metrics))
    print_ledgers(p)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans)
    print(f"  {len(tracer.start)} spans written to {spans.relative_to(env.ROOT)}")
    detail = {"not_applicable": list(not_applicable), "spans": len(tracer.start)}
    return p, metrics, detail


def main(argv=None) -> int:
    """Run one workload once and print its result line."""
    args = parse_args(argv)
    try:
        import report
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = workloads.setup(args.workload)
    p, metrics, detail = (traced if args.trace else untraced)(args, setup)
    failed = [c for c in p.checks if not c.ok]
    for c in p.checks:
        print(f"  check {'ok  ' if c.ok else 'FAIL'} {c.name} {c.detail if not c.ok else ''}")
    units = report.PER_LAYER if args.trace else report.END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env.record(args.seed),
        "plan_id": p.plan_id,
        "metrics": metrics,
        "requests": ledger_dict(p),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in p.checks],
        "process_wall_s": time.perf_counter() - PROCESS_START,
        **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"record written to {out.relative_to(env.ROOT)}")
    result = {
        "correct": not failed,
        "attempted": p.operations,
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
