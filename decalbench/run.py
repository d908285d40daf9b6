#!/usr/bin/env python3
"""Benchmark of decal training, challenge eval, serving and the int8 AV loop.

Run from the repository root::

    python3 decalbench/run.py --workload attack_train --seed 1 --seconds 10 --trace 0

Each invocation is one process running one workload on the smoke profile
(``Workbench.smoke``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced run. The last
line of standard output is the JSON result; the line before it is a
detail report (host fingerprint, settings, sample counts, chosen tail
percentile, check results). Spans of a traced run are written to
``.decalbench_out/``. See ``LAYERS.md`` for what every number means.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

#: Pinned before numpy is first imported, and inherited by spawned pool
#: workers. One BLAS thread per process: with OpenBLAS's default two
#: threads on a 2-CPU host, attack steps/s varied 14% between identical
#: processes; pinned, 2%.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics and units, in the order of ``LAYERS.md``. Every
#: traced run reports all of them; a layer a workload never calls is 0.
QUANT_CONVS = tuple(f"conv{i}" for i in range(1, 12)) + ("head_coarse", "head_fine")
PER_LAYER = {
    "nn.conv2d_ms": "ms", "nn.conv2d_gflop": "GFLOP",
    "nn.backward_ms": "ms", "nn.optim_ms": "ms",
    "gan.generator_ms": "ms", "gan.discriminator_ms": "ms",
    "gan.warmup_step_ms": "ms", "eot.transform_ms": "ms",
    "patch.composite_ms": "ms", "patch.paste_ms": "ms",
    "attack.loss_ms": "ms", "runtime.checkpoint_ms": "ms",
    "runtime.checkpoints": "count", "runtime.recoveries": "count",
    "scene.render_ms": "ms", "detection.forward_ms": "ms",
    "detection.decode_ms": "ms", "detection.nms_ms": "ms",
    "detection.candidates": "count", "eval.score_ms": "ms",
    "quant.forward_ms": "ms",
    **{f"quant.{name}_ms": "ms" for name in QUANT_CONVS},
    "quant.calibrate_s": "s",
    "av.confirm_ms": "ms", "av.plan_ms": "ms",
    "serve.submit_ms": "ms", "serve.server_latency_ms": "ms",
    "serve.batch_occupancy": "count", "serve.max_queue_depth": "count",
    "serve.shed": "count", "serve.timeouts": "count",
    "serve.generator_late_ms": "ms", "serve.start_s": "s",
    "parallel.respawns": "count", "parallel.requeues": "count",
    "trace.overhead_pct": "%",
}

OUT_DIR = ".decalbench_out"
#: Set-ups per run: ``setup_s`` is their median. A traced run reports no
#: ``setup_s`` and sets up once.
SETUPS = {0: 3, 1: 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knob (selftest.py); without it, the run is the benchmark.
    parser.add_argument("--inject", default=None,
                        help="inject a fault the output checks must catch")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "experiments.py")):
        print("decalbench: no repro sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Spawned pool workers import repro the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    import harness
    import workloads
    from tracing import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        print(f"decalbench: unknown workload {args.workload!r}; choices: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds,
        setups=SETUPS[args.trace],
        cache_root=cache_root, tracer=tracer, inject=args.inject)
    try:
        if tracer is not None:
            instrument(tracer)
        outcome, end_to_end, per_layer, detail = workloads.WORKLOADS[args.workload](ctx)
    finally:
        try:
            for cleanup in ctx.cleanups:
                cleanup()
        finally:
            harness.stop_children()
        if tracer is not None:
            tracer.restore()
            tracer.write(os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(cache_root, ignore_errors=True)

    if args.trace:
        metrics = {name: (float(per_layer.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = end_to_end
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": ctx.setups, "inject": args.inject,
        "host": harness.host_fingerprint(PINNED_ENV), "settings": workloads.SETTINGS,
        "checks": {"correct": outcome.correct, "problems": outcome.problems},
        "detail": detail,
    }
    harness.emit(outcome, metrics, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
