"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table {1,2,3}``
    Print a paper table.
``figure <figNN>``
    Regenerate a paper figure's data series (see ``figure --list``).
``platforms``
    Show the registered accelerator simulators.
``bench``
    Model one compressor configuration on one platform.
``compress`` / ``decompress``
    Compress a ``.npy`` array into a ``.dcz`` container and back.
``autotune``
    Pick the highest ratio meeting a PSNR floor on calibration data.
``inspect``
    Compile a compressor for a platform and print the profiler-style
    report (traced ops, cost, timing-term breakdown, energy).
``resilience-demo``
    Script a fault plan (transient link fault, mid-training device loss,
    SN30 512x512 OOM) and show the resilience layer recovering each one.
``serve-demo``
    Replay a seeded synthetic request trace through the serving layer
    (plan cache + dynamic batcher + scheduler), print the stats table,
    and verify cache hit rate, batching speedup, and bit-identity
    against the unbatched path.  ``--trace-out PATH`` additionally
    attaches a :class:`~repro.obs.trace.Tracer` and writes every
    request's span tree as JSONL; ``--metrics-out PATH`` dumps the
    metrics registry in Prometheus text format.  ``--deadline S``
    attaches an :class:`~repro.serve.overload.OverloadPolicy` giving
    every request a relative deadline; ``--shed-policy degrade``
    re-admits predicted misses at a cheaper chop factor instead of
    shedding them.  Exits 2 when any SLO check fails.
``chaos-soak``
    Replay a seeded fault storm through the overload-hardened service
    and check the chaos contract: accepted outputs bit-identical to the
    unfaulted compressor, every request accounted for, p95 within
    budget, and a full breaker recovery cycle.  With ``--fleet``, soak a
    multi-worker fleet instead: a seeded storm crashes/hangs workers
    mid-trace while the fleet contract is checked (bit-identity, full
    per-tenant accounting, per-tenant p95, weighted-fair quotas with no
    starvation, every crashed worker rejoining warm).  ``--slo`` (fleet
    mode) turns on the observatory: cross-worker trace propagation,
    burn-rate alerting, critical-path attribution, and the flight
    recorder, plus the determinism / attribution / zero-overhead
    checks; ``--trace-out PATH`` writes the instrumented run's trace
    JSONL.  Exits 2 on failure.
``fleet-demo``
    Replay a multi-tenant trace through the sharded fleet
    (:mod:`repro.fleet`): consistent-hash routing with bounded-load
    spill, a worker crash storm with warm plan-cache handoff, and
    queue/p95-driven autoscaling over the simulated instance pool.
    Prints the fleet stats table; exits 2 when accounting, bit-identity,
    or recovery checks fail.  ``--slo`` attaches the SLO observatory
    (tracer + burn-rate monitor + flight recorder): the alert timeline
    is printed, every span tree is validated, and ``--trace-out`` /
    ``--metrics-out`` dump the trace JSONL and Prometheus metrics.
``obs-report``
    Render a per-stage latency / byte breakdown from a trace JSONL file
    written by ``serve-demo --trace-out`` or ``fleet-demo --trace-out``.
    ``--by-worker`` / ``--by-tenant`` add grouped fleet views (the
    per-worker grouping renders automatically when a trace names more
    than one worker).
``slo-report``
    Critical-path attribution from a trace JSONL file: per-stage totals
    (queue / batch wait / compile / device / retry / replay / handoff),
    p95-tail attribution coverage, the hottest workers / tenants / chop
    factors, and the SLO alert timeline embedded in the trace.
    ``--min-coverage`` turns the attribution bar into an exit code.

Global flags: ``--quiet`` suppresses informational diagnostics,
``--verbose`` enables debug-level ones (both route through
:mod:`repro.obs.log`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from repro.errors import CompileError, ConfigError, DeviceError, IntegrityError


def _guarded(fn):
    """Catch expected I/O and validation failures at the command boundary.

    Users get a one-line message and exit code 2 instead of a traceback.
    """

    @functools.wraps(fn)
    def wrapper(args) -> int:
        try:
            return fn(args)
        except (OSError, IntegrityError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def _cmd_table(args) -> int:
    from repro.harness import format_table, table1, table2, table3

    tables = {
        "1": lambda: format_table(table1(), "Table 1: Accelerator specifications"),
        "2": lambda: format_table(table2(), "Table 2: Image datasets"),
        "3": lambda: format_table(table3(args.scale), "Table 3: Evaluation benchmarks"),
    }
    print(tables[args.number]())
    return 0


def _cmd_figure(args) -> int:
    from repro.harness.figures import FIGURES

    if args.list or args.name is None:
        print("available figures:", ", ".join(sorted(FIGURES)))
        return 0
    fn = FIGURES.get(args.name)
    if fn is None:
        print(f"unknown figure {args.name!r}; try --list", file=sys.stderr)
        return 2
    kwargs = {}
    if args.name in ("fig07", "fig08", "fig16"):
        kwargs["scale"] = args.scale
        if args.epochs:
            kwargs["epochs"] = args.epochs
    print(fn(**kwargs))
    return 0


def _cmd_platforms(args) -> int:
    from repro.accel import get_platform, platform_names
    from repro.accel.spec import GB, MB

    for name in platform_names():
        spec = get_platform(name)
        ocm = (
            f"{spec.onchip_memory_bytes / GB:.0f} GB"
            if spec.onchip_memory_bytes >= GB
            else f"{spec.onchip_memory_bytes / MB:.0f} MB"
        )
        print(
            f"{name:>6}: {spec.vendor:<10} {spec.architecture:<9} "
            f"{spec.compute_units:>7} CUs, {ocm:>7} on-chip — {spec.notes}"
        )
    return 0


def _cmd_bench(args) -> int:
    from repro.harness import measure

    if args.suite:
        return _bench_suite(args)
    if args.faults or args.max_retries is not None:
        return _bench_resilient(args)
    point = measure(
        args.platform,
        resolution=args.resolution,
        cf=args.cf,
        direction=args.direction,
        batch=args.batch,
        channels=args.channels,
        method=args.method,
        s=args.s,
    )
    if point.status != "ok":
        print(f"compile error on {args.platform}: {point.reason}")
        return 1
    print(
        f"{args.platform} {args.direction} {args.method} cf={args.cf} "
        f"(CR {point.ratio:.2f}) on {args.batch}x{args.channels}x"
        f"{args.resolution}x{args.resolution}:"
    )
    print(f"  modelled time:  {point.seconds * 1e3:10.3f} ms")
    print(f"  throughput:     {point.throughput_gbps:10.2f} GB/s (vs uncompressed)")
    return 0


def _bench_suite(args) -> int:
    """Run the seeded wall-clock micro-benchmark suite (repro.bench).

    Exit codes: 0 = ok, 1 = usage/IO problem, 2 = perf regression or
    bit-identity failure against the baseline.
    """
    from repro import bench

    if args.refresh:
        if not args.out:
            print("--refresh needs --out to write the merged baseline", file=sys.stderr)
            return 1
        reports = [
            bench.run_suite(seed=args.seed, repeats=args.repeats)
            for _ in range(args.refresh)
        ]
        merged = bench.merge_reports(reports)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"merged {args.refresh} suite runs -> {args.out} "
            f"(median speedup {merged['median_speedup']:.2f}x)"
        )
        return 0

    report = bench.run_suite(seed=args.seed, repeats=args.repeats)
    print(
        f"bench suite: {len(report.cases)} cases, seed={report.seed}, "
        f"repeats={report.repeats}, calibration {report.calibration_s * 1e3:.3f} ms"
    )
    for s in report.speedups:
        marker = "" if s.identical else "  [OUTPUT MISMATCH]"
        print(
            f"  n={s.n} cf={s.cf} {s.direction}: dense {s.dense_median_s * 1e3:.2f} ms"
            f" -> fast {s.fast_median_s * 1e3:.2f} ms ({s.speedup:.1f}x){marker}"
        )
    print(f"  median fast-path speedup at n=512: {report.median_speedup:.2f}x")
    for row in report.precision:
        print(
            f"  precision {row['name']}: ratio {row['ratio']:.1f}x "
            f"nrmse {row['nrmse']:.5f} psnr {row['psnr']:.1f} dB "
            f"roundtrip {row['median_s'] * 1e3:.2f} ms"
        )
    if args.out:
        report.write(args.out)
        print(f"wrote {args.out}")
    if not args.baseline:
        return 0
    try:
        baseline = bench.load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
        return 1
    result = bench.compare(report, baseline, tolerance=args.tolerance)
    if result.regressions and not result.failures:
        # Timing-only regressions must reproduce on an immediate rerun
        # before they fail the gate: a sustained slow phase on a shared
        # host shifts whole runs, and one sample of one phase is not
        # evidence the code got slower.  Hard failures (bit-identity,
        # checksum-backed) never get this second chance.
        print(
            f"bench: {len(result.regressions)} timing regression(s); "
            "re-running suite once to confirm"
        )
        rerun = bench.run_suite(seed=args.seed, repeats=args.repeats)
        confirm = bench.compare(rerun, baseline, tolerance=args.tolerance)
        confirmed_keys = {line.split(":", 1)[0] for line in confirm.regressions}
        result.regressions = [
            line
            for line in result.regressions
            if line.split(":", 1)[0] in confirmed_keys
        ]
        result.failures.extend(confirm.failures)
    for warning in result.warnings:
        print(f"warning: {warning}")
    for line in result.regressions + result.failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not result.ok:
        print(
            f"bench: {len(result.regressions) + len(result.failures)} "
            f"regression(s) vs {args.baseline}",
            file=sys.stderr,
        )
        return 2
    print(f"bench: no regressions vs {args.baseline}")
    return 0


@_guarded
def _bench_resilient(args) -> int:
    """Bench through the resilience layer: ladder compile + retried run."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.resilience import RecoveryLog, ResilientCompressor, RetryPolicy

    plan = FaultPlan.load(args.faults) if args.faults else FaultPlan()
    log = RecoveryLog()
    rc = ResilientCompressor(
        args.resolution,
        platform=args.platform,
        method=args.method,
        cf=args.cf,
        s=args.s,
        batch=args.batch,
        channels=args.channels,
        retry=RetryPolicy(max_retries=args.max_retries if args.max_retries is not None else 3),
        log=log,
    )
    with FaultInjector(plan):
        try:
            result = rc.compile(args.direction)
        except CompileError as exc:
            print(f"unrecoverable compile error: {exc}", file=sys.stderr)
            print(log.summary(), file=sys.stderr)
            return 1
        if args.direction == "compress" and any(f.site == "run" for f in plan.faults):
            shape = (args.batch, args.channels, args.resolution, args.resolution)
            try:
                rc.compress(np.zeros(shape, np.float32))
            except DeviceError as exc:
                print(f"unrecoverable device fault: {exc}", file=sys.stderr)
                print(log.summary(), file=sys.stderr)
                return 1
    attempt = result.attempt
    per_run = result.program.estimated_time() * attempt.n_devices
    print(
        f"{args.platform} {args.direction} resolved to [{attempt.describe()}] "
        f"(CR {result.comp.ratio:.2f})"
    )
    print(f"  modelled time:  {per_run * 1e3:10.3f} ms")
    if log.events:
        print("recovery log:")
        print(log.summary())
    return 0


@_guarded
def _cmd_compress(args) -> int:
    from repro.core import container, make_compressor
    from repro.faults import FaultInjector, FaultPlan

    data = np.load(args.input).astype(np.float32)
    if data.ndim < 2:
        print("input must be at least 2-D", file=sys.stderr)
        return 2
    comp = make_compressor(
        data.shape[-2], data.shape[-1], method=args.method, cf=args.cf, s=args.s
    )
    plan = FaultPlan.load(args.faults) if args.faults else FaultPlan()
    with FaultInjector(plan) as inj:
        path = container.save(args.output, data, comp)
    blob = path.read_bytes()
    note = " [payload fault injected]" if inj.records else ""
    print(
        f"{args.input} ({data.nbytes} B) -> {path} ({len(blob)} B), "
        f"ratio {container.packed_ratio(blob):.2f}x{note}"
    )
    return 0


@_guarded
def _cmd_decompress(args) -> int:
    from repro.core import container

    rec, header = container.load(args.input)
    np.save(args.output, rec)
    print(
        f"{args.input} -> {args.output}: shape {tuple(header['shape'])}, "
        f"method {header['method']}, cf {header['cf']}"
    )
    return 0


def _cmd_resilience_demo(args) -> int:
    """End-to-end tour of the resilience layer under a scripted fault plan."""
    import tempfile
    from pathlib import Path

    from repro.data.loader import DataLoader, Dataset
    from repro.faults import FaultInjector, FaultPlan
    from repro.nn.layers import Conv2d, ReLU
    from repro.nn.losses import MSELoss
    from repro.nn.module import Sequential
    from repro.resilience import (
        RecoveryLog,
        ResilientCompressor,
        RetryPolicy,
        compile_with_ladder,
    )
    from repro.tensor.random import manual_seed
    from repro.train import TrainConfig, Trainer

    class _Identity(Dataset):
        """Tiny denoise-style set: reconstruct the input field."""

        def __init__(self, n=8, size=8):
            g = np.random.default_rng(42)
            self.xs = g.standard_normal((n, 1, size, size)).astype(np.float32)

        def __len__(self):
            return len(self.xs)

        def __getitem__(self, i):
            return self.xs[i], self.xs[i]

    def build_trainer():
        manual_seed(0)
        model = Sequential(Conv2d(1, 2, 3, padding=1), ReLU(), Conv2d(2, 1, 3, padding=1))
        return Trainer(model, MSELoss(), TrainConfig(epochs=3, lr=1e-2))

    def loaders():
        from repro.tensor.random import Generator

        data = _Identity()
        return (
            DataLoader(data, batch_size=4, shuffle=True, gen=Generator(1)),
            DataLoader(data, batch_size=4),
        )

    epochs, steps_per_epoch = 3, 2
    plan = (
        FaultPlan(seed=7)
        .add("run", "host_link_timeout", after=0)
        .add("compile", "oom", platform="sn30", after=0)
        # Fires on the second batch of the second epoch — mid-training.
        .add("train_step", "device_lost", after=steps_per_epoch + 1)
    )
    print("fault plan:")
    for f in plan.faults:
        print(f"  - {f.kind} at site {f.site!r}" + (f" on {f.platform}" if f.platform else ""))

    # Reference run, no faults, for the bit-identical-resume check.
    ref_trainer = build_trainer()
    ref_train, ref_test = loaders()
    ref_history = ref_trainer.fit(ref_train, ref_test, epochs)

    with FaultInjector(plan):
        # 1. Transient host-link fault: retried with backoff.
        print("\n[1] transient host-link fault during an IPU run")
        log1 = RecoveryLog()
        rc = ResilientCompressor(
            64,
            platform="ipu",
            batch=4,
            channels=1,
            retry=RetryPolicy(max_retries=3, sleep=lambda _s: None),
            log=log1,
        )
        rc.compress(np.zeros((4, 1, 64, 64), np.float32))
        print(log1.summary())
        retried = any(e.action == "recovered" for e in log1)

        # 2. SN30 512x512 OOM: recovered by the partial-serialization rung.
        print("\n[2] SN30 compile OOM at 512x512")
        log2 = RecoveryLog()
        result = compile_with_ladder(
            512, platform="sn30", batch=4, channels=1, log=log2
        )
        print(log2.summary())
        print(f"  -> resolved to [{result.attempt.describe()}]")
        ps_rung = result.attempt.rung == "ps"

        # 3. Mid-training device loss: resume from checkpoint.
        print("\n[3] device loss mid-epoch during training")
        log3 = RecoveryLog()
        trainer = build_trainer()
        train_loader, test_loader = loaders()
        with tempfile.TemporaryDirectory() as tmp:
            history = trainer.fit(
                train_loader,
                test_loader,
                epochs,
                checkpoint_path=Path(tmp) / "demo.ckpt",
                recovery_log=log3,
            )
        print(log3.summary())

    resumed = any(e.action == "restore" for e in log3)
    identical = history.final_train_loss == ref_history.final_train_loss
    print(
        f"\nfinal train loss: interrupted {history.final_train_loss:.6f} "
        f"vs uninterrupted {ref_history.final_train_loss:.6f} "
        f"({'identical' if identical else 'MISMATCH'})"
    )
    ok = retried and ps_rung and resumed and identical
    print("resilience demo:", "all recoveries verified" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_serve_demo(args) -> int:
    """Replay a synthetic trace through the serving layer and verify it."""
    from repro.core import make_compressor
    from repro.serve import CompressionService, synthetic_trace

    platforms = tuple(p.strip() for p in args.platforms.split(",") if p.strip())
    if not platforms:
        print("error: --platforms must name at least one platform", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(seed=args.seed)

    def overload_policy():
        if args.deadline is None and args.shed_policy == "shed":
            return None
        from repro.serve import OverloadPolicy

        return OverloadPolicy(
            default_deadline=args.deadline, shed_policy=args.shed_policy
        )

    trace = synthetic_trace(args.requests, seed=args.seed)
    service = CompressionService(
        platforms,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        policy=args.policy,
        cache_capacity=args.cache_capacity,
        overload=overload_policy(),
        tracer=tracer,
    )
    print(
        f"replaying {args.requests} requests (seed {args.seed}) on "
        f"{','.join(platforms)} [policy {args.policy}, max_batch {args.max_batch}, "
        f"max_wait {args.max_wait * 1e3:g} ms"
        + (
            f", deadline {args.deadline * 1e3:g} ms, shed-policy {args.shed_policy}"
            if args.deadline is not None
            else ""
        )
        + "]\n"
    )
    responses, stats = service.process(trace)
    print(stats.format_table())

    # Baseline: the pre-serving world — one instance, one request per run.
    sequential = CompressionService(
        (platforms[0],),
        max_batch=1,
        max_wait=0.0,
        policy=args.policy,
        cache_capacity=args.cache_capacity,
    )
    _, seq_stats = sequential.process(synthetic_trace(args.requests, seed=args.seed))
    speedup = seq_stats.busy_s / stats.busy_s if stats.busy_s else 0.0
    print(
        f"\nmodelled device time: batch=1 sequential {seq_stats.busy_s * 1e3:9.3f} ms"
        f"\n                      dynamic batching   {stats.busy_s * 1e3:9.3f} ms"
        f"  ({speedup:.2f}x reduction)"
    )

    # Bit-identity: every served image must equal the unbatched host path.
    compressors = {}
    mismatches = 0
    for r in responses:
        req = r.request
        key = req.key
        comp = compressors.get(key)
        if comp is None:
            comp = compressors[key] = make_compressor(
                key.height, key.width, method=key.method, cf=key.cf, s=key.s, block=key.block
            )
        ref = comp.compress(req.image[None]).numpy()[0]
        if not np.array_equal(ref, r.output):
            mismatches += 1

    checks = [
        ("zero failed requests", stats.n_failed == 0),
        (
            f"plan-cache hit rate {stats.cache_hit_rate:.1%} >= {args.min_hit_rate:.0%}",
            stats.cache_hit_rate >= args.min_hit_rate,
        ),
        (
            "dynamic batching reduces modelled device time",
            stats.n_batches > 0 and stats.busy_s < seq_stats.busy_s,
        ),
        (f"per-image outputs bit-identical ({mismatches} mismatches)", mismatches == 0),
    ]
    if stats.overload_active:
        accounted = len(responses) + stats.n_shed + stats.n_failed
        checks.append(
            (
                f"every request accounted for (served {len(responses)}, "
                f"shed {stats.n_shed}, degraded {stats.n_degraded})",
                accounted == stats.n_requests,
            )
        )

    if tracer is not None:
        from pathlib import Path

        from repro.obs import validate_trace

        by_tid = {r.trace_id: r for r in responses}
        bad_trees = bad_sums = 0
        for tid in tracer.trace_ids():
            try:
                validate_trace(tracer, tid)
            except ConfigError:
                bad_trees += 1
                continue
            resp = by_tid.get(tid)
            if resp is None:
                continue
            leaf_sum = sum(s.duration for s in tracer.leaves(tid))
            if abs(leaf_sum - resp.latency_s) > 1e-9:
                bad_sums += 1
        checks.append(
            (f"span trees valid ({bad_trees} invalid)", bad_trees == 0)
        )
        checks.append(
            (
                f"leaf span durations sum to reported latency ({bad_sums} mismatches)",
                bad_sums == 0,
            )
        )

        # Zero-overhead guard: an untraced replay of the same trace must be
        # bit-identical — tracing may observe the modelled clock, never move it.
        untraced = CompressionService(
            platforms,
            max_batch=args.max_batch,
            max_wait=args.max_wait,
            policy=args.policy,
            cache_capacity=args.cache_capacity,
            overload=overload_policy(),
        )
        plain_responses, plain_stats = untraced.process(
            synthetic_trace(args.requests, seed=args.seed)
        )
        identical = len(plain_responses) == len(responses) and all(
            np.array_equal(a.output, b.output)
            and a.start == b.start
            and a.finish == b.finish
            and a.platform == b.platform
            for a, b in zip(responses, plain_responses)
        ) and plain_stats.latencies_s == stats.latencies_s
        checks.append(("tracing is zero-overhead (untraced replay identical)", identical))

        out = Path(args.trace_out)
        tracer.to_jsonl(out)
        print(
            f"\nwrote {len(tracer.trace_ids())} traces to {out} "
            f"(render with: repro obs-report {out})"
        )

    if args.metrics_out:
        from pathlib import Path

        from repro.obs import get_registry

        Path(args.metrics_out).write_text(get_registry().render_prometheus())
        print(f"wrote metrics registry to {args.metrics_out}")
    print()
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    passed = all(ok for _, ok in checks)
    print("serve demo:", "all checks passed" if passed else "FAILED")
    # Exit 2 on SLO failure: the expected-failure convention every other
    # command boundary here uses (see _guarded), so scripts can tell a
    # failed check from a crashed demo.
    return 0 if passed else 2


@_guarded
def _cmd_chaos_soak(args) -> int:
    """Replay a seeded fault storm through the overload-hardened service."""
    from repro.chaos import SoakConfig, run_soak

    platforms = tuple(p.strip() for p in args.platforms.split(",") if p.strip())
    if not platforms:
        print("error: --platforms must name at least one platform", file=sys.stderr)
        return 2
    if args.fleet:
        from repro.chaos import FleetSoakConfig, run_fleet_soak

        fleet_config = FleetSoakConfig(
            seed=args.seed,
            n_requests=args.requests if args.requests is not None else 1200,
            n_workers=args.workers,
            worker_platforms=platforms,
            rate=args.rate,
            crashes=args.crashes,
            hangs=args.hangs,
            slow_restarts=args.slow_restarts,
            restart_after=args.restart_after,
            deadline=args.deadline,
            p95_budget_s=args.p95_budget,
            slo=args.slo,
            sdc=args.sdc,
        )
        fleet_report = run_fleet_soak(fleet_config, trace_out=args.trace_out)
        print(fleet_report.format_report())
        return 0 if fleet_report.passed else 2
    if args.slo or args.trace_out or args.sdc:
        print("error: --slo/--trace-out/--sdc require --fleet", file=sys.stderr)
        return 2
    config = SoakConfig(
        seed=args.seed,
        n_requests=args.requests if args.requests is not None else 160,
        platforms=platforms,
        deadline=args.deadline,
        shed_policy=args.shed_policy,
        bursts=args.bursts,
        burst_len=args.burst_len,
        background_rate=args.background_rate,
        p95_budget_s=args.p95_budget,
        hedge_queue_seconds=args.hedge_queue,
        require_breaker_cycle=not args.no_breaker_check,
    )
    report = run_soak(config)
    print(report.format_report())
    return 0 if report.passed else 2


@_guarded
def _cmd_fleet_demo(args) -> int:
    """Replay a multi-tenant trace through the sharded fleet and verify it."""
    from repro.chaos import reference_output
    from repro.fleet import (
        AutoscalePolicy,
        FleetRouter,
        TenantPolicy,
        multi_tenant_trace,
        worker_storm,
    )
    from repro.serve.overload import OverloadPolicy

    platforms = tuple(p.strip() for p in args.platforms.split(",") if p.strip())
    if not platforms:
        print("error: --platforms must name at least one platform", file=sys.stderr)
        return 2
    tracer = slo = flight = registry = None
    if args.slo or args.trace_out or args.metrics_out:
        from dataclasses import replace as _replace

        from repro.obs import (
            FlightRecorder,
            MetricsRegistry,
            SLOMonitor,
            Tracer,
            default_fleet_rules,
        )

        # Private registry so repeated CLI runs start from zero counters.
        registry = MetricsRegistry()
        tracer = Tracer(seed=args.seed)
        flight = FlightRecorder(capacity=256, registry=registry).attach(tracer)
        if args.slo:
            # Size the burn-rate windows to the demo's arrival rate (the
            # long window covers ~256 arrivals, the short ~64), matching
            # the fleet soak's slow-burn alert profile.
            rules = tuple(
                _replace(
                    r,
                    short_window=64.0 / args.rate,
                    long_window=256.0 / args.rate,
                    burn_threshold=1.2,
                    clear_burn=0.6,
                )
                for r in default_fleet_rules(p95_budget_s=args.deadline or 0.05)
            )
            slo = SLOMonitor(
                rules=rules, tracer=tracer, recorder=flight, registry=registry
            )
    trace = multi_tenant_trace(args.requests, seed=args.seed, rate=args.rate)
    storm = worker_storm(
        args.seed + 1,
        workers=tuple(f"w{i}" for i in range(args.workers)),
        crashes=args.crashes,
        hangs=args.hangs,
        span=args.requests,
        restart_after=args.restart_after,
    )
    autoscale = None
    if not args.no_autoscale:
        autoscale = AutoscalePolicy(
            min_workers=max(2, args.workers // 2),
            max_workers=args.workers * 2,
        )
    router = FleetRouter(
        args.workers,
        worker_platforms=platforms,
        tenant_policy=TenantPolicy(contention_depth=24),
        overload=OverloadPolicy(
            default_deadline=args.deadline, max_queue_depth=64, breaker=None
        ),
        fault_plan=storm,
        autoscale=autoscale,
        snapshot_interval=32,
        tracer=tracer,
        registry=registry,
        slo=slo,
    )
    if len(storm):
        print("worker storm:")
        print(storm.describe())
        print()
    responses, stats = router.process(trace)
    print(stats.format_table())
    print()
    corrupt = sum(
        0 if np.array_equal(r.output, reference_output(r)) else 1 for r in responses
    )
    faulted = [w for w in router.workers.values() if w.n_crashes or w.n_hangs]
    checks = [
        (
            f"accounting: {stats.accounted}/{stats.n_requests} requests "
            "served, shed, or failed — no silent drops",
            stats.accounted == stats.n_requests,
        ),
        (
            f"bit-identity: {len(responses) - corrupt}/{len(responses)} responses "
            "match unfaulted host compute",
            corrupt == 0,
        ),
        (
            f"recovery: {len(faulted)} faulted workers all rejoined",
            all(w.up for w in faulted),
        ),
    ]
    if tracer is not None:
        from repro.errors import ConfigError
        from repro.obs import validate_trace

        traced = [t for t in tracer.trace_ids() if tracer.spans_for(t)]
        invalid = 0
        for tid in traced:
            try:
                validate_trace(tracer, tid)
            except ConfigError:
                invalid += 1
        checks.append(
            (
                f"traces: {len(traced) - invalid}/{len(traced)} span trees "
                "validated (nesting + exact leaf sums per hop)",
                invalid == 0,
            )
        )
    if slo is not None:
        print(f"SLO alert timeline ({slo.fired} fired):")
        print(slo.format_timeline())
        print()
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    passed = all(ok for _, ok in checks)
    print("fleet demo:", "all checks passed" if passed else "FAILED")
    if tracer is not None and args.trace_out:
        path = tracer.to_jsonl(args.trace_out)
        print(f"trace written to {path} ({len(tracer.spans)} spans, "
              f"{len(tracer.events)} events)")
    if registry is not None and args.metrics_out:
        from pathlib import Path

        Path(args.metrics_out).write_text(registry.render_prometheus())
        print(f"metrics written to {args.metrics_out}")
    return 0 if passed else 2


@_guarded
def _cmd_obs_report(args) -> int:
    from repro.obs import format_report, load_trace, render_report

    spans, events = load_trace(args.trace)
    print(
        format_report(
            render_report(spans, events),
            by_worker=True if args.by_worker else None,
            by_tenant=args.by_tenant,
        )
    )
    return 0


@_guarded
def _cmd_slo_report(args) -> int:
    """Critical-path attribution + alert timeline from a trace file."""
    from repro.obs import analyze, format_critical_path, load_trace

    spans, events = load_trace(args.trace)
    report = analyze(spans, events)
    print(format_critical_path(report))
    alerts = [e for e in events if e.name in ("slo.fire", "slo.clear")]
    print()
    if alerts:
        print(f"SLO alert timeline ({len(alerts)} transitions):")
        for e in alerts:
            label = f"{{{e.attrs['label']}}}" if e.attrs.get("label") else ""
            kind = e.name.removeprefix("slo.")
            detail = (
                " [forced at trace end]"
                if kind == "clear" and e.attrs.get("forced")
                else ""
            )
            print(
                f"  {e.time * 1e3:10.3f} ms  {kind:<5} "
                f"{e.attrs.get('rule', '?')}{label}{detail}"
            )
    else:
        print("SLO alert timeline: (no alerts in trace)")
    if args.min_coverage is not None and report.p95_tail_coverage < args.min_coverage:
        print(
            f"slo-report: FAILED — p95-tail attribution coverage "
            f"{report.p95_tail_coverage:.1%} below --min-coverage "
            f"{args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_autotune(args) -> int:
    from repro.core import select_cf

    data = np.load(args.input).astype(np.float32)
    result = select_cf(data, min_psnr=args.min_psnr, method=args.method)
    status = "ok" if result.satisfied else "TARGET NOT REACHABLE (best effort)"
    print(
        f"cf={result.cf} ratio={result.ratio:.2f} "
        f"psnr={result.achieved_psnr:.2f} dB nrmse={result.achieved_nrmse:.4f} [{status}]"
    )
    return 0 if result.satisfied else 1


def _cmd_inspect(args) -> int:
    from repro.accel import compile_program
    from repro.accel.report import program_report
    from repro.core import make_compressor
    from repro.errors import CompileError

    comp = make_compressor(args.resolution, method=args.method, cf=args.cf, s=args.s)
    shape = (args.batch, args.channels, args.resolution, args.resolution)
    fn = comp.compress if args.direction == "compress" else comp.decompress
    example = (
        np.zeros(shape, np.float32)
        if args.direction == "compress"
        else np.zeros(comp.compressed_shape(shape), np.float32)
    )
    try:
        prog = compile_program(fn, example, args.platform, name=f"{args.method}-{args.direction}")
    except CompileError as exc:
        print(f"compile error on {args.platform}: {exc}")
        return 1
    print(program_report(prog))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--quiet", action="store_true", help="suppress informational diagnostics"
    )
    verbosity.add_argument(
        "--verbose", action="store_true", help="enable debug-level diagnostics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a paper table")
    p.add_argument("number", choices=("1", "2", "3"))
    p.add_argument("--scale", default="paper", choices=("tiny", "small", "paper"))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--scale", default="tiny", choices=("tiny", "small", "paper"))
    p.add_argument("--epochs", type=int, default=0)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("platforms", help="list accelerator simulators")
    p.set_defaults(fn=_cmd_platforms)

    p = sub.add_parser("bench", help="model one configuration")
    p.add_argument("--platform", default="ipu")
    p.add_argument("--direction", default="compress", choices=("compress", "decompress"))
    p.add_argument("--method", default="dc", choices=("dc", "ps", "sg"))
    p.add_argument("--resolution", type=int, default=256)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--cf", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--faults", help="fault plan JSON; runs through the resilience layer")
    p.add_argument("--max-retries", type=int, help="retry budget for transient device faults")
    p.add_argument(
        "--suite",
        action="store_true",
        help="run the seeded wall-clock micro-benchmark suite instead of the model",
    )
    p.add_argument("--out", help="write the suite report JSON here")
    p.add_argument("--baseline", help="diff the suite against this baseline JSON; exit 2 on regression")
    p.add_argument("--repeats", type=int, default=5, help="timed repetitions per case (suite mode)")
    p.add_argument("--seed", type=int, default=0, help="input seed (suite mode)")
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed normalised-median slowdown vs baseline (suite mode)",
    )
    p.add_argument(
        "--refresh",
        type=int,
        default=0,
        metavar="N",
        help="run the suite N times and write the merged envelope baseline "
        "to --out (suite mode; this is how BENCH_compressor.json is made)",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("compress", help="compress a .npy file to .dcz")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--method", default="dc", choices=("dc", "ps", "sg"))
    p.add_argument("--cf", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--faults", help="fault plan JSON (payload faults corrupt the output)")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress a .dcz file to .npy")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("inspect", help="profiler-style report for one program")
    p.add_argument("--platform", default="ipu")
    p.add_argument("--direction", default="compress", choices=("compress", "decompress"))
    p.add_argument("--method", default="dc", choices=("dc", "ps", "sg"))
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--cf", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("autotune", help="pick CF for a PSNR target")
    p.add_argument("input")
    p.add_argument("--min-psnr", type=float, required=True)
    p.add_argument("--method", default="dc", choices=("dc", "ps", "sg"))
    p.set_defaults(fn=_cmd_autotune)

    p = sub.add_parser(
        "resilience-demo",
        help="scripted fault plan: retry, degradation ladder, checkpoint resume",
    )
    p.set_defaults(fn=_cmd_resilience_demo)

    p = sub.add_parser(
        "serve-demo",
        help="replay a synthetic trace through the serving layer and verify it",
    )
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--platforms", default="ipu,a100", help="comma-separated worker instances")
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--max-wait", type=float, default=0.02, help="batcher flush deadline (modelled s)")
    p.add_argument("--policy", default="least-loaded", choices=("least-loaded", "fastest-finish"))
    p.add_argument("--cache-capacity", type=int, default=64)
    p.add_argument("--min-hit-rate", type=float, default=0.9)
    p.add_argument(
        "--trace-out",
        help="attach a tracer and write every request's span tree as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        help="dump the metrics registry in Prometheus text format",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request relative deadline (modelled s); enables overload control",
    )
    p.add_argument(
        "--shed-policy",
        default="shed",
        choices=("shed", "degrade"),
        help="on a predicted deadline miss: shed, or degrade to a cheaper chop factor",
    )
    p.set_defaults(fn=_cmd_serve_demo)

    p = sub.add_parser(
        "chaos-soak",
        help="seeded fault storm through the overload-hardened serving stack",
    )
    p.add_argument(
        "--requests", type=int, default=None,
        help="trace length (default 160, or 1200 with --fleet)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--platforms", default="ipu,a100", help="comma-separated worker instances")
    p.add_argument(
        "--fleet", action="store_true",
        help="soak a multi-worker fleet (worker crash storm + tenant quotas) "
        "instead of a single service",
    )
    p.add_argument("--workers", type=int, default=8, help="fleet workers (with --fleet)")
    p.add_argument("--crashes", type=int, default=2, help="workers crashed by the storm")
    p.add_argument("--hangs", type=int, default=1, help="workers hung by the storm")
    p.add_argument("--slow-restarts", type=int, default=0, help="slow-restart faults")
    p.add_argument(
        "--restart-after", type=int, default=120,
        help="ordinals before a faulted worker rejoins",
    )
    p.add_argument(
        "--rate", type=float, default=12000.0,
        help="aggregate arrival rate for the fleet trace (req/s modelled)",
    )
    p.add_argument("--deadline", type=float, default=0.05, help="per-request deadline (modelled s)")
    p.add_argument("--shed-policy", default="shed", choices=("shed", "degrade"))
    p.add_argument("--bursts", type=int, default=2, help="fault bursts in the storm")
    p.add_argument("--burst-len", type=int, default=4, help="consecutive faults per burst")
    p.add_argument(
        "--background-rate", type=float, default=0.0, help="per-event background fault rate"
    )
    p.add_argument(
        "--p95-budget", type=float, default=0.05, help="modelled p95 latency budget (s)"
    )
    p.add_argument(
        "--hedge-queue", type=float, default=None, help="hedge batches queued beyond this (modelled s)"
    )
    p.add_argument(
        "--no-breaker-check",
        action="store_true",
        help="skip the breaker open->half_open->closed cycle assertion",
    )
    p.add_argument(
        "--slo",
        action="store_true",
        help="(with --fleet) run the SLO observatory: trace propagation, "
        "burn-rate alerts, flight recorder, determinism + zero-overhead checks",
    )
    p.add_argument(
        "--trace-out",
        help="(with --fleet --slo) write the instrumented run's trace JSONL",
    )
    p.add_argument(
        "--sdc",
        action="store_true",
        help="(with --fleet) add a silent-data-corruption storm: seeded bit "
        "flips in GEMM products, device outputs and handoff snapshots, with "
        "integrity guards + worker quarantine armed; the soak fails (exit 2) "
        "on any undetected corruption",
    )
    p.set_defaults(fn=_cmd_chaos_soak)

    p = sub.add_parser(
        "fleet-demo",
        help="multi-tenant trace through the sharded fleet: crash storm, "
        "warm handoff, autoscaling",
    )
    p.add_argument("--requests", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--platforms", default="ipu,a100", help="platforms each worker leases")
    p.add_argument("--workers", type=int, default=8, help="initial fleet size")
    p.add_argument("--crashes", type=int, default=2, help="workers crashed by the storm")
    p.add_argument("--hangs", type=int, default=1, help="workers hung by the storm")
    p.add_argument(
        "--restart-after", type=int, default=100,
        help="ordinals before a faulted worker rejoins",
    )
    p.add_argument(
        "--rate", type=float, default=4000.0, help="aggregate arrival rate (req/s modelled)"
    )
    p.add_argument("--deadline", type=float, default=0.05, help="per-request deadline (modelled s)")
    p.add_argument(
        "--no-autoscale", action="store_true", help="fix the fleet at --workers"
    )
    p.add_argument(
        "--slo",
        action="store_true",
        help="attach the SLO observatory: tracer, burn-rate monitor, flight "
        "recorder; prints the alert timeline and validates every span tree",
    )
    p.add_argument(
        "--trace-out",
        help="attach a tracer and write the fleet trace (spans + events) as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        help="dump the run's metrics registry in Prometheus text format",
    )
    p.set_defaults(fn=_cmd_fleet_demo)

    p = sub.add_parser(
        "obs-report",
        help="per-stage latency/byte breakdown from a serve-demo or "
        "fleet-demo trace file",
    )
    p.add_argument("trace", help="JSONL trace written by --trace-out")
    p.add_argument(
        "--by-worker",
        action="store_true",
        help="force the per-worker grouped view (auto when >1 worker appears)",
    )
    p.add_argument(
        "--by-tenant",
        action="store_true",
        help="add a per-tenant grouped view (requests, latency, stage ms)",
    )
    p.set_defaults(fn=_cmd_obs_report)

    p = sub.add_parser(
        "slo-report",
        help="critical-path attribution + SLO alert timeline from a trace file",
    )
    p.add_argument("trace", help="JSONL trace written by --trace-out")
    p.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        help="exit 2 unless p95-tail attribution coverage meets this fraction",
    )
    p.set_defaults(fn=_cmd_slo_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quiet or args.verbose:
        from repro.obs.log import set_verbosity

        set_verbosity("quiet" if args.quiet else "verbose")
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
