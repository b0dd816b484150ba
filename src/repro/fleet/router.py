"""The fleet router: consistent-hash routing over worker failure domains.

:class:`FleetRouter` runs N independent
:class:`~repro.serve.service.CompressionService` workers — each its own
failure domain with a private plan cache, batcher queue and scheduler
instances leased from an :class:`~repro.accel.multichip.InstancePool` —
and replays a multi-tenant trace through them on the modelled clock:

* **Routing** is consistent-hash by plan key over a
  :class:`~repro.fleet.ring.HashRing` with bounded-load spill: all
  traffic for one compiled plan lands on one worker (cache affinity)
  unless that worker is at ``spill_depth``, in which case it spills to
  the next ring owner.
* **Tenant isolation**: with a :class:`~repro.fleet.tenants.TenantPolicy`
  attached, weighted-fair admission refuses over-quota tenants while the
  fleet is contended (reason ``"tenant_quota"``) — layered *above* each
  worker's own :class:`~repro.serve.overload.OverloadPolicy` shedding.
* **Failure domains**: a seeded
  :class:`~repro.fleet.faults.WorkerFaultPlan` crashes or hangs workers
  mid-trace.  The ring reroutes the dead worker's hash range; its queued
  (in-flight) requests are pulled out *before* they were ever served and
  replayed elsewhere — each request is served at most once, so replay is
  dedup-safe and responses stay bit-identical to host compute.
* **Warm handoff**: the router snapshots every live worker's
  :class:`~repro.serve.plan_cache.CompiledPlanCache` every
  ``snapshot_interval`` requests; a crashed worker's replacement
  restores the last snapshot (LRU order, negative entries and their
  remaining TTLs included) so it rejoins warm instead of cold.
* **Autoscaling**: an optional
  :class:`~repro.fleet.autoscale.AutoscalePolicy` grows the fleet from
  the instance pool under queue/p95 pressure and drains + retires the
  emptiest worker when idle.
* **Observability** (PR 8): with a tracer attached the router mints one
  :class:`~repro.obs.context.TraceContext` per request and stamps it on
  every hop (initial routing, bounded-load spill, post-crash replay), so
  a request is one cross-worker span tree rooted at a ``fleet.request``
  span whose pre-allocated ID the serving worker parents onto; with an
  :class:`~repro.obs.slo.SLOMonitor` attached (``slo=``) the router
  feeds it quota sheds and no-worker failures while each worker feeds
  served/shed/failed outcomes and breaker transitions.

Everything runs on modelled time and a seeded trace, so a fleet replay —
crashes, spills, handoffs and all — is deterministic end to end.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.accel.multichip import InstancePool, node_size
from repro.errors import ConfigError, DeviceLostError, ShedError
from repro.faults import corrupt_snapshot
from repro.fleet.autoscale import AutoscaleEvent, AutoscalePolicy
from repro.fleet.faults import WorkerFault, WorkerFaultPlan
from repro.fleet.quarantine import QuarantinePolicy
from repro.fleet.ring import HashRing
from repro.fleet.stats import FleetStats, WorkerStats, tenant_reservoir
from repro.fleet.tenants import TenantAdmission, TenantPolicy
from repro.fleet.worker import FleetWorker
from repro.integrity import policy as _integrity
from repro.obs.context import TraceContext
from repro.obs.metrics import get_registry
from repro.resilience.log import RecoveryLog
from repro.serve.batcher import Request, ServiceKey
from repro.serve.overload import OverloadPolicy, ShedRequest
from repro.serve.plan_cache import PlanCacheSnapshot
from repro.serve.service import CompressionService, FailedRequest, Response

#: Modelled latencies kept for the autoscaler's p95 signal.
_RECENT_LATENCY_WINDOW = 256


def route_key(key: ServiceKey) -> str:
    """The string hashed onto the ring: the full plan identity."""
    return (
        f"{key.channels}x{key.height}x{key.width}"
        f"/{key.method}/cf{key.cf}/s{key.s}/b{key.block}"
    )


class FleetRouter:
    """Route a multi-tenant trace across a fleet of service workers."""

    def __init__(
        self,
        n_workers: int = 4,
        *,
        worker_platforms: tuple[str, ...] = ("ipu", "a100"),
        pool: InstancePool | None = None,
        vnodes: int = 32,
        spill_depth: int = 16,
        tenant_policy: TenantPolicy | None = None,
        overload: OverloadPolicy | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        autoscale: AutoscalePolicy | None = None,
        quarantine: QuarantinePolicy | None = None,
        snapshot_interval: int = 64,
        max_batch: int = 8,
        max_wait: float = 0.002,
        policy: str = "least-loaded",
        cache_capacity: int = 64,
        negative_ttl: int | None = None,
        log_max_events: int | None = 256,
        tracer=None,
        registry=None,
        slo=None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if not worker_platforms:
            raise ConfigError("worker_platforms must name at least one platform")
        if spill_depth < 1:
            raise ConfigError(f"spill_depth must be >= 1, got {spill_depth}")
        if snapshot_interval < 0:
            raise ConfigError(
                f"snapshot_interval must be >= 0, got {snapshot_interval}"
            )
        if autoscale is not None and not (
            autoscale.min_workers <= n_workers <= autoscale.max_workers
        ):
            raise ConfigError(
                f"n_workers {n_workers} outside autoscale bounds "
                f"[{autoscale.min_workers}, {autoscale.max_workers}]"
            )
        self.worker_platforms = tuple(worker_platforms)
        self.spill_depth = spill_depth
        self.fault_plan = fault_plan
        self.autoscale = autoscale
        self.quarantine = quarantine
        self.snapshot_interval = snapshot_interval
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.policy = policy
        self.cache_capacity = cache_capacity
        self.negative_ttl = negative_ttl
        self.log_max_events = log_max_events
        self.overload = overload
        self.tracer = tracer
        self.slo = slo
        self._registry = registry if registry is not None else get_registry()
        # Pool sized so the fleet can reach its ceiling (autoscale max, or
        # the fixed size) with one leased instance per platform per worker.
        ceiling = autoscale.max_workers if autoscale is not None else n_workers
        self.pool = (
            pool
            if pool is not None
            else InstancePool(
                {p: max(1, math.ceil(ceiling / node_size(p))) for p in self.worker_platforms}
            )
        )
        self.ring = HashRing(vnodes=vnodes)
        self.workers: dict[str, FleetWorker] = {}
        self.admission = (
            TenantAdmission(tenant_policy) if tenant_policy is not None else None
        )
        reg = self._registry
        self._m_requests = reg.counter(
            "repro_fleet_requests_total", help="requests routed, by worker"
        )
        self._m_spills = reg.counter(
            "repro_fleet_spills_total",
            help="bounded-load reroutes off the primary ring owner",
        )
        self._m_replays = reg.counter(
            "repro_fleet_replays_total",
            help="in-flight requests replayed after a worker fault",
        )
        self._m_crashes = reg.counter(
            "repro_fleet_worker_crashes_total", help="worker faults fired, by kind"
        )
        self._m_handoffs = reg.counter(
            "repro_fleet_handoffs_total",
            help="plan-cache snapshots restored into replacement workers",
        )
        self._m_autoscale = reg.counter(
            "repro_fleet_autoscale_total", help="autoscale actions taken, by action"
        )
        self._m_workers = reg.gauge(
            "repro_fleet_workers", help="live workers in the fleet"
        )
        # Quarantine instruments exist only when a policy is attached, so
        # integrity-free fleets leave no trace in the metric dump.
        self._m_quarantines = self._m_quarantine_rejoins = None
        self._m_quarantine_scrubbed = None
        if quarantine is not None:
            self._m_quarantines = reg.counter(
                "repro_quarantine_total",
                help="workers benched for repeated integrity faults, by worker",
            )
            self._m_quarantine_rejoins = reg.counter(
                "repro_quarantine_rejoins_total",
                help="quarantined workers that served their bench and rejoined",
            )
            self._m_quarantine_scrubbed = reg.counter(
                "repro_quarantine_scrub_dropped_total",
                help="compiled plans convicted and dropped by quarantine scrubs",
            )
        self._m_tenant_requests = reg.counter(
            "repro_tenant_requests_total", help="requests arriving, by tenant"
        )
        self._m_tenant_served = reg.counter(
            "repro_tenant_served_total", help="responses delivered, by tenant"
        )
        self._m_tenant_shed = reg.counter(
            "repro_tenant_quota_shed_total",
            help="requests refused by weighted-fair admission, by tenant",
        )
        self._next_index = 0
        self._ordinal = 0
        self._cooldown_remaining = 0
        self._snapshots: dict[str, PlanCacheSnapshot] = {}
        self._reset_trace_state()
        for _ in range(n_workers):
            if self._provision_worker() is None:
                raise ConfigError(
                    f"instance pool too small for {n_workers} workers "
                    f"on platforms {self.worker_platforms}"
                )

    # ------------------------------------------------------------------
    # Fleet membership.
    def _make_service(self) -> CompressionService:
        return CompressionService(
            self.worker_platforms,
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            policy=self.policy,
            cache_capacity=self.cache_capacity,
            negative_ttl=self.negative_ttl,
            overload=self.overload,
            log=RecoveryLog(max_events=self.log_max_events),
            tracer=self.tracer,
            registry=self._registry,
            slo=self.slo,
        )

    def _provision_worker(self) -> FleetWorker | None:
        """Lease instances and start a worker, or ``None`` if the pool is dry."""
        leases = []
        for platform in self.worker_platforms:
            lease = self.pool.acquire(platform)
            if lease is None:
                for held in leases:
                    self.pool.release(held)
                return None
            leases.append(lease)
        name = f"w{self._next_index}"
        self._next_index += 1
        worker = FleetWorker(
            name=name,
            platforms=self.worker_platforms,
            leases=leases,
            service=self._make_service(),
        )
        worker.service.slo_worker = name
        self.workers[name] = worker
        self.ring.add(name)
        self._update_workers_gauge()
        return worker

    def _retire(self, worker: FleetWorker) -> None:
        """Drain a live worker, return its instances, and retire it."""
        self.ring.remove(worker.name)
        self._collect(worker, worker.service.drain())
        worker.state = "retired"
        for lease in worker.leases:
            self.pool.release(lease)
        self._update_workers_gauge()

    def _update_workers_gauge(self) -> None:
        self._m_workers.set(sum(1 for w in self.workers.values() if w.up))

    @property
    def live_workers(self) -> list[FleetWorker]:
        return [w for w in self.workers.values() if w.up]

    def _total_depth(self) -> int:
        return sum(w.depth for w in self.workers.values() if w.up)

    def _has_capacity(self, name: str) -> bool:
        return self.workers[name].depth < self.spill_depth

    # ------------------------------------------------------------------
    # Trace replay.
    def process(self, requests) -> tuple[list[Response], FleetStats]:
        """Replay a trace through the fleet; returns (responses, stats)."""
        reqs = sorted(requests, key=lambda r: (r.arrival, r.rid))
        self._reset_trace_state()
        if not reqs:
            return [], self._snapshot_stats(reqs)
        last_now = reqs[0].arrival
        for ordinal, req in enumerate(reqs):
            now = req.arrival
            last_now = now
            self._ordinal = ordinal
            # Fire every live worker's flush timers first: a worker whose
            # traffic moved elsewhere still flushes partial batches on
            # time, and queue depths read true for spill and autoscale.
            for worker in self.workers.values():
                if worker.up:
                    self._collect(worker, worker.service.poll(now))
            if self.fault_plan is not None:
                for fault in self.fault_plan.due(ordinal):
                    self._fail_worker(fault, now)
            self._process_rejoins(ordinal, now)
            if self.quarantine is not None:
                self._check_quarantine(now)
            if self.snapshot_interval and ordinal % self.snapshot_interval == 0:
                self._take_snapshots(now)
            if (
                self.autoscale is not None
                and ordinal
                and ordinal % self.autoscale.interval == 0
            ):
                self._evaluate_autoscale(ordinal, now)
            self._route(req, now)
        # Trace end: every pending restart lands (nothing stays down),
        # then live workers drain their partial batches.
        self._process_rejoins(math.inf, last_now)
        for worker in self.workers.values():
            if worker.up:
                self._collect(worker, worker.service.drain())
        if self.slo is not None:
            end = max((r.finish for r in self.responses), default=last_now)
            self.slo.finalize(end)
        return list(self.responses), self._snapshot_stats(reqs)

    # ------------------------------------------------------------------
    def _reset_trace_state(self) -> None:
        self.responses: list[Response] = []
        self.shed: list[ShedRequest] = []       # router-level (quota) sheds
        self.failures: list[FailedRequest] = []  # no-live-worker failures
        self.worker_of_rid: dict[int, str] = {}
        self.n_spills = 0
        self.n_replays = 0
        self.n_crashes = 0
        self.n_hangs = 0
        self.n_handoffs = 0
        self.n_quarantines = 0
        self.n_quarantine_rejoins = 0
        self.n_quarantine_interrupted = 0
        self.n_scrub_dropped = 0
        self.autoscale_events: list[AutoscaleEvent] = []
        self._tenant_latency: dict[str, object] = {}
        self._recent_latency: deque[float] = deque(maxlen=_RECENT_LATENCY_WINDOW)
        self._trace_ctx: dict[int, TraceContext] = {}  # rid -> current hop ctx

    def _route(self, req: Request, now: float, *, replay: bool = False) -> None:
        self._m_tenant_requests.inc(tenant=req.tenant)
        ctx = None
        if self.tracer is not None:
            # One trace per request for its whole fleet lifetime: the root
            # span ID is pre-allocated so every hop can parent onto it
            # before the ``fleet.request`` root is completed at response
            # time (spans are recorded after the fact).
            ctx = self._trace_ctx.get(req.rid)
            if ctx is None:
                ctx = TraceContext(
                    trace_id=self.tracer.new_trace(),
                    parent_span_id=self.tracer.new_span_id(),
                )
                self._trace_ctx[req.rid] = ctx
        if not replay and self.admission is not None:
            contended = (
                self._total_depth() >= self.admission.policy.contention_depth
            )
            if not self.admission.admit(req.tenant, contended=contended):
                self._quota_shed(req, now, ctx)
                return
        name, spilled = self.ring.route(route_key(req.key), self._has_capacity)
        if name is None:
            exc = DeviceLostError(f"request {req.rid}: no live fleet workers")
            self.failures.append(FailedRequest(req, exc))
            if self.slo is not None:
                self.slo.observe_outcome(
                    now, outcome="failed", tenant=req.tenant, reason="no_worker"
                )
            if ctx is not None:
                self.tracer.record_event(
                    ctx.trace_id, "request.failed", now,
                    rid=req.rid, error=type(exc).__name__, hop=ctx.hop,
                )
            return
        if spilled:
            self.n_spills += 1
            self._m_spills.inc()
        if replay:
            self.n_replays += 1
            self._m_replays.inc()
        worker = self.workers[name]
        self.worker_of_rid[req.rid] = name
        self._m_requests.inc(worker=name)
        if ctx is not None:
            labels = dict(
                worker=name, tenant=req.tenant, route_key=route_key(req.key)
            )
            ctx = ctx.next_hop(**labels) if replay else ctx.with_attrs(**labels)
            self._trace_ctx[req.rid] = ctx
            if spilled:
                self.tracer.record_event(
                    ctx.trace_id, "fleet.spill", now,
                    rid=req.rid, worker=name, hop=ctx.hop,
                )
            if replay:
                self.tracer.record_event(
                    ctx.trace_id, "fleet.replay", now,
                    rid=req.rid, worker=name, hop=ctx.hop,
                )
        self._collect(worker, worker.service.submit(req, ctx=ctx))

    def _quota_shed(self, req: Request, now: float, ctx=None) -> None:
        error = ShedError(
            f"request {req.rid} shed: tenant {req.tenant!r} over quota",
            reason="tenant_quota",
        )
        self.shed.append(ShedRequest(request=req, error=error, time=now))
        self._m_tenant_shed.inc(tenant=req.tenant)
        if self.slo is not None:
            self.slo.observe_outcome(
                now, outcome="shed", tenant=req.tenant, reason="tenant_quota"
            )
        if self.tracer is not None:
            tid = ctx.trace_id if ctx is not None else self.tracer.new_trace()
            self.tracer.record_event(
                tid, "overload.shed", now,
                rid=req.rid, reason="tenant_quota", tenant=req.tenant,
            )

    def _collect(self, worker: FleetWorker, responses: list[Response]) -> None:
        for r in responses:
            worker.n_served += 1
            self.responses.append(r)
            tenant = r.request.tenant
            if tenant not in self._tenant_latency:
                self._tenant_latency[tenant] = tenant_reservoir()
            self._tenant_latency[tenant].add(r.latency_s)
            self._recent_latency.append(r.latency_s)
            self._m_tenant_served.inc(tenant=tenant)
            if self.tracer is not None and r.trace_id is not None:
                self.tracer.record_event(
                    r.trace_id, "fleet.worker", r.finish,
                    worker=worker.name, platform=r.platform,
                )
                ctx = self._trace_ctx.pop(r.request.rid, None)
                if ctx is not None:
                    # Complete the pre-allocated fleet root: arrival to
                    # finish, same interval the serving hop's leaves
                    # partition, so leaf sums stay exact per hop.
                    self.tracer.record_span(
                        r.trace_id, "fleet.request",
                        r.request.arrival, r.finish,
                        span_id=ctx.parent_span_id,
                        rid=r.request.rid,
                        tenant=r.request.tenant,
                        route_key=ctx.attrs.get("route_key"),
                        served_by=ctx.attrs.get("worker"),
                        hops=ctx.hop + 1,
                    )

    # ------------------------------------------------------------------
    # Failure domains.
    def _fail_worker(self, fault: WorkerFault, now: float) -> None:
        worker = self.workers.get(fault.worker)
        if worker is None or worker.state not in ("up", "quarantined"):
            return  # already down or retired — the fault finds nothing to kill
        # A benched (quarantined) worker is still a live process, so a
        # scripted fault can strike it: the bench ends by destruction and
        # the ordinary crash/hang rejoin path takes over.
        if worker.state == "quarantined":
            self.n_quarantine_interrupted += 1
        queued = worker.take_queued()
        worker.state = "down"
        worker.pending_fault = fault
        worker.restart_at = self._ordinal + fault.rejoin_delay
        self.ring.remove(worker.name)
        self._m_crashes.inc(kind=fault.kind)
        if fault.kind == "hang":
            worker.n_hangs += 1
            self.n_hangs += 1
        else:
            worker.n_crashes += 1
            self.n_crashes += 1
            # The cache dies with the process: archive the accounting and
            # remember the hit rate the warm-handoff bar is judged against.
            worker.pre_crash_hit_rate = worker.cache_hit_rate
            worker.archive_service()
        self._update_workers_gauge()
        # Dedup-safe replay: these requests were pulled from the queue
        # before ever being served, so rerouting serves each exactly once.
        for req in queued:
            self._route(req, now, replay=True)

    def _process_rejoins(self, ordinal: float, now: float) -> None:
        for worker in self.workers.values():
            if (
                worker.state in ("down", "quarantined")
                and worker.restart_at is not None
                and worker.restart_at <= ordinal
            ):
                self._rejoin(worker, now)

    # ------------------------------------------------------------------
    # Integrity quarantine: the response curve for a *corrupting* worker
    # (docs/INTEGRITY.md).  Crash faults are loud; SDC is silent, so the
    # trigger is the guard-detection tally the worker's own service keeps.
    def _check_quarantine(self, now: float) -> None:
        for worker in list(self.workers.values()):
            if (
                worker.up
                and worker.integrity_delta() >= self.quarantine.fault_threshold
            ):
                self._quarantine_worker(worker, now)

    def _quarantine_worker(self, worker: FleetWorker, now: float) -> None:
        faults = worker.integrity_delta()
        # Same dedup-safe choreography as a crash: queued requests leave
        # *before* they are served, then replay on the surviving ring.
        queued = worker.take_queued()
        self.ring.remove(worker.name)
        self._collect(worker, worker.service.drain())
        worker.state = "quarantined"
        worker.n_quarantines += 1
        worker.restart_at = self._ordinal + self.quarantine.quarantine_ordinals
        self.n_quarantines += 1
        self._m_quarantines.inc(worker=worker.name)
        # Scrub while benched: every cached plan replays a probe against
        # the dense host oracle; convicted plans are dropped so the
        # worker rejoins with a revalidated (possibly smaller) cache.
        dropped = self._scrub_worker(worker)
        if self.tracer is not None:
            self.tracer.record_event(
                self.tracer.new_trace(), "fleet.quarantine", now,
                worker=worker.name, faults=faults, scrub_dropped=dropped,
            )
        for req in queued:
            self._route(req, now, replay=True)

    def _scrub_worker(self, worker: FleetWorker) -> int:
        if not (_integrity.integrity_enabled() and _integrity.current_policy().scrub):
            return 0
        from repro.integrity import scrub_cache

        dropped = len(scrub_cache(worker.service.cache))
        if dropped:
            self.n_scrub_dropped += dropped
            if self._m_quarantine_scrubbed is not None:
                self._m_quarantine_scrubbed.inc(dropped, worker=worker.name)
        return dropped

    def _rejoin(self, worker: FleetWorker, now: float) -> None:
        if worker.state == "quarantined":
            # Bench served: lift the drain latch and zero the strike count
            # (the tally itself is cumulative history; the floor moves).
            worker.restart_at = None
            worker.service.reopen()
            worker.integrity_floor = worker.service.integrity_faults
            worker.state = "up"
            self.ring.add(worker.name)
            self.n_quarantine_rejoins += 1
            self._m_quarantine_rejoins.inc(worker=worker.name)
            self._update_workers_gauge()
            if self.tracer is not None:
                self.tracer.record_event(
                    self.tracer.new_trace(), "fleet.quarantine_rejoin", now,
                    worker=worker.name,
                )
            return
        fault = worker.pending_fault
        worker.pending_fault = None
        worker.restart_at = None
        if fault is not None and fault.loses_cache:
            service = self._make_service()
            # A handoff snapshot crossed a machine boundary; the SDC fault
            # model says it can be struck in flight, so the restore path
            # corrupts it (when scripted) and then scrubs what it kept.
            snapshot = self._snapshots.get(worker.name)
            if snapshot is not None and snapshot.size > 0:
                snapshot = corrupt_snapshot(snapshot)
                service.cache.restore(snapshot)
                self.n_handoffs += 1
                self._m_handoffs.inc()
                if self.tracer is not None:
                    # Fleet-lifecycle annotation (own event-only trace):
                    # lets trace consumers count warm handoffs without
                    # joining against router stats.
                    self.tracer.record_event(
                        self.tracer.new_trace(), "fleet.handoff", now,
                        worker=worker.name, entries=snapshot.size,
                    )
            worker.service = service
            worker.service.slo_worker = worker.name
            # A replacement service's guard tally restarts at zero.
            worker.integrity_floor = 0
            self._scrub_worker(worker)
            # The fresh cache's counters start at zero: its cumulative hit
            # rate *is* the post-handoff rate the soak asserts on.
            worker.rejoin_cache = service.cache
        else:
            # Hang rejoin keeps the service; if the hang struck a benched
            # worker, lift its drain latch and restart its strike count so
            # it is not instantly re-quarantined on stale tallies.
            worker.service.reopen()
            worker.integrity_floor = worker.service.integrity_faults
        worker.state = "up"
        self.ring.add(worker.name)
        self._update_workers_gauge()

    def _take_snapshots(self, now: float) -> None:
        for worker in self.workers.values():
            if worker.up:
                self._snapshots[worker.name] = worker.service.cache.export_snapshot(
                    taken_at=now
                )

    # ------------------------------------------------------------------
    # Autoscaling.
    def _evaluate_autoscale(self, ordinal: int, now: float) -> None:
        live = self.live_workers
        if not live:
            return
        mean_depth = sum(w.depth for w in live) / len(live)
        p95 = (
            float(np.percentile(list(self._recent_latency), 95))
            if self._recent_latency
            else 0.0
        )
        action = self.autoscale.decide(
            live_workers=len(live), mean_depth=mean_depth, p95_s=p95
        )
        if action == "hold":
            return
        if self._cooldown_remaining > 0:
            self._cooldown_remaining -= 1
            return
        if action == "grow":
            worker = self._provision_worker()
            if worker is None:
                return  # pool exhausted — hold instead
            name = worker.name
        else:
            victim = min(live, key=lambda w: (w.depth, w.name))
            self._retire(victim)
            name = victim.name
        self.autoscale_events.append(
            AutoscaleEvent(
                ordinal=ordinal,
                action=action,
                worker=name,
                mean_depth=mean_depth,
                p95_s=p95,
                live_workers=len(self.live_workers),
            )
        )
        self._m_autoscale.inc(action=action)
        self._cooldown_remaining = self.autoscale.cooldown

    # ------------------------------------------------------------------
    # Accounting.
    def all_shed(self) -> list[ShedRequest]:
        out = list(self.shed)
        for worker in self.workers.values():
            out.extend(worker.all_shed())
        return out

    def all_failures(self) -> list[FailedRequest]:
        out = list(self.failures)
        for worker in self.workers.values():
            out.extend(worker.all_failures())
        return out

    def _snapshot_stats(self, reqs) -> FleetStats:
        stats = FleetStats()
        stats.n_requests = len(reqs)
        tenant_of = {r.rid: r.tenant for r in reqs}
        for r in reqs:
            stats.tenant(r.tenant).n_requests += 1
        for resp in self.responses:
            stats.tenant(resp.request.tenant).n_served += 1
        all_shed = self.all_shed()
        for s in all_shed:
            ts = stats.tenant(s.request.tenant)
            ts.n_shed += 1
            if s.reason == "tenant_quota":
                ts.n_quota_shed += 1
                stats.n_quota_shed += 1
            stats.shed_by_reason[s.reason] = stats.shed_by_reason.get(s.reason, 0) + 1
        all_failures = self.all_failures()
        for f in all_failures:
            stats.tenant(f.request.tenant).n_failed += 1
        for worker in self.workers.values():
            for rid in worker.all_degraded():
                tenant = tenant_of.get(rid)
                if tenant is not None:
                    stats.tenant(tenant).n_degraded += 1
        for tenant, reservoir in self._tenant_latency.items():
            stats.tenant(tenant).latency = reservoir
        stats.n_served = len(self.responses)
        stats.n_shed = len(all_shed)
        stats.n_failed = len(all_failures)
        first_arrival = min((r.arrival for r in reqs), default=0.0)
        last_finish = max((r.finish for r in self.responses), default=first_arrival)
        stats.makespan_s = last_finish - first_arrival
        stats.n_spills = self.n_spills
        stats.n_replays = self.n_replays
        stats.n_crashes = self.n_crashes
        stats.n_hangs = self.n_hangs
        stats.n_handoffs = self.n_handoffs
        stats.n_quarantines = self.n_quarantines
        stats.n_quarantine_rejoins = self.n_quarantine_rejoins
        stats.n_quarantine_interrupted = self.n_quarantine_interrupted
        stats.n_integrity_faults = sum(
            w.service.integrity_faults for w in self.workers.values()
        )
        stats.n_scrub_dropped = self.n_scrub_dropped
        stats.autoscale_events = list(self.autoscale_events)
        stats.final_live_workers = len(self.live_workers)
        stats.workers = [
            WorkerStats(
                name=w.name,
                state=w.state,
                platforms=w.platforms,
                n_served=w.n_served,
                n_crashes=w.n_crashes,
                n_hangs=w.n_hangs,
                n_quarantines=w.n_quarantines,
                integrity_faults=w.service.integrity_faults,
                cache_hit_rate=w.cache_hit_rate,
                pre_crash_hit_rate=w.pre_crash_hit_rate,
                post_rejoin_hit_rate=w.post_rejoin_hit_rate(),
            )
            for w in self.workers.values()
        ]
        return stats
