"""The compression service: plan cache + dynamic batcher + scheduler.

:class:`CompressionService` replays a request trace through the full
serving path the ROADMAP's "millions of users" north star needs:

1. requests coalesce per service key in the :class:`DynamicBatcher`;
2. each flushed batch picks a platform instance via the
   :class:`Scheduler` (modelled-time cost signal);
3. execution goes through a per-batch :class:`ResilientCompressor`
   bound to the shared :class:`CompiledPlanCache`, so compiles amortize
   across the whole fleet while PR 1's retry / ladder / device-loss
   failover still guard every run;
4. modelled clocks advance by the analytical timing model, producing a
   deterministic :class:`ServerStats` snapshot.

Numerics are real: every batch runs the actual NumPy compressor on its
live rows only, so per-image outputs are bit-identical to the unbatched
path.  The modelled device still runs, and is charged for, the padded
``max_batch`` plan every toolchain compiles.

With a :class:`~repro.obs.trace.Tracer` attached, every request yields a
span tree on the modelled clock::

    request [arrival, finish]
      batch_wait [arrival, formed_at]
      queue      [formed_at, start]
      execute    [start, finish]
        compile  [start, start]     (zero modelled duration; attrs carry
                                     cache misses, ladder rung, platform)
        device   [start, finish]

Leaf durations sum exactly to the request's reported latency, and
resilience events (retries, ladder rungs, failovers) are attached to the
originating requests' trace IDs.  Tracing never touches the modelled
timing math — with the tracer detached (the default), outputs are
bit-identical to the untraced path.

With an :class:`~repro.serve.overload.OverloadPolicy` attached
(``overload=``), the service additionally enforces deadlines (admission
control sheds — or degrades to a higher CF — requests the timing model
predicts cannot finish in time), bounds the queue, routes around sick
platforms via per-platform circuit breakers, hedges straggler batches on
a second platform, and supports graceful drain.  Every refusal is an
explicit :class:`~repro.serve.overload.ShedRequest` carrying a
:class:`~repro.errors.ShedError` — never a silent drop.  With
``overload=None`` (the default) none of this machinery is consulted and
replays are bit-identical to the pre-overload serving path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.core.api import make_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import (
    CompileError,
    ConfigError,
    DeviceError,
    DeviceLostError,
    ShapeError,
    ShedError,
)
from repro.integrity import policy as _integrity
from repro.obs.metrics import ByLabel, exponential_buckets, get_registry
from repro.resilience import LadderPolicy, ResilientCompressor, RetryPolicy
from repro.resilience.ladder import compile_plan
from repro.resilience.log import RecoveryLog
from repro.serve.batcher import Batch, DynamicBatcher, Request
from repro.serve.overload import CircuitBreaker, OverloadPolicy, ShedRequest
from repro.serve.plan_cache import CompiledPlanCache
from repro.serve.scheduler import PlatformWorker, Scheduler
from repro.serve.stats import ServerStats, latency_reservoir
from repro.tensor import Tensor

_BATCH_SIZE_BUCKETS = exponential_buckets(1.0, 2.0, 8)  # 1 .. 128 images


@dataclass
class Response:
    """One served request: the compressed plane plus modelled timing."""

    request: Request
    output: np.ndarray
    platform: str
    start: float
    finish: float
    degraded: bool = False
    trace_id: str | None = None
    attempt: object = None             # resolved ladder Attempt (method/s actually served)

    @property
    def latency_s(self) -> float:
        return self.finish - self.request.arrival


@dataclass
class FailedRequest:
    """A request no live platform could serve."""

    request: Request
    error: Exception


class CompressionService:
    """Serve single-image compression requests at scale (modelled time)."""

    def __init__(
        self,
        platforms: tuple[str, ...] = ("ipu", "a100"),
        *,
        max_batch: int = 8,
        max_wait: float = 0.002,
        policy: str = "least-loaded",
        cache: CompiledPlanCache | None = None,
        cache_capacity: int = 64,
        negative_ttl: int | None = None,
        retry: RetryPolicy | None = None,
        ladder: LadderPolicy | None = None,
        log: RecoveryLog | None = None,
        max_failovers: int = 3,
        overload: OverloadPolicy | None = None,
        tracer=None,
        registry=None,
        slo=None,
        retry_budget=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        self.cache = (
            cache
            if cache is not None
            else CompiledPlanCache(cache_capacity, negative_ttl=negative_ttl, registry=reg)
        )
        self.overload = overload
        self.batcher = DynamicBatcher(
            max_batch=max_batch,
            max_wait=max_wait,
            max_depth=overload.max_queue_depth if overload is not None else None,
        )
        self.scheduler = Scheduler(tuple(platforms), policy=policy)
        self.retry = retry if retry is not None else RetryPolicy(sleep=lambda _s: None)
        self.retry_budget = retry_budget
        self.ladder = ladder if ladder is not None else LadderPolicy()
        # Explicit None check: an empty RecoveryLog is falsy (it has __len__).
        self.log = log if log is not None else RecoveryLog()
        self.max_failovers = max_failovers
        self.tracer = tracer
        self.slo = slo
        self.slo_worker: str | None = None   # fleet worker label for SLO feeds
        self._dead: set[str] = set()
        self._n_batches = 0
        self._n_failovers = 0
        self._n_hedges = 0
        self._n_hedge_wins = 0
        # Corruptions the integrity guards caught during this service's
        # dispatches (ABFT corrections + device-output digest faults).
        # The fleet router's quarantine policy reads this as the worker's
        # health score; stays 0 (and costs one flag check) with guards off.
        self.integrity_faults = 0
        self._draining = False
        self._latency = latency_reservoir()
        self._trace_ids: dict[int, str] = {}
        self._trace_ctx: dict[int, object] = {}   # rid -> fleet TraceContext
        self.shed: list[ShedRequest] = []
        self.failures: list[FailedRequest] = []
        self.degraded_rids: set[int] = set()
        self.breaker_log: list[tuple[str, str, str, float]] = []
        self.breakers: dict[str, CircuitBreaker] = {}
        self._breaker_cursor: dict[str, int] = {}
        self._m_requests = reg.counter(
            "repro_requests_total", help="requests served, by platform"
        )
        self._m_failed = reg.counter(
            "repro_requests_failed_total", help="requests no live platform could serve"
        )
        self._m_latency = reg.histogram(
            "repro_request_latency_seconds", help="modelled request latency", unit="s"
        )
        self._m_batch_size = reg.histogram(
            "repro_batch_size_images",
            help="images per dispatched batch",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._m_pad = reg.counter(
            "repro_batch_pad_images_total", help="zero-padded tail images dispatched"
        )
        self._m_depth = reg.gauge(
            "repro_queue_depth_requests", help="requests queued in the batcher"
        )
        self._h_requests = ByLabel(self._m_requests, "platform")
        # Overload instruments are only registered when the machinery is
        # on, so a plain service leaves the registry dump untouched.
        self._m_shed = self._m_degraded = self._m_hedges = None
        if overload is not None:
            self._m_shed = reg.counter(
                "repro_overload_shed_total",
                help="requests shed instead of served, by reason",
            )
            self._m_degraded = reg.counter(
                "repro_overload_degraded_total",
                help="requests re-admitted at a higher CF to meet their deadline",
            )
            self._m_hedges = reg.counter(
                "repro_overload_hedges_total",
                help="hedged duplicate dispatches, by outcome",
            )
            if overload.breaker is not None:
                for platform in dict.fromkeys(platforms):
                    self.breakers[platform] = CircuitBreaker(
                        platform, overload.breaker, registry=reg
                    )
                    self._breaker_cursor[platform] = 0

    # Per-request series handles, bound on first use so an idle service
    # (a fleet provisions many) binds nothing.
    @cached_property
    def _h_latency(self):
        return self._m_latency.labels()

    @cached_property
    def _h_batch_size(self):
        return self._m_batch_size.labels()

    @cached_property
    def _h_pad(self):
        return self._m_pad.labels()

    @cached_property
    def _h_depth(self):
        return self._m_depth.labels()

    # ------------------------------------------------------------------
    def process(self, requests) -> tuple[list[Response], ServerStats]:
        """Replay a trace; returns per-request responses plus statistics."""
        reqs = sorted(requests, key=lambda r: (r.arrival, r.rid))
        self._latency = latency_reservoir()
        self.shed = []
        self.failures = []
        self.degraded_rids = set()
        responses: list[Response] = []
        max_depth = 0
        for req in reqs:
            max_depth = max(max_depth, self._ingest(req, responses))
        self._dispatch_all(self.batcher.flush(), responses)
        return responses, self._snapshot(reqs, responses, max_depth)

    def submit(self, request: Request, ctx=None) -> list[Response]:
        """Streaming path: enqueue one request; returns responses whose
        batches completed as a side effect (flush timers or a full group).

        ``ctx`` is an optional :class:`~repro.obs.context.TraceContext`
        from a fleet router: the request joins that trace (as one hop of
        a cross-worker span tree) instead of minting its own.
        """
        responses: list[Response] = []
        self._ingest(request, responses, ctx=ctx)
        return responses

    def poll(self, now: float) -> list[Response]:
        """Fire flush timers at modelled time ``now`` without new work.

        In the single-service replay the next arrival drives the clock,
        so timers fire inside :meth:`submit`; a fleet router polls each
        worker whose ``batcher.next_due`` has passed instead, so a worker
        whose traffic moved elsewhere still flushes its partial batches on
        time instead of holding them until drain.
        """
        responses: list[Response] = []
        self._dispatch_all(self.batcher.due(now), responses)
        return responses

    def drain(self) -> list[Response]:
        """Graceful drain: flush partial batches, then refuse new work.

        Everything still queued is dispatched (deadline expiry applies),
        after which the service sheds all new requests with reason
        ``"draining"``.  Stats and traces stay consistent: drained
        batches feed the same reservoir, metrics and span trees as
        normal dispatches.
        """
        self._draining = True          # before the flush: deadline expiry applies
        responses: list[Response] = []
        self._dispatch_all(self.batcher.flush(), responses)
        return responses

    @property
    def draining(self) -> bool:
        return self._draining

    def reopen(self) -> None:
        """Lift a drain: accept new work again.

        The quarantine lifecycle uses this — a worker drained for an
        integrity scrub re-opens once its plan cache is revalidated.
        The integrity-fault tally is *not* reset; it is cumulative
        history, and the router tracks per-incident deltas itself.
        """
        self._draining = False

    def _ingest(self, req: Request, responses: list[Response], ctx=None) -> int:
        """Admit one request into the batcher; returns the queue depth."""
        if self.tracer is not None:
            if ctx is not None:
                self._trace_ids[req.rid] = ctx.trace_id
                self._trace_ctx[req.rid] = ctx
            else:
                self._trace_ids[req.rid] = self.tracer.new_trace()
        for batch in self.batcher.due(req.arrival):
            self._dispatch(batch, responses)
        if self.overload is not None or self._draining:
            req = self._admit(req)
        full = None if req is None else self.batcher.add(req)
        return self._dispatch_all(() if full is None else (full,), responses)

    def _dispatch_all(self, batches, responses: list[Response]) -> int:
        """Dispatch every batch in order, then publish and return the queue depth."""
        for batch in batches:
            self._dispatch(batch, responses)
        depth = self.batcher.depth
        self._h_depth.set(depth)
        return depth

    # ------------------------------------------------------------------
    # Admission control (only reached with an OverloadPolicy or while
    # draining; the plain path never calls into this section).
    def _admit(self, req: Request) -> Request | None:
        now = req.arrival
        if self._draining:
            return self._shed(req, "draining", now)
        ov = self.overload
        if self.batcher.at_capacity:
            return self._shed(req, "queue_full", now)
        deadline = req.deadline
        if deadline is None and ov.default_deadline is not None:
            deadline = req.arrival + ov.default_deadline
        if deadline is None:
            return req
        if deadline != req.deadline:
            # Stamp a shallow copy: the caller's trace stays untouched (it
            # may be replayed) and the copy keeps the original's key.
            req = copy.copy(req)
            req.deadline = deadline
        predicted = self._predict_finish(req, now)
        if predicted <= deadline:
            return req
        if ov.shed_policy == "degrade":
            # Lower chop factor = higher compression ratio = cheaper run.
            for cf in ov.degrade_cfs:
                if cf >= req.cf:
                    continue
                candidate = replace(req, cf=cf)
                try:
                    fits = self._predict_finish(candidate, now) <= deadline
                except (ConfigError, ShapeError):
                    continue  # CF not representable at this plane size
                if fits:
                    self.degraded_rids.add(req.rid)
                    self._m_degraded.inc()
                    self._trace_event(
                        (req,), "overload.degrade", now, rid=req.rid, cf_from=req.cf, cf_to=cf
                    )
                    return candidate
        return self._shed(req, "deadline", now, predicted=predicted, deadline=deadline)

    def _shed(
        self,
        req: Request,
        reason: str,
        now: float,
        *,
        predicted: float | None = None,
        deadline: float | None = None,
    ) -> None:
        """Refuse ``req`` explicitly; records the ShedError result."""
        if predicted is not None and deadline is not None:
            msg = (
                f"request {req.rid}: predicted finish {predicted:.6f}s "
                f"misses deadline {deadline:.6f}s"
            )
        else:
            msg = f"request {req.rid} shed: {reason}"
        error = ShedError(msg, reason=reason, deadline=deadline, predicted_finish=predicted)
        self.shed.append(ShedRequest(request=req, error=error, time=now))
        if self._m_shed is None:
            # Draining without an OverloadPolicy still sheds explicitly.
            self._m_shed = self._registry.counter(
                "repro_overload_shed_total",
                help="requests shed instead of served, by reason",
            )
        self._m_shed.inc(reason=reason)
        if self.slo is not None:
            self.slo.observe_outcome(
                now, outcome="shed", tenant=req.tenant, worker=self.slo_worker,
                reason=reason,
            )
        self._trace_event((req,), "overload.shed", now, rid=req.rid, reason=reason)
        return None

    def _predict_finish(self, req: Request, now: float) -> float:
        """Earliest modelled finish the timing model can promise ``req``.

        Worst-case batch wait (the flush deadline) + the platform's queue
        horizon + the estimated batched-run seconds, minimized over
        breaker-permitted platforms.  ``inf`` when nothing can take it.
        """
        key = req.key
        flush_at = req.arrival + self.batcher.max_wait
        # One pass: each platform's earliest free instance, in first-seen
        # order (the estimate order below is the plan cache's LRU order).
        earliest: dict[str, float] = {}
        for w in self.scheduler.alive():
            free = max(w.busy_until, now)
            if w.platform not in earliest or free < earliest[w.platform]:
                earliest[w.platform] = free
        permitted = [
            p
            for p in earliest
            if (b := self.breakers.get(p)) is None or b.would_allow(now)
        ]
        best = math.inf
        for platform in permitted or earliest:
            est = self._estimate_batch_seconds(platform, key)
            if math.isfinite(est):
                best = min(best, max(flush_at, earliest[platform]) + est)
        return best

    # ------------------------------------------------------------------
    def _ladder_policy(self, now: float, keep: str) -> LadderPolicy:
        # Route the fallback rung around platforms whose breaker is open —
        # except the one actually dispatched to (if every breaker is open,
        # the forced probe must stay compilable).
        sick = {p for p, b in self.breakers.items() if p != keep and not b.would_allow(now)}
        return self.ladder.excluding(self._dead | sick)

    def _estimate_batch_seconds(self, platform: str, key) -> float:
        """Modelled seconds for one ``max_batch`` run on ``platform``.

        The fastest-finish cost signal; shares :class:`PlanKey` identity
        with the ladder's "original" attempt, so estimation warms the
        same cache execution reads from.  ``inf`` when the platform's
        toolchain rejects the plan.
        """
        method, cf, s, block = key.method, key.cf, key.s, key.block
        try:
            program = compile_plan(
                lambda: make_compressor(
                    key.height, key.width, method=method, cf=cf, s=s, block=block
                ),
                (self.max_batch, key.channels, key.height, key.width), platform,
                method=method, cf=cf, s=s, block=block, direction="compress", cache=self.cache,
            )
        except CompileError:
            return math.inf
        return program.estimated_time()

    def _worker_for(self, platform: str, now: float) -> PlatformWorker | None:
        return min(
            (w for w in self.scheduler.alive() if w.platform == platform),
            key=lambda w: (max(w.busy_until, now), w.name),
            default=None,
        )

    def _pick_hedge(
        self, primary: PlatformWorker, now: float, key
    ) -> tuple[PlatformWorker, float] | None:
        """Best breaker-permitted worker on a *different* platform, or None."""
        best: tuple[float, str, PlatformWorker, float] | None = None
        for w in self.scheduler.alive():
            if w.platform == primary.platform:
                continue
            breaker = self.breakers.get(w.platform)
            if breaker is not None and not breaker.allows(now):
                continue
            est = self._estimate_batch_seconds(w.platform, key)
            if not math.isfinite(est):
                continue
            finish = max(now, w.busy_until) + est
            if best is None or (finish, w.name) < (best[0], best[1]):
                best = (finish, w.name, w, est)
        if best is None:
            return None
        return best[2], best[3]

    def _dispatch(self, batch: Batch, responses: list[Response]) -> None:
        now = batch.formed_at
        if self.overload is not None or self._draining:
            live, expired = batch.split_expired(now)
            if expired:
                for r in expired:
                    self._shed(r, "expired", now, deadline=r.deadline)
                if not live:
                    return  # nothing left to dispatch — no run at all
                batch = Batch(key=batch.key, requests=live, formed_at=now)
        key = batch.key
        self._h_batch_size.observe(len(batch))
        # The modelled device runs the padded max_batch plan (and is
        # charged for it below); the host computes the live rows only.
        self._h_pad.inc(self.max_batch - len(batch))
        permit = None
        if self.breakers:
            permit = lambda w: self.breakers[w.platform].allows(now)  # noqa: E731
        try:
            worker = self.scheduler.pick(
                now,
                estimate=lambda w: self._estimate_batch_seconds(w.platform, key),
                permit=permit,
            )
        except DeviceLostError as exc:
            self._fail_batch(batch, exc)
            return
        rc = ResilientCompressor(
            key.height,
            key.width,
            platform=worker.platform,
            method=key.method,
            cf=key.cf,
            s=key.s,
            block=key.block,
            batch=self.max_batch,
            channels=key.channels,
            retry=self.retry,
            ladder=self._ladder_policy(now=now, keep=worker.platform),
            log=self.log,
            max_failovers=self.max_failovers,
            plan_cache=self.cache,
            retry_key=batch.requests[0].rid,
            retry_budget=self.retry_budget,
        )
        misses_before = self.cache.misses
        detected_before = _integrity.detected() if _integrity.integrity_enabled() else 0
        log_mark = self.log.mark()
        if self.tracer is not None:
            member_tids = [
                tid
                for r in batch.requests
                if (tid := self._trace_ids.get(r.rid)) is not None
            ]
            self.log.bind(self.tracer, member_tids, time=now)
        try:
            out = rc.compress(batch.stacked())
            resolved = rc.compile("compress")
        except (CompileError, DeviceError) as exc:
            self._note_dead(rc)
            self._note_integrity(detected_before, now, batch)
            self._feed_breakers(log_mark, now, attempted=worker.platform)
            self._publish_breaker_transitions(batch, now)
            self._fail_batch(batch, exc)
            return
        finally:
            if self.tracer is not None:
                self.log.unbind()
        self._note_integrity(detected_before, now, batch)
        self._note_dead(rc)
        self._n_batches += 1
        # Book modelled time on an instance of the platform that actually
        # ran (failover / fallback may have moved off the picked worker).
        exec_worker = self._worker_for(resolved.attempt.platform, now) or worker
        duration = resolved.program.estimated_time() * resolved.attempt.n_devices
        start = max(now, exec_worker.busy_until)
        platform = resolved.attempt.platform
        self._feed_breakers(log_mark, now, success_platform=platform)
        self._publish_breaker_transitions(batch, now)
        # Hedged dispatch: a straggler batch (long queue on the chosen
        # worker) is duplicated on the best other platform; the first
        # modelled finisher wins, the loser is cancelled at that moment.
        ov = self.overload
        hedge = None
        if (
            ov is not None
            and ov.hedge_queue_seconds is not None
            and resolved.attempt.rung == "original"
            and start - now > ov.hedge_queue_seconds
        ):
            hedge = self._pick_hedge(exec_worker, now, key)
        if hedge is not None:
            alt_worker, alt_est = hedge
            alt_start = max(now, alt_worker.busy_until)
            alt_finish = alt_start + alt_est
            primary_finish = start + duration
            self._n_hedges += 1
            win = alt_finish < primary_finish
            if win:
                self._n_hedge_wins += 1
                finish = self.scheduler.assign(alt_worker, alt_start, alt_est)
                self.scheduler.book_cancelled(
                    exec_worker, start, alt_finish - start
                )
                winner = alt_worker
                platform, start = alt_worker.platform, alt_start
            else:
                finish = self.scheduler.assign(exec_worker, start, duration)
                self.scheduler.book_cancelled(
                    alt_worker, alt_start, finish - alt_start
                )
                winner = exec_worker
            self._m_hedges.inc(outcome="win" if win else "loss")
            self._trace_event(
                batch.requests, "overload.hedge", now, primary=exec_worker.platform,
                hedge=alt_worker.platform, winner=winner.platform,
            )
        else:
            finish = self.scheduler.assign(exec_worker, start, duration)
        arr = out.numpy()
        compiles = self.cache.misses - misses_before
        for i, req in enumerate(batch.requests):
            response = Response(
                request=req,
                output=arr[i],
                platform=platform,
                start=start,
                finish=finish,
                degraded=resolved.degraded,
                trace_id=self._trace_ids.get(req.rid),
                attempt=resolved.attempt,
            )
            responses.append(response)
            self._latency.add(response.latency_s)
            self._h_requests[response.platform].inc()
            self._h_latency.observe(response.latency_s)
            if self.slo is not None:
                self.slo.observe_outcome(
                    response.finish, latency=response.latency_s, outcome="served",
                    tenant=req.tenant, worker=self.slo_worker,
                )
            if self.tracer is not None and response.trace_id is not None:
                self._trace_request(response, batch, resolved, compiles)

    # ------------------------------------------------------------------
    def _note_integrity(self, detected_before: int, now: float, batch) -> None:
        """Attribute guard detections during one dispatch to this service.

        Dispatches run sequentially on the modelled clock, so the delta in
        the global detection tally over one ``rc.compress`` call is exactly
        this worker's corruption count — the health signal the fleet's
        quarantine policy acts on.  Detections also land as
        ``integrity.fault`` events on every member request's trace.
        """
        if not _integrity.integrity_enabled():
            return
        delta = _integrity.detected() - detected_before
        if not delta:
            return
        self.integrity_faults += delta
        self._registry.counter(
            "repro_sdc_worker_faults_total",
            help="guard detections attributed to dispatches, by worker",
        ).inc(delta, worker=self.slo_worker or "service")
        self._trace_event(batch.requests, "integrity.fault", now, detected=delta)

    # ------------------------------------------------------------------
    # Circuit-breaker feedback: retry/fault outcomes logged by the
    # resilience layer during a dispatch drive the per-platform breakers.
    def _feed_breakers(
        self,
        log_mark: int,
        now: float,
        *,
        success_platform: str | None = None,
        attempted: str | None = None,
    ) -> None:
        if not self.breakers:
            return
        faults: dict[str, int] = {}
        for event in self.log.since(log_mark):
            if event.action != "fault":
                continue
            platform = event.context.get("platform") or attempted or success_platform
            if platform:
                faults[platform] = faults.get(platform, 0) + 1
        for platform, n in faults.items():
            breaker = self.breakers.get(platform)
            if breaker is not None:
                breaker.record_faults(n, now)
        if success_platform is not None:
            breaker = self.breakers.get(success_platform)
            if breaker is not None:
                breaker.record_success(now, clean=success_platform not in faults)
        elif attempted is not None and not faults:
            # The dispatch failed without logging a fault (e.g. a cached
            # negative plan) — still a failure signal for the platform.
            breaker = self.breakers.get(attempted)
            if breaker is not None:
                breaker.record_faults(1, now)

    def _publish_breaker_transitions(self, batch: Batch, now: float) -> None:
        """Mirror fresh breaker transitions to stats, metrics and traces."""
        if not self.breakers:
            return
        for platform, breaker in self.breakers.items():
            cursor = self._breaker_cursor.get(platform, 0)
            fresh = breaker.transitions[cursor:]
            if not fresh:
                continue
            self._breaker_cursor[platform] = len(breaker.transitions)
            for frm, to, at in fresh:
                self.breaker_log.append((platform, frm, to, at))
                if self.slo is not None:
                    self.slo.observe_breaker(at, platform, to)
                self._trace_event(
                    batch.requests, f"breaker.{to}", at, platform=platform, previous=frm
                )

    def _trace_event(self, requests, name: str, time: float, **attrs) -> None:
        """Record one event on the trace of each of ``requests`` that has one."""
        if self.tracer is None:
            return
        for r in requests:
            tid = self._trace_ids.get(r.rid)
            if tid is not None:
                self.tracer.record_event(tid, name, time, **attrs)

    def _trace_request(self, response: Response, batch: Batch, resolved, compiles: int) -> None:
        """Emit the request's span tree (see the module docstring taxonomy).

        Under a fleet router the request span is one *hop* of a
        cross-worker trace: it parents onto the router's pre-allocated
        ``fleet.request`` root and carries the routing labels
        (``worker`` / ``tenant`` / ``route_key`` / ``hop``) from the
        :class:`~repro.obs.context.TraceContext`.
        """
        tracer = self.tracer
        tid = response.trace_id
        req = response.request
        attempt = resolved.attempt
        ctx = self._trace_ctx.get(req.rid)
        hop_attrs = dict(ctx.attrs) if ctx is not None else {}
        if ctx is not None:
            hop_attrs["hop"] = ctx.hop
        root = tracer.record_span(
            tid,
            "request",
            req.arrival,
            response.finish,
            parent_id=ctx.parent_span_id if ctx is not None else None,
            rid=req.rid,
            platform=response.platform,
            degraded=response.degraded,
            batch_size=len(batch),
            cf=req.cf,
            bytes_in=int(req.image.nbytes),
            bytes_out=int(response.output.nbytes),
            **hop_attrs,
        )
        # Stage spans inherit the worker label so per-worker consumers
        # (flight-recorder rings, by-worker reports) need no tree walk.
        stage = (
            {"worker": hop_attrs["worker"]} if "worker" in hop_attrs else {}
        )
        tracer.record_span(
            tid, "batch_wait", req.arrival, batch.formed_at, parent=root, **stage
        )
        tracer.record_span(
            tid, "queue", batch.formed_at, response.start, parent=root, **stage
        )
        execute = tracer.record_span(
            tid, "execute", response.start, response.finish, parent=root, **stage
        )
        # Compile attribution: zero modelled duration (plans amortize via
        # the cache; the timing model charges no latency for compilation),
        # but the attrs say what the ladder did and what it cost.
        tracer.record_span(
            tid,
            "compile",
            response.start,
            response.start,
            parent=execute,
            rung=attempt.rung,
            method=attempt.method,
            s=attempt.s,
            n_devices=attempt.n_devices,
            compiles=compiles,
            failed_attempts=len(resolved.failures),
            **stage,
        )
        tracer.record_span(
            tid,
            "device",
            response.start,
            response.finish,
            parent=execute,
            platform=response.platform,
            n_devices=attempt.n_devices,
            **stage,
        )

    def _fail_batch(self, batch: Batch, exc: Exception) -> None:
        for r in batch.requests:
            self.failures.append(FailedRequest(r, exc))
            self._m_failed.inc(error=type(exc).__name__)
            if self.slo is not None:
                self.slo.observe_outcome(
                    batch.formed_at, outcome="failed", tenant=r.tenant,
                    worker=self.slo_worker,
                )
            self._trace_event(
                (r,), "request.failed", batch.formed_at, rid=r.rid, error=type(exc).__name__
            )

    def _note_dead(self, rc: ResilientCompressor) -> None:
        fresh = rc.dead_platforms - self._dead
        for platform in fresh:
            self._dead.add(platform)
            self.scheduler.mark_dead(platform)
            self._n_failovers += 1

    def _snapshot(self, reqs, responses, max_depth) -> ServerStats:
        first_arrival = min((r.arrival for r in reqs), default=0.0)
        last_finish = max((r.finish for r in responses), default=first_arrival)
        shed_by_reason: dict[str, int] = {}
        for s in self.shed:
            shed_by_reason[s.reason] = shed_by_reason.get(s.reason, 0) + 1
        return ServerStats(
            n_requests=len(reqs),
            n_failed=len(self.failures),
            n_batches=self._n_batches,
            n_failovers=self._n_failovers,
            makespan_s=last_finish - first_arrival,
            busy_s=self.scheduler.total_busy_seconds,
            latency=self._latency,
            max_queue_depth=max_depth,
            cache=self.cache.snapshot(),
            workers=[
                (w.name, w.batches, w.utilization(last_finish - first_arrival))
                for w in self.scheduler.workers
            ],
            batches_by_platform=self._batches_by_platform(),
            overload_active=self.overload is not None,
            n_shed=len(self.shed),
            n_degraded=len(self.degraded_rids),
            n_hedges=self._n_hedges,
            n_hedge_wins=self._n_hedge_wins,
            shed_by_reason=shed_by_reason,
            breaker_states={p: b.state for p, b in self.breakers.items()},
            breaker_transitions=list(self.breaker_log),
        )

    def _batches_by_platform(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for w in self.scheduler.workers:
            out[w.platform] = out.get(w.platform, 0) + w.batches
        return out

    # ------------------------------------------------------------------
    # Immediate (unbatched) path: what `repro.core.api` routes through
    # when a service is installed.  Uses the shared plan cache but skips
    # the queue — the caller wants an answer now, at its own shape.
    def compress_one(
        self,
        x,
        *,
        method: str = "dc",
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        platform: str | None = None,
    ) -> Tensor:
        arr = x.numpy() if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
        return self._run_one(
            arr, arr.shape, "compress", platform, method=method, cf=cf, s=s, block=block
        )

    def decompress_one(
        self,
        y,
        original_shape: tuple[int, ...],
        *,
        method: str = "dc",
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        platform: str | None = None,
    ) -> Tensor:
        arr = y.numpy() if isinstance(y, Tensor) else np.asarray(y, dtype=np.float32)
        return self._run_one(
            arr, original_shape, "decompress", platform, method=method, cf=cf, s=s, block=block
        )

    def _run_one(self, arr, plane_shape, direction, platform, **config) -> Tensor:
        comp = make_compressor(plane_shape[-2], plane_shape[-1], **config)
        if platform is None:
            alive = self.scheduler.alive()
            if not alive:
                raise DeviceLostError("no live platform instances remain")
            platform = alive[0].platform
        try:
            program = compile_plan(
                lambda: comp, arr.shape, platform, direction=direction, cache=self.cache, **config
            )
        except CompileError:
            # The host always runs the program eagerly; serving must not
            # make a previously-working call path start failing.
            return getattr(comp, direction)(Tensor(arr))
        return program.run(arr).output
