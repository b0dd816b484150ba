"""Serving layer: plan caching, dynamic batching, multi-platform scheduling.

The paper's compressors compile to static-shape programs, which makes a
compiled plan a pure function of its (platform, shape, method, CF, s)
key.  This package exploits that for the serving path:

* :class:`CompiledPlanCache` — bounded LRU of compiled plans (and
  remembered compile failures) keyed on :class:`~repro.accel.PlanKey`.
* :class:`DynamicBatcher` — coalesces same-key single-image requests
  into one batched run of the padded ``max_batch`` plan (max-batch /
  max-wait policy); the host computes the live rows only.
* :class:`Scheduler` — dispatches batches across simulated platform
  instances (least-loaded or fastest-estimated-finish, priced by the
  analytical timing model).
* :class:`CompressionService` — the event loop tying the three together
  on top of the PR 1 resilience layer, emitting a :class:`ServerStats`
  snapshot per trace.
* :class:`OverloadPolicy` — opt-in overload resilience: deadlines with
  shed-or-degrade admission control, bounded queues, per-platform
  :class:`CircuitBreaker`\\ s, hedged dispatch, graceful drain.

See ``docs/SERVING.md`` and ``python -m repro serve-demo``.
"""

from repro.errors import ShedError
from repro.serve.batcher import Batch, DynamicBatcher, Request, ServiceKey
from repro.serve.overload import (
    BREAKER_STATES,
    SHED_POLICIES,
    SHED_REASONS,
    BreakerPolicy,
    CircuitBreaker,
    OverloadPolicy,
    ShedRequest,
)
from repro.serve.plan_cache import CacheStats, CompiledPlanCache, PlanCacheSnapshot
from repro.serve.scheduler import POLICIES, PlatformWorker, Scheduler
from repro.serve.service import CompressionService, FailedRequest, Response
from repro.serve.stats import ServerStats, percentile
from repro.serve.trace import synthetic_trace

__all__ = [
    "Batch",
    "DynamicBatcher",
    "Request",
    "ServiceKey",
    "CacheStats",
    "CompiledPlanCache",
    "PlanCacheSnapshot",
    "POLICIES",
    "PlatformWorker",
    "Scheduler",
    "CompressionService",
    "FailedRequest",
    "Response",
    "ServerStats",
    "percentile",
    "synthetic_trace",
    "BREAKER_STATES",
    "SHED_POLICIES",
    "SHED_REASONS",
    "BreakerPolicy",
    "CircuitBreaker",
    "OverloadPolicy",
    "ShedRequest",
    "ShedError",
]
