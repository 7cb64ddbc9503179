"""High-throughput scoring runtime: the web-scale online path.

The paper's pitch is *efficient deployment*: a 28-feature
coarse-grained fingerprint scored inside FinOrg's 100ms budget at
205k-session scale.  The per-request :class:`ScoringService` honours
the budget but spends a full scaler→PCA→KMeans chain on every session.
This subpackage turns that path into a web-scale one by exploiting the
paper's own design point — coarse-grained fingerprints are deliberately
low-cardinality (the Section 7 anonymity-set analysis), so live traffic
contains thousands of distinct fingerprints, not millions:

* :mod:`repro.runtime.fastingest` — :class:`WireIngest`, the single
  enforcement of the wire contract (every scoring service and the
  shard transport ingest through it), memoized on repeated user-agent
  strings and wire suffixes, and owning the dedup window and the
  quarantine log;
* :mod:`repro.runtime.batcher` — a micro-batcher coalescing concurrent
  requests into single vectorized ``detect_vectors`` calls, flushing on
  batch size or linger, whichever triggers first;
* :mod:`repro.runtime.cache` — an LRU+TTL verdict cache keyed by the
  quantized feature vector plus the parsed user-agent equivalence
  class, invalidated on every model swap;
* :mod:`repro.runtime.pool` — a worker pool draining a bounded queue
  with backpressure (typed ``Overloaded`` sheds, graceful drain);
* :mod:`repro.runtime.stats` — the runtime metrics registry (batch-size
  distribution, queue depth, cache hit rate, per-stage latency
  percentiles) rendered into ``/metrics``;
* :mod:`repro.runtime.service` — :class:`RuntimeScoringService`, the
  drop-in wiring of all of these behind the ``score_wire`` contract;
* :mod:`repro.runtime.bench` — the per-request vs batched vs cached
  throughput driver shared by the CLI and the benchmark suite.
"""

from repro.runtime.batcher import MicroBatcher
from repro.runtime.cache import VerdictCache, quantize_vector
from repro.runtime.pool import Overloaded, WorkerPool, overloaded_verdict
from repro.runtime.service import (
    PendingVerdict,
    RuntimeConfig,
    RuntimeScoringService,
)
from repro.runtime.stats import RuntimeStats, percentile

__all__ = [
    "MicroBatcher",
    "Overloaded",
    "PendingVerdict",
    "RuntimeConfig",
    "RuntimeScoringService",
    "RuntimeStats",
    "VerdictCache",
    "WorkerPool",
    "overloaded_verdict",
    "percentile",
    "quantize_vector",
]
