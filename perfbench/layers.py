"""Span tracer and layer wrappers for the TD-AC benchmark.

The program under test carries no benchmark hooks: :func:`install`
wraps the public callables of each layer *where their callers look them
up* (e.g. ``repro.core.tdac.sweep_kmeans`` as well as the defining
module) and records one span per call.  Every span keeps its parent, so
a layer's self time is its duration minus the time its child spans
cover.  Spans live in memory until the run ends.

A span is a tuple ``(id, parent_id, name, start, end, tag)``; times are
``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so spans recorded in a server subprocess
line up with client-side timestamps.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

#: Layer spans whose inclusive time is reported as ``<name>_s``.
TIMED_LAYERS = (
    "data.engine_compile",
    "data.extend",
    "data.checkpoint_decode",
    "core.truth_vectors",
    "core.block_runs",
    "core.refit",
    "clustering.k_sweep",
    "clustering.distance",
    "clustering.silhouette",
    "serving.admit",
    "store.wal_append",
    "store.checkpoint",
    "store.open",
    "store.recover",
)

BASES = ("MajorityVote", "CRH", "TruthFinder", "Accu")


class Tracer:
    """In-memory span and counter recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[tuple] = []
        #: ``(time, name, amount)`` count events, windowed like spans
        self.counts: list[tuple] = []
        #: per ingest offset: admit start/end, refit start/end, commit end
        self.tickets: dict[int, dict] = {}
        self._admitted: dict[int, dict] = {}
        self._batch: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, *, before=None, after=None, tag=None):
        """``fn`` recording a span ``name`` (or ``name(args)``) per call.

        ``before(args, start)`` runs just before the call and
        ``after(args, result, start, end)`` after it returns; ``tag``
        computes a label from the open span stack (e.g. ``reference``).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            label = name(args) if callable(name) else name
            span_tag = tag(stack) if tag is not None else ""
            frame = [next(tracer._ids), label, False]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            if before is not None:
                before(args, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (frame[0], parent, label, start, end, span_tag)
                )
            if after is not None:
                after(args, result, start, end)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.append((time.perf_counter(), name, amount))

    def op(self, label: str = "bench.op"):
        """Context manager: a root span around one benchmark op."""
        return _OpSpan(self, label)


class _OpSpan:
    def __init__(self, tracer: Tracer, label: str) -> None:
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        tracer = self.tracer
        self.frame = [next(tracer._ids), self.label, False]
        self.parent = tracer._stack()[-1][0] if tracer._stack() else 0
        tracer._stack().append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        if tracer.enabled:
            tracer.spans.append(
                (self.frame[0], self.parent, self.label, self.start,
                 self.end, "")
            )
        return False


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _reference_tag(stack: list) -> str:
    """``reference`` for the first base-algorithm call of a TD-AC pass.

    Both ``TDAC.run`` and the delta path of ``IncrementalTDAC.update``
    run the reference pass before any block, so the first discover call
    under the nearest enclosing pass is the reference one.
    """
    for frame in reversed(stack):
        if frame[1] in ("core.tdac_run", "core.refit"):
            if frame[2]:
                return ""
            frame[2] = True
            return "reference"
    return ""


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables with ``tracer`` spans."""
    from repro.algorithms.base import TruthDiscoveryAlgorithm
    import repro.clustering.sweep as sweep_module
    import repro.core.incremental as incremental_module
    import repro.core.tdac as tdac_module
    import repro.data.io as io_module
    import repro.serving.service as service_module
    from repro.core.truth_vectors import TruthVectorStore
    from repro.data.claim_engine import ClaimIndexEngine
    from repro.data.dataset import Dataset
    from repro.store.store import TruthStore

    w = tracer.wrap
    count = tracer.count

    def patch(owner, attribute: str, label, **hooks) -> None:
        setattr(owner, attribute, w(getattr(owner, attribute), label, **hooks))

    # repro.data — claim-index compile (the full index is a lazily
    # compiled cached property), append-only growth, checkpoint decode.
    shared = ClaimIndexEngine.__dict__["shared"].__func__
    ClaimIndexEngine.shared = classmethod(w(shared, "data.engine_compile"))
    full_index = ClaimIndexEngine.__dict__["full_index"]
    wrapped_full = functools.cached_property(
        w(full_index.func, "data.engine_compile")
    )
    wrapped_full.__set_name__(ClaimIndexEngine, "full_index")
    ClaimIndexEngine.full_index = wrapped_full
    for method in ("block_index", "extended"):
        patch(ClaimIndexEngine, method, "data.engine_compile")
    patch(Dataset, "extended", "data.extend")
    for module in (incremental_module, service_module):
        patch(module, "extend_dataset", "data.extend")
    patch(io_module, "dataset_from_dict", "data.checkpoint_decode")

    # repro.algorithms — every base algorithm, reference pass tagged.
    def count_iterations(args, result, start, end):
        count("algorithms.iterations", result.iterations)

    patch(
        TruthDiscoveryAlgorithm, "discover",
        lambda args: f"algorithms.{type(args[0]).__name__}",
        after=count_iterations,
        tag=_reference_tag,
    )

    # repro.core — the pass itself, Eq. 1 vectors, block runs, refits.
    patch(tdac_module.TDAC, "run", "core.tdac_run")
    patch(tdac_module, "build_truth_vectors", "core.truth_vectors")
    for method in ("__init__", "advance"):
        patch(TruthVectorStore, method, "core.truth_vectors")
    for module in (tdac_module, incremental_module):
        patch(module, "run_blocks", "core.block_runs")
    IncrementalTDAC = incremental_module.IncrementalTDAC
    patch(IncrementalTDAC, "fit", "core.refit", tag=lambda stack: "full")
    patch(IncrementalTDAC, "update", "core.refit", tag=lambda stack: "update")

    # repro.clustering — the k sweep, its Lloyd solves, distances and
    # silhouette scoring.
    def count_lloyd(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                count("clustering.lloyd_solves")
                count("clustering.lloyd_iterations", result.n_iterations)
            return result

        return counted

    for module in (sweep_module, incremental_module):
        module.lloyd = count_lloyd(module.lloyd)
    patch(tdac_module, "sweep_kmeans", "clustering.k_sweep")
    patch(tdac_module.TDAC, "pairwise_distances", "clustering.distance")
    for module in (tdac_module, incremental_module):
        patch(module, "score_silhouette_sweep", "clustering.silhouette")

    # repro.serving — admission, the batch apply (refit start), reads,
    # and restore.  Tickets are followed by their admission offset.
    TruthService = service_module.TruthService

    # The batcher may pick a ticket up before ``ingest`` returns to its
    # caller, so each ticket's record is keyed by its claims' identity
    # from the moment admission starts.
    def admitting(args, start):
        record = tracer._local.admitting = {"a0": start}
        for claim in args[1]:  # a list on every front-end path
            tracer._admitted[id(claim)] = record

    def admitted(args, ticket, start, end):
        record = tracer._local.admitting
        record["a1"] = end
        tracer.tickets[ticket.offset] = record

    def apply_started(args, start):
        batch = []
        for claim in args[1]:
            record = tracer._admitted.pop(id(claim), None)
            if record is not None and "p0" not in record:
                record["p0"] = start
                batch.append(record)
        tracer._batch = batch

    def apply_done(args, result, start, end):
        for record in tracer._batch:
            record["p1"] = end
        if any(f[1] == "serving.restore" for f in tracer._stack()):
            count("core.replayed_claims", len(args[1]))

    def committed(args, result, start, end):
        for record in tracer._batch:
            record["c1"] = end
        tracer._batch = []

    patch(TruthService, "ingest", "serving.admit",
          before=admitting, after=admitted)
    patch(TruthService, "_apply", "serving.apply",
          before=apply_started, after=apply_done)
    patch(TruthService, "query", "serving.query")
    restore = TruthService.__dict__["restore"].__func__
    TruthService.restore = classmethod(w(restore, "serving.restore"))

    # repro.store — WAL appends (commit includes the fsync), inline
    # checkpoints, open (first WAL scan) and recover (second scan).
    def count_checkpoint(args, result, start, end):
        count("store.checkpoints")

    patch(TruthStore, "append_admit", "store.wal_append")
    patch(TruthStore, "append_commit", "store.wal_append", after=committed)
    patch(TruthStore, "record_snapshot", "store.checkpoint",
          after=count_checkpoint)
    patch(TruthStore, "__init__", "store.open")
    patch(TruthStore, "recover", "store.recover")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def summarize(spans, counts, t0=float("-inf"), t1=float("inf")) -> dict:
    """Per-layer seconds and counts over spans starting in ``[t0, t1]``.

    Layer times are inclusive; a span nested in a span of the same name
    (``extend_dataset`` -> ``Dataset.extended``) is not counted twice.
    ``core.merge`` is the self time of ``TDAC.run``; ``core.replay`` is
    the batch applies made inside ``TruthService.restore``.  A refit is
    full when ``IncrementalTDAC.fit`` ran (also when ``update`` fell back
    to it) and delta otherwise.
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        children[span[1]] += span[4] - span[3]
    out: dict[str, float] = defaultdict(float)

    def has_ancestor(span, names) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    updates_with_full_fit = {
        span[1] for span in spans
        if span[2] == "core.refit" and span[5] == "full"
    }
    for span in spans:
        sid, _parent, name, start, end, tag = span
        if not t0 <= start <= t1:
            continue
        duration = end - start
        if name == "core.refit":
            if tag == "full":
                out["core.refits_full"] += 1
            elif sid not in updates_with_full_fit:
                out["core.refits_delta"] += 1
        if name == "core.tdac_run":
            out["core.merge_s"] += duration - children[sid]
        elif name == "serving.apply":
            if has_ancestor(span, ("serving.restore",)):
                out["core.replay_s"] += duration
        elif name == "serving.query":
            out["serving.query_s"] += duration
            out["serving.queries"] += 1
        elif name.startswith("algorithms."):
            base = name.split(".", 1)[1]
            out[f"algorithms.{base}.s"] += duration
            if tag == "reference":
                out["algorithms.reference_s"] += duration
        elif name in TIMED_LAYERS and not has_ancestor(span, (name,)):
            out[f"{name}_s"] += duration
    for moment, name, amount in counts:
        if t0 <= moment <= t1:
            out[name] += amount
    return out


def covered(spans, op_span) -> float:
    """Seconds of ``op_span`` covered by its direct child spans."""
    return sum(s[4] - s[3] for s in spans if s[1] == op_span[0])
