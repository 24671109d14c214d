"""Model-based crash/restore testing of ``TruthService`` over ``TruthStore``.

A ``hypothesis`` state machine drives one durable service through
fresh ingests, duplicate retries, conflicting (aborted) batches,
checkpoints, compactions of the stopped store, crashes — with and
without an admitted batch that never got an outcome record — and
restores.  WAL segments hold a few records each, so compaction really
deletes segments.  The model is the acked claim prefix.  Every
published snapshot must equal offline ``TDAC.run`` over that prefix,
and every restore must land on the crashed service's version,
watermark and dataset fingerprint (plus the one batch a dangling admit
adds, when it applies).

The tier-1 profile is derandomized and bounded well under 30 s.  The
long profile explores fresh random programs for a few minutes::

    RESTORE_MACHINE_PROFILE=long PYTHONPATH=src python -m pytest \
        tests/test_restore_machine.py

(``make test-restore-machine`` runs exactly that.)
"""

import os
import shutil
import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import MajorityVote, TDAC, TDACConfig, TruthService
from repro.core import extend_dataset
from repro.data import Claim
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig
from repro.store import TruthStore

CONFIG = TDACConfig(seed=3)
DATASET = make_synthetic("DS1", n_objects=15, seed=11).dataset
SERVICE_CONFIG = ServiceConfig(max_wait_ms=1.0, snapshot_every=3)
#: Records per WAL segment: small, so checkpoints leave sealed segments
#: below their frontier for compaction to delete.
SEGMENT_RECORDS = 4

#: (source index, attribute index, value) triples for one new object;
#: unique per (source, attribute), so a batch never conflicts with itself.
FACTS = st.lists(
    st.tuples(
        st.integers(0, len(DATASET.sources) - 1),
        st.integers(0, len(DATASET.attributes) - 1),
        st.sampled_from(["x", "y", "z"]),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda fact: fact[:2],
)


class CrashRestoreMachine(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.root = tempfile.mkdtemp(prefix="tdac-restore-machine-")
        self.service = TruthService(
            MajorityVote(), DATASET, config=CONFIG,
            service_config=SERVICE_CONFIG, store=self.open_store(),
        )
        self.service.start()
        self.acked: list[Claim] = []
        self.batches: list[list[Claim]] = []
        self.version = 1
        self.next_sequence = 0
        self.objects = 0
        self.offline = {}

    def teardown(self):
        if getattr(self, "service", None) is not None:
            self.service.stop(checkpoint=False)
        if hasattr(self, "root"):
            shutil.rmtree(self.root, ignore_errors=True)

    # -- model helpers ---------------------------------------------------

    def open_store(self) -> TruthStore:
        return TruthStore(self.root, segment_max_records=SEGMENT_RECORDS)

    def fresh(self, facts) -> list[Claim]:
        self.objects += 1
        return [
            Claim(
                DATASET.sources[s], f"m{self.objects}",
                DATASET.attributes[a], value,
            )
            for s, a, value in facts
        ]

    def conflicting(self, facts) -> list[Claim]:
        known = next(iter(DATASET.iter_claims()))
        clash = Claim(
            known.source, known.object, known.attribute,
            f"{known.value}-conflict",
        )
        return self.fresh(facts) + [clash]

    def settle(self, claims: list[Claim]) -> None:
        self.acked.extend(claims)
        self.batches.append(claims)
        self.version += 1

    def prefix_dataset(self):
        return extend_dataset(DATASET, self.acked) if self.acked else DATASET

    def assert_matches_offline(self, snapshot) -> None:
        assert snapshot.version == self.version
        assert snapshot.watermark == len(self.acked)
        dataset = self.prefix_dataset()
        assert snapshot.dataset_fingerprint == dataset.fingerprint
        if len(self.acked) not in self.offline:
            self.offline[len(self.acked)] = TDAC(
                MajorityVote(), config=CONFIG
            ).run(dataset)
        offline = self.offline[len(self.acked)]
        assert dict(snapshot.predictions) == dict(offline.result.predictions)
        assert dict(snapshot.source_trust) == dict(
            offline.result.source_trust
        )
        assert snapshot.partition == offline.partition
        assert dict(snapshot.silhouette_by_k) == dict(
            offline.silhouette_by_k
        )
        assert snapshot.exact

    # -- rules -----------------------------------------------------------

    def running(self) -> bool:
        return self.service is not None

    @precondition(running)
    @rule(facts=FACTS)
    def ingest_fresh(self, facts):
        claims = self.fresh(facts)
        self.next_sequence += len(claims)
        self.service.ingest(claims, wait=True)
        self.settle(claims)

    @precondition(lambda self: self.running() and self.batches)
    @rule(data=st.data())
    def retry_duplicate(self, data):
        claims = data.draw(st.sampled_from(self.batches))
        self.next_sequence += len(claims)
        self.service.ingest(claims, wait=True)
        self.settle(claims)

    @precondition(running)
    @rule(facts=FACTS)
    def ingest_conflicting(self, facts):
        claims = self.conflicting(facts)
        self.next_sequence += len(claims)
        ticket = self.service.ingest(claims)
        try:
            ticket.wait()
        except Exception:
            pass
        else:
            raise AssertionError("a conflicting batch was applied")

    @precondition(running)
    @rule()
    def checkpoint(self):
        self.service.checkpoint()

    @precondition(running)
    @rule()
    def crash(self):
        self.crashed = self.service.snapshot()
        self.service.stop(checkpoint=False)
        self.service = None
        self.dangling: list[list[Claim]] = []

    @rule(facts=FACTS, conflicting=st.booleans())
    def crash_with_unsettled_admit(self, facts, conflicting):
        # Admitted, durably acked, and then the process died before the
        # batch got a commit or abort record.  Repeatable while down.
        if self.running():
            self.crash()
        claims = self.conflicting(facts) if conflicting else self.fresh(facts)
        store = self.open_store()
        try:
            store.append_admit(self.next_sequence, claims)
        finally:
            store.close()
        self.next_sequence += len(claims)
        if not conflicting:
            self.dangling.append(claims)

    @precondition(lambda self: not self.running())
    @rule()
    def compact(self):
        # ``repro store compact`` on the stopped store: folds the sealed
        # segments below the newest checkpoint's live frontier.  The
        # next restore must still land on every acked claim.
        store = self.open_store()
        try:
            store.compact()
        finally:
            store.close()

    @precondition(lambda self: not self.running())
    @rule()
    def restore(self):
        self.service = TruthService.restore(
            self.open_store(), service_config=SERVICE_CONFIG
        )
        snapshot = self.service.snapshot()
        # Restore applies each unsettled admit on its own; the
        # conflicting ones are aborted and leave no trace.
        for claims in self.dangling:
            self.settle(claims)
        assert snapshot.version == self.crashed.version + len(self.dangling)
        assert snapshot.watermark == self.crashed.watermark + sum(
            map(len, self.dangling)
        )
        if not self.dangling:
            assert snapshot.dataset_fingerprint == (
                self.crashed.dataset_fingerprint
            )
        self.assert_matches_offline(snapshot)

    @invariant()
    def published_snapshot_is_offline_run(self):
        if getattr(self, "service", None) is not None:
            self.assert_matches_offline(self.service.snapshot())


PROFILES = {
    "tier1": dict(derandomize=True, max_examples=30, stateful_step_count=20),
    "long": dict(max_examples=200, stateful_step_count=40),
}
CrashRestoreMachine.TestCase.settings = settings(
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    **PROFILES[os.environ.get("RESTORE_MACHINE_PROFILE", "tier1")],
)
TestCrashRestoreMachine = CrashRestoreMachine.TestCase
