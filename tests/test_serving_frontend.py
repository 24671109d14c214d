"""Error-path tests for the JSON-lines serving front-end.

The happy path is exercised by ``repro serve --smoke`` and
``tests/test_serving.py``; this module pins down what happens when the
input is garbage, the queue is full, or the consumer vanishes
mid-stream — the paths a long-lived server actually dies on.
"""

import io
import json

import pytest

from repro import MajorityVote, TruthService
from repro.data import Claim
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig
from repro.serving import run_smoke, serve_jsonl
from repro.serving.frontend import handle_request


@pytest.fixture
def dataset():
    return make_synthetic("DS1", n_objects=12, seed=7).dataset


@pytest.fixture
def service(dataset):
    with TruthService(
        MajorityVote(), dataset,
        service_config=ServiceConfig(max_wait_ms=1.0),
    ) as svc:
        yield svc


def drive(service, lines):
    """Run ``serve_jsonl`` over ``lines``; return the decoded responses."""
    out = io.StringIO()
    code = serve_jsonl(service, lines, out)
    assert code == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestBadRequests:
    def test_malformed_json_line(self, service):
        (response,) = drive(service, ['{"op": "ingest", nope}\n'])
        assert response["ok"] is False
        assert response["error"]

    def test_non_object_request(self, service):
        (response,) = drive(service, ["[1, 2, 3]\n"])
        assert response["ok"] is False
        assert "JSON object" in response["error"]

    def test_unknown_op(self, service):
        (response,) = drive(service, ['{"op": "frobnicate"}\n'])
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_empty_claims(self, service):
        (response,) = drive(service, ['{"op": "ingest", "claims": []}\n'])
        assert response["ok"] is False
        assert "non-empty" in response["error"]

    def test_claims_missing_fields(self, service):
        request = {"op": "ingest", "claims": [{"source": "s"}]}
        (response,) = drive(service, [json.dumps(request) + "\n"])
        assert response["ok"] is False
        assert "source/object/attribute/value" in response["error"]

    def test_bad_line_does_not_stop_serving(self, service, dataset):
        request = {
            "op": "ingest",
            "claims": [
                {
                    "source": dataset.sources[0],
                    "object": "after-garbage",
                    "attribute": dataset.attributes[0],
                    "value": "v",
                }
            ],
        }
        responses = drive(
            service, ["not json\n", json.dumps(request) + "\n"]
        )
        assert responses[0]["ok"] is False
        assert responses[1]["ok"] is True
        assert responses[1]["watermark"] == 1


class TestOverload:
    def test_overload_response_carries_retry_hint(self, dataset):
        # A service whose batcher lingers (long max_wait_ms, huge batch
        # target) holds the first ticket's claims as backlog, so the
        # frontend ingest below deterministically overflows capacity.
        service = TruthService(
            MajorityVote(),
            dataset,
            service_config=ServiceConfig(
                queue_capacity=2,
                max_wait_ms=5_000.0,
                max_batch_size=1_000,
            ),
        )
        service.start()
        try:
            source = dataset.sources[0]
            attribute = dataset.attributes[0]
            service.ingest(
                [
                    Claim(source, "hog-1", attribute, "v1"),
                    Claim(source, "hog-2", attribute, "v2"),
                ]
            )
            request = {
                "op": "ingest",
                "claims": [
                    {
                        "source": source,
                        "object": "rejected",
                        "attribute": attribute,
                        "value": "v",
                    }
                ],
            }
            (response,) = drive(service, [json.dumps(request) + "\n"])
        finally:
            service.stop()
        assert response["ok"] is False
        assert response["error"] == "overloaded"
        retry_after = response["retry_after_seconds"]
        assert isinstance(retry_after, float)
        assert retry_after > 0
        assert retry_after == pytest.approx(retry_after)  # finite
        stats = service.stats
        assert stats["overloaded_tickets"] == 1
        assert stats["rejected_claims"] == 1
        assert stats["retry_after_last_seconds"] == pytest.approx(
            retry_after
        )


class _VanishingConsumer(io.StringIO):
    """A text sink whose consumer disappears after ``survive`` writes."""

    def __init__(self, survive: int, error: type) -> None:
        super().__init__()
        self.survive = survive
        self.error = error
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > self.survive:
            raise self.error("consumer vanished")
        return super().write(text)


class TestVanishedConsumer:
    @pytest.mark.parametrize("error", [BrokenPipeError, ValueError])
    def test_pipe_closure_exits_cleanly(self, service, dataset, error):
        out = _VanishingConsumer(survive=1, error=error)
        requests = [
            json.dumps(
                {
                    "op": "ingest",
                    "claims": [
                        {
                            "source": dataset.sources[0],
                            "object": f"pipe-{i}",
                            "attribute": dataset.attributes[0],
                            "value": f"v-{i}",
                        }
                    ],
                }
            )
            + "\n"
            for i in range(3)
        ]
        code = serve_jsonl(service, requests, out)
        assert code == 0  # no unhandled traceback, clean exit code
        # Only the first response made it out before the pipe broke.
        assert len(out.getvalue().splitlines()) == 1
        # The service survived and can still be stopped cleanly by the
        # caller (the fixture's context manager does exactly that).
        assert service.snapshot().watermark >= 1


class TestArrayValues:
    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
    def test_a_json_array_value_applies_as_a_tuple(
        self, tmp_path, dataset, stored
    ):
        store_dir = tmp_path / "store" if stored else None
        attribute = dataset.attributes[0]
        service = TruthService(
            MajorityVote(), dataset, store=store_dir,
            service_config=ServiceConfig(max_wait_ms=1.0),
        )
        service.start()
        try:
            response = handle_request(service, {
                "op": "ingest",
                "claims": [{
                    "source": dataset.sources[0],
                    "object": "o-array",
                    "attribute": attribute,
                    "value": [1, [2, 3]],
                }],
            })
            assert response["ok"] is True, response
            assert service.query("o-array", attribute).value == (1, (2, 3))
            assert service.claim_log[-1].value == (1, (2, 3))
            live = service.snapshot()
        finally:
            service.stop(checkpoint=False)
        if store_dir is None:
            return
        restored = TruthService.restore(store_dir)
        try:
            again = restored.snapshot()
            assert (again.version, again.watermark) == (
                live.version, live.watermark
            )
            assert again.dataset_fingerprint == live.dataset_fingerprint
            assert dict(again.predictions) == dict(live.predictions)
            assert dict(again.source_trust) == dict(live.source_trust)
        finally:
            restored.stop(checkpoint=False)


class TestSmoke:
    def test_run_smoke_passes(self):
        out = io.StringIO()
        assert run_smoke(out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["ok"] is True
        assert all(payload["checks"].values())
