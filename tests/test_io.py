"""Round-trip tests for dataset serialisation."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TDACConfig
from repro.data import (
    DataError,
    Dataset,
    dataset_from_dict,
    dataset_to_dict,
    load_csv,
    load_json,
    save_claims_csv,
    save_json,
    save_truth_csv,
)
from repro.data.io import dataset_columns
from repro.store import SnapshotStore
from tests.strategies import ADVERSARIAL_VALUES, claim_datasets


class TestJson:
    def test_dict_roundtrip(self, tiny_dataset):
        payload = dataset_to_dict(tiny_dataset)
        restored = dataset_from_dict(payload)
        assert restored.sources == tiny_dataset.sources
        assert restored.attributes == tiny_dataset.attributes
        assert restored.truth == tiny_dataset.truth
        assert {
            (c.source, c.object, c.attribute, c.value)
            for c in restored.iter_claims()
        } == {
            (c.source, c.object, c.attribute, c.value)
            for c in tiny_dataset.iter_claims()
        }

    def test_file_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.json"
        save_json(tiny_dataset, path)
        restored = load_json(path)
        assert restored.n_claims == tiny_dataset.n_claims
        assert restored.name == tiny_dataset.name

    def test_rejects_unknown_version(self):
        with pytest.raises(DataError, match="format version"):
            dataset_from_dict({"format_version": 999})

    def test_a_version_1_payload_is_refused_by_name(self):
        # Format 1 held one [source, object, attribute, value] list per
        # claim; format 2 holds code columns.
        payload = {
            "format_version": 1,
            "claims": [["s1", "o1", "a1", "x"]],
        }
        with pytest.raises(DataError, match="version: 1 "):
            dataset_from_dict(payload)

    def test_freezes_lists(self):
        payload = {
            "format_version": 2,
            "sources": ["s1"],
            "objects": ["o1"],
            "attributes": ["a1"],
            "values": [[1, 2]],
            "claims": [[0], [0], [0], [0]],
        }
        ds = dataset_from_dict(payload)
        values = ds.values_for(ds.facts[0])
        assert values == ((1, 2),)

    def test_a_key_claimed_twice_with_different_values_is_rejected(self):
        payload = {
            "format_version": 2,
            "sources": ["s1"],
            "objects": ["o1"],
            "attributes": ["a1"],
            "values": [1, 2],
            "claims": [[0, 0], [0, 0], [0, 0], [0, 1]],
        }
        with pytest.raises(DataError, match="claim key twice"):
            dataset_from_dict(payload)
        # The encoder writes each key once, so a repeat is refused even
        # with the same value.
        payload["claims"][3] = [0, 0]
        with pytest.raises(DataError, match="claim key twice"):
            dataset_from_dict(payload)
        payload["claims"] = [[0], [0], [0], [0]]
        payload["truth"] = [[0, 0], [0, 0], [0, 1]]
        with pytest.raises(DataError, match="fact twice"):
            dataset_from_dict(payload)

    @pytest.mark.parametrize(
        "row, code", [(0, 1), (1, -1), (2, 5), (3, 2)]
    )
    def test_an_out_of_range_code_is_rejected(self, row, code):
        payload = {
            "format_version": 2,
            "sources": ["s1"],
            "objects": ["o1"],
            "attributes": ["a1"],
            "values": ["x", "y"],
            "claims": [[0], [0], [0], [0]],
        }
        payload["claims"][row] = [code]
        name = ("source", "object", "attribute", "value")[row]
        with pytest.raises(DataError, match=f"{name} code out of range"):
            dataset_from_dict(payload)

    @pytest.mark.parametrize(
        "claims",
        [
            [[0], [0], [0]],
            [[0], [0], [0], [0.5]],
            [[0, 0], [0], [0], [0]],
            [[], [], []],
            np.zeros((4, 0)),
        ],
    )
    def test_a_malformed_code_column_is_rejected(self, claims):
        payload = {
            "format_version": 2,
            "sources": ["s1"],
            "objects": ["o1"],
            "attributes": ["a1"],
            "values": ["x"],
            "claims": claims,
        }
        with pytest.raises(DataError, match="code columns"):
            dataset_from_dict(payload)

    def test_a_dataset_with_no_claims_round_trips(self):
        empty = Dataset(["s1", "s2"], ["o"], ["a", "b", "c"], {})
        decoded = dataset_from_dict(dataset_to_dict(empty))
        assert decoded.n_claims == 0
        assert decoded.sources == empty.sources
        assert decoded.attributes == empty.attributes
        assert decoded.fingerprint == empty.fingerprint


def assert_same_dataset(decoded: Dataset, original: Dataset) -> None:
    """Equal claim maps in the same order with the same value types,
    and the same truth, identifiers, attribute types, name and
    fingerprint."""

    def typed(mapping):
        # repr tells 1 / 1.0 / True, -0.0 / 0.0 and (1,) / (1.0,) apart.
        return [(key, type(v), repr(v)) for key, v in mapping.items()]

    assert dict(decoded.claims) == dict(original.claims)
    assert typed(decoded.claims) == typed(original.claims)
    assert decoded.truth == original.truth
    assert typed(decoded.truth) == typed(original.truth)
    assert decoded.sources == original.sources
    assert decoded.objects == original.objects
    assert decoded.attributes == original.attributes
    assert decoded.attribute_types == original.attribute_types
    assert decoded.name == original.name
    assert decoded.fingerprint == original.fingerprint


def through_json(dataset: Dataset) -> Dataset:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ds.json"
        save_json(dataset, path)
        return load_json(path)


def through_checkpoint(dataset: Dataset, keep_pieces: bool) -> Dataset:
    stamp = SimpleNamespace(
        version=1, watermark=0, dataset_fingerprint=dataset.fingerprint,
        config_fingerprint=TDACConfig().fingerprint(),
    )
    with tempfile.TemporaryDirectory() as directory:
        snapshots = SnapshotStore(directory)
        path = snapshots.record(
            stamp, dataset, min_live_lsn=0, next_sequence=0,
            base_algorithm="MajorityVote", config=TDACConfig(),
        )
        payload = snapshots.load(path)
    return dataset_from_dict(payload["dataset"], keep_pieces=keep_pieces)


#: One fact claimed with values a dict key tells apart only by type.
EQUAL_BUT_DISTINCT = (1, 1.0, True, -0.0, (1,), (1.0,), float("nan"), None)


class TestColumnarCodec:
    """The dataset codec round-trips exactly through a JSON file and
    through a ``tdac-snapshot/v3`` checkpoint's raw code columns."""

    @settings(max_examples=80, deadline=None)
    @given(claim_datasets(), st.booleans())
    def test_adversarial_datasets_round_trip(self, dataset, keep_pieces):
        assert_same_dataset(through_json(dataset), dataset)
        decoded = through_checkpoint(dataset, keep_pieces)
        assert_same_dataset(decoded, dataset)
        if keep_pieces:
            assert decoded.keep_pieces() == dataset._sorted_pieces()

    def test_every_adversarial_value_round_trips(self):
        sources = [f"s{i}" for i in range(len(ADVERSARIAL_VALUES))]
        claims = {
            (s, "o", "a"): value
            for s, value in zip(sources, ADVERSARIAL_VALUES)
        }
        dataset = Dataset(sources, ["o"], ["a"], claims, {("o", "a"): (1,)})
        assert_same_dataset(through_json(dataset), dataset)
        assert_same_dataset(through_checkpoint(dataset, True), dataset)

    def test_equal_values_of_distinct_types_keep_their_types(self):
        sources = [f"s{i}" for i in range(len(EQUAL_BUT_DISTINCT))]
        claims = {
            (s, "o", "a"): value
            for s, value in zip(sources, EQUAL_BUT_DISTINCT)
        }
        dataset = Dataset(
            sources, ["o"], ["a"], claims, {("o", "a"): 1.0}, name="fact",
            attribute_types={"a": "continuous"},
        )
        payload = dataset_to_dict(dataset)
        # One table entry per value: equal values are not merged.
        assert len(payload["values"]) == len(EQUAL_BUT_DISTINCT)
        for decoded in (
            through_json(dataset), through_checkpoint(dataset, True)
        ):
            assert_same_dataset(decoded, dataset)
            assert [type(v) for v in decoded.claims.values()] == [
                int, float, bool, float, tuple, tuple, float, type(None),
            ]
            assert type(decoded.truth[("o", "a")]) is float

    def test_the_encoder_codes_columns_in_claim_order(self, tiny_dataset):
        head, claims, truth = dataset_columns(tiny_dataset)
        assert claims.dtype == truth.dtype == np.dtype("<i4")
        assert claims.shape == (4, tiny_dataset.n_claims)
        tables = (head["sources"], head["objects"], head["attributes"])
        keys = [
            tuple(table[code] for table, code in zip(tables, column))
            for column in claims[:3].T
        ]
        assert keys == list(tiny_dataset.claims)
        values = [head["values"][code] for code in claims[3]]
        assert values == list(tiny_dataset.claims.values())


class TestCsv:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        claims_path = tmp_path / "claims.csv"
        truth_path = tmp_path / "truth.csv"
        save_claims_csv(tiny_dataset, claims_path)
        save_truth_csv(tiny_dataset, truth_path)
        restored = load_csv(claims_path, truth_path, name="restored")
        assert restored.n_claims == tiny_dataset.n_claims
        assert restored.name == "restored"
        # CSV stringifies values.
        assert set(restored.truth.values()) == {
            str(v) for v in tiny_dataset.truth.values()
        }

    def test_claims_only(self, tiny_dataset, tmp_path):
        claims_path = tmp_path / "claims.csv"
        save_claims_csv(tiny_dataset, claims_path)
        restored = load_csv(claims_path)
        assert not restored.has_truth

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError, match="missing CSV columns"):
            load_csv(path)


class TestJsonl:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        from repro.data import load_claims_jsonl, save_claims_jsonl

        path = tmp_path / "claims.jsonl"
        save_claims_jsonl(tiny_dataset, path)
        restored = load_claims_jsonl(path, name="jsonl")
        assert restored.n_claims == tiny_dataset.n_claims
        assert {
            (c.source, c.object, c.attribute, c.value)
            for c in restored.iter_claims()
        } == {
            (c.source, c.object, c.attribute, c.value)
            for c in tiny_dataset.iter_claims()
        }

    def test_blank_lines_skipped(self, tmp_path):
        from repro.data import load_claims_jsonl

        path = tmp_path / "claims.jsonl"
        path.write_text(
            '{"source": "s", "object": "o", "attribute": "a", "value": 1}\n'
            "\n"
            '{"source": "s2", "object": "o", "attribute": "a", "value": 2}\n'
        )
        assert load_claims_jsonl(path).n_claims == 2

    def test_malformed_line_reports_position(self, tmp_path):
        from repro.data import DataError, load_claims_jsonl

        path = tmp_path / "claims.jsonl"
        path.write_text('{"source": "s"}\n')
        with pytest.raises(DataError, match=":1:"):
            load_claims_jsonl(path)
