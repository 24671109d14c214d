"""Round-trip tests for dataset serialisation."""

import pytest

from repro.data import (
    DataError,
    Dataset,
    DatasetBuilder,
    dataset_from_dict,
    dataset_to_dict,
    load_csv,
    load_json,
    save_claims_csv,
    save_json,
    save_truth_csv,
)


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

    def test_freezes_lists(self):
        payload = {
            "format_version": 1,
            "claims": [["s1", "o1", "a1", [1, 2]]],
        }
        ds = dataset_from_dict(payload)
        values = ds.values_for(ds.facts[0])
        assert values == ((1, 2),)

    def test_undeclared_identifiers_append_as_the_builder_adds_them(self):
        payload = {
            "format_version": 1,
            "sources": ["s2"],
            "objects": ["o2"],
            "attributes": ["a2"],
            "attribute_types": {"a3": "continuous"},
            "claims": [["s1", "o1", "a1", 1], ["s2", "o3", "a2", [2]]],
            "truth": [["o4", "a4", 3]],
        }
        builder = DatasetBuilder()
        builder.declare_sources(["s2"]).declare_objects(["o2"])
        builder.declare_attributes(["a2"])
        builder.declare_attribute_types({"a3": "continuous"})
        builder.add_claim("s1", "o1", "a1", 1)
        builder.add_claim("s2", "o3", "a2", (2,))
        builder.set_truth("o4", "a4", 3)
        expected = builder.build()
        decoded = dataset_from_dict(payload)
        assert decoded.sources == expected.sources == ("s2", "s1")
        assert decoded.objects == expected.objects
        assert decoded.attributes == expected.attributes
        assert decoded.attribute_types == expected.attribute_types
        assert decoded.truth == expected.truth
        assert decoded.fingerprint == expected.fingerprint

    def test_a_key_claimed_twice_with_different_values_is_rejected(self):
        claims = [["s1", "o1", "a1", 1], ["s1", "o1", "a1", 2]]
        with pytest.raises(DataError, match="two values"):
            dataset_from_dict({"format_version": 1, "claims": claims})
        # Two distinct NaN objects are one value, as in the dataset.
        claims = [
            ["s1", "o1", "a1", [float("nan")]],
            ["s1", "o1", "a1", [float("nan")]],
        ]
        decoded = dataset_from_dict({"format_version": 1, "claims": claims})
        assert decoded.n_claims == 1

    def test_a_dataset_with_no_claims_round_trips(self):
        empty = Dataset(["s1", "s2"], ["o"], ["a", "b", "c"], {})
        decoded = dataset_from_dict(dataset_to_dict(empty))
        assert decoded.n_claims == 0
        assert decoded.sources == empty.sources
        assert decoded.attributes == empty.attributes
        assert decoded.fingerprint == empty.fingerprint


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
