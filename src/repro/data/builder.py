"""Incremental construction of :class:`~repro.data.dataset.Dataset` objects.

The builder collects claims one at a time (or in bulk), infers the source /
object / attribute universes from what it sees unless they are declared
up front, and validates the one-truth constraint (a source cannot claim
two different values for the same fact).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.data.dataset import Dataset, canonical_value
from repro.data.types import (
    AttributeId,
    Claim,
    DataError,
    ObjectId,
    SourceId,
    Value,
    validate_attribute_type,
)


class DatasetBuilder:
    """Mutable accumulator that produces an immutable :class:`Dataset`.

    Example
    -------
    >>> builder = DatasetBuilder(name="demo")
    >>> builder.add_claim("s1", "o1", "a1", 42)
    >>> builder.set_truth("o1", "a1", 42)
    >>> dataset = builder.build()
    >>> dataset.n_claims
    1
    """

    def __init__(self, name: str = "dataset") -> None:
        self._name = name
        self._sources: dict[SourceId, None] = {}
        self._objects: dict[ObjectId, None] = {}
        self._attributes: dict[AttributeId, None] = {}
        self._claims: dict[tuple[SourceId, ObjectId, AttributeId], Value] = {}
        self._truth: dict[tuple[ObjectId, AttributeId], Value] = {}
        self._attribute_types: dict[AttributeId, str] = {}

    # ------------------------------------------------------------------
    # Universe declaration (optional; fixes ordering)
    # ------------------------------------------------------------------

    def declare_sources(self, sources: Iterable[SourceId]) -> "DatasetBuilder":
        """Pre-declare sources to fix their order in the built dataset."""
        for s in sources:
            self._sources.setdefault(s)
        return self

    def declare_objects(self, objects: Iterable[ObjectId]) -> "DatasetBuilder":
        """Pre-declare objects to fix their order in the built dataset."""
        for o in objects:
            self._objects.setdefault(o)
        return self

    def declare_attributes(
        self, attributes: Iterable[AttributeId]
    ) -> "DatasetBuilder":
        """Pre-declare attributes to fix their order in the built dataset."""
        for a in attributes:
            self._attributes.setdefault(a)
        return self

    def set_attribute_type(
        self, attribute: AttributeId, kind: str
    ) -> "DatasetBuilder":
        """Tag ``attribute`` with a value family (categorical by default)."""
        validate_attribute_type(kind)
        self._attributes.setdefault(attribute)
        self._attribute_types[attribute] = kind
        return self

    def declare_attribute_types(
        self, types: Mapping[AttributeId, str]
    ) -> "DatasetBuilder":
        """Bulk :meth:`set_attribute_type`."""
        for a, kind in types.items():
            self.set_attribute_type(a, kind)
        return self

    # ------------------------------------------------------------------
    # Claims and truth
    # ------------------------------------------------------------------

    def add_claim(
        self,
        source: SourceId,
        obj: ObjectId,
        attribute: AttributeId,
        value: Value,
    ) -> "DatasetBuilder":
        """Record that ``source`` claims ``value`` for ``(obj, attribute)``.

        Raises :class:`DataError` if the source already claimed a
        *different* value for the same fact; re-adding the same value is a
        harmless no-op.
        """
        key = (source, obj, attribute)
        if key in self._claims:
            # As the built dataset will compare them: NaN objects as one.
            existing = canonical_value(self._claims[key])
            canonical = canonical_value(value)
            if existing is not canonical and existing != canonical:
                raise DataError(
                    f"source {source!r} claims two values for "
                    f"({obj!r}, {attribute!r}): {existing!r} and {value!r}"
                )
        self._sources.setdefault(source)
        self._objects.setdefault(obj)
        self._attributes.setdefault(attribute)
        self._claims[key] = value
        return self

    def add_claims(self, claims: Iterable[Claim]) -> "DatasetBuilder":
        """Bulk :meth:`add_claim` from :class:`Claim` records."""
        for claim in claims:
            self.add_claim(claim.source, claim.object, claim.attribute, claim.value)
        return self

    def set_truth(
        self, obj: ObjectId, attribute: AttributeId, value: Value
    ) -> "DatasetBuilder":
        """Record the ground-truth value of ``(obj, attribute)``."""
        self._objects.setdefault(obj)
        self._attributes.setdefault(attribute)
        self._truth[(obj, attribute)] = value
        return self

    def set_truths(
        self, truth: Mapping[tuple[ObjectId, AttributeId], Value]
    ) -> "DatasetBuilder":
        """Bulk :meth:`set_truth`."""
        for (o, a), v in truth.items():
            self.set_truth(o, a, v)
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @property
    def n_claims(self) -> int:
        """Number of claims recorded so far."""
        return len(self._claims)

    def build(self) -> Dataset:
        """Freeze the accumulated data into an immutable :class:`Dataset`."""
        if not self._claims:
            raise DataError("cannot build a dataset with no claims")
        return Dataset(
            tuple(self._sources),
            tuple(self._objects),
            tuple(self._attributes),
            self._claims,
            self._truth,
            name=self._name,
            attribute_types=self._attribute_types,
        )
