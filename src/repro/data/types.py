"""Fundamental value types of the truth discovery data model.

The model follows Section 2.1 of the paper: a structured world with a set
``O`` of objects, each described by a set ``A`` of attributes, whose values
are claimed by a collection ``S`` of sources.  A *fact* is a single
(object, attribute) slot that has exactly one true value in the one-truth
setting; a *claim* is one source's asserted value for one fact.

All identifiers are plain strings so datasets can be serialised without a
schema, and values are arbitrary hashable Python objects (strings, ints,
floats) compared with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

SourceId = str
ObjectId = str
AttributeId = str
Value = Hashable

#: Attribute value families the estimator router dispatches on.
#:
#: * ``"categorical"`` — one discrete truth per fact, claims compared by
#:   equality.  The default; every dataset before the scenario subsystem
#:   is implicitly all-categorical.
#: * ``"continuous"`` — numeric truths where the right aggregate is a
#:   weighted estimate (mean / median), not a vote among claimed values,
#:   and "correct" is similarity within a tolerance (CRH / CATD family).
#: * ``"multi"`` — set-valued truths (SmartMTD's multi-truth setting).
#:   Claims and truths are tuples of values; evaluation is set-based
#:   precision / recall / F1 instead of exact match.
CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
MULTI = "multi"
ATTRIBUTE_TYPES = (CATEGORICAL, CONTINUOUS, MULTI)

#: Alias used in signatures; values must be one of :data:`ATTRIBUTE_TYPES`.
AttributeType = str


def validate_attribute_type(kind: str) -> str:
    """Return ``kind`` if it is a known attribute type, else raise."""
    if kind not in ATTRIBUTE_TYPES:
        known = ", ".join(ATTRIBUTE_TYPES)
        raise DataError(f"unknown attribute type {kind!r}; known: {known}")
    return kind


def freeze_value(value: Value) -> Value:
    """Make a JSON-decoded value hashable: arrays become tuples."""
    if isinstance(value, list):
        return tuple(map(freeze_value, value))
    return value


@dataclass(frozen=True, slots=True)
class Fact:
    """A single (object, attribute) slot holding one unknown true value."""

    object: ObjectId
    attribute: AttributeId

    def __str__(self) -> str:
        return f"{self.object}.{self.attribute}"


@dataclass(frozen=True, slots=True)
class Claim:
    """One source's asserted value for one fact."""

    source: SourceId
    object: ObjectId
    attribute: AttributeId
    value: Value

    @property
    def fact(self) -> Fact:
        """The (object, attribute) slot this claim is about."""
        return Fact(self.object, self.attribute)

    def __str__(self) -> str:
        return f"{self.source}: {self.object}.{self.attribute} = {self.value!r}"


class DataError(ValueError):
    """Raised when input data violates the truth discovery data model."""


class GroundTruthError(DataError):
    """Raised when an operation needs ground truth that is not available."""
