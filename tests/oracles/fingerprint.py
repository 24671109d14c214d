"""Loop oracle for :attr:`repro.data.dataset.Dataset.fingerprint`.

:class:`~repro.data.dataset.Dataset` hashes sorted, pre-encoded claim
pieces, and :meth:`~repro.data.dataset.Dataset.extended` carries them
forward instead of re-sorting the corpus.  The from-scratch loop it
replaced lives here — one ``sha256.update`` per ``repr((key, value))``
in stable ``repr(key)`` order — so tests can pin every digest, carried
or fresh, to the definition rather than to the code that computes it.
"""

from __future__ import annotations

import hashlib

from repro.data.dataset import Dataset
from repro.data.types import CATEGORICAL


def dataset_fingerprint_loop(dataset: Dataset) -> str:
    """Per-claim loop of :attr:`Dataset.fingerprint`, from public state."""
    hasher = hashlib.sha256()
    for part in (dataset.sources, dataset.objects, dataset.attributes):
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1e")
    claims = dataset.claims
    for key in sorted(claims, key=repr):
        hasher.update(repr((key, claims[key])).encode("utf-8"))
        hasher.update(b"\x1f")
    typed = sorted(
        (a, kind)
        for a, kind in dataset.attribute_types.items()
        if kind != CATEGORICAL
    )
    if typed:
        hasher.update(b"\x1dtypes")
        hasher.update(repr(typed).encode("utf-8"))
    return hasher.hexdigest()
