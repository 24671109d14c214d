"""Hypothesis strategies shared by the compile and Eq. 1 oracle tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.data import Dataset

NAN = float("nan")
OTHER_NAN = float("nan")

#: Claim values whose equality a slot dict treats unlike plain identity:
#: 1 == 1.0 == True and 0 == 0.0 == -0.0 == False share a slot, a NaN
#: matches only the same object (a ``Dataset`` stores every NaN, also
#: inside tuples, as one object), tuples compare element-wise.
ADVERSARIAL_VALUES = (
    1, 1.0, True, 0, 0.0, -0.0, False, NAN, OTHER_NAN, None,
    (1, "a"), (1.0, "a"), (NAN,), (OTHER_NAN,), "é", "ü", "x",
)

SOURCES = ("s2", "s0", "s1", "s3")
OBJECTS = ("o1", "o0", "o2")
ATTRIBUTES = ("b", "a", "c")


@st.composite
def claim_datasets(draw) -> Dataset:
    """Small datasets over adversarial values, with partial truth.

    Identifier tuples are out of lexical order, so the rank orders the
    compile sorts by differ from the claims' insertion order.  Truth may
    name a value no source claimed and facts no source covers.
    """
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(SOURCES),
                st.sampled_from(OBJECTS),
                st.sampled_from(ATTRIBUTES),
            ),
            unique=True,
            max_size=24,
        )
    )
    value = st.sampled_from(ADVERSARIAL_VALUES)
    claims = {key: draw(value) for key in keys}
    truth_keys = draw(
        st.lists(
            st.tuples(st.sampled_from(OBJECTS), st.sampled_from(ATTRIBUTES)),
            unique=True,
            max_size=9,
        )
    )
    truth = {
        key: draw(st.one_of(value, st.just("unclaimed")))
        for key in truth_keys
    }
    return Dataset(SOURCES, OBJECTS, ATTRIBUTES, claims, truth)
