"""Tests of the top-level public API surface."""

import repro


def test_version_string():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_flow():
    """The README's quickstart snippet must keep working verbatim-ish."""
    from repro import Accu, TDAC, TDACConfig, DatasetBuilder

    builder = DatasetBuilder(name="weather")
    for city in ("paris", "rome", "oslo"):
        builder.add_claim("meteo-1", city, "temp", f"{city}-t")
        builder.add_claim("hygro-1", city, "temp", f"{city}-t-alt")
        builder.add_claim("meteo-1", city, "humidity", f"{city}-h-alt")
        builder.add_claim("hygro-1", city, "humidity", f"{city}-h")
        builder.add_claim("blog", city, "temp", f"{city}-t")
        builder.add_claim("blog", city, "humidity", f"{city}-h")
    dataset = builder.build()

    outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
    assert outcome.partition.attributes == ("humidity", "temp")
    assert len(outcome.result.predictions) == 6
    assert isinstance(outcome.silhouette_by_k, dict)


def test_module_docstring_mentions_paper():
    assert "TD-AC" in (repro.__doc__ or "")


def test_subpackages_importable():
    import repro.algorithms
    import repro.baselines
    import repro.clustering
    import repro.core
    import repro.data
    import repro.datasets
    import repro.evaluation
    import repro.metrics

    for module in (
        repro.algorithms,
        repro.baselines,
        repro.clustering,
        repro.core,
        repro.data,
        repro.datasets,
        repro.evaluation,
        repro.metrics,
    ):
        assert module.__doc__
