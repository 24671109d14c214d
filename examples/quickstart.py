"""Quickstart: resolve conflicting claims with TD-AC.

Five feeds report four weather attributes for eight cities.  The meteo
feeds nail temperature and wind but syndicate the same sloppy humidity /
pressure numbers; the hygro feeds are the mirror image; a blog is
hit-and-miss.  One reliability score per source (plain Accu) blurs that
structure — TD-AC clusters the attributes by reliability profile first
and runs the base algorithm per cluster.

Run with:  python examples/quickstart.py
"""

from repro import Accu, DatasetBuilder, TDAC, TDACConfig
from repro.metrics import evaluate_predictions

CITIES = [f"city{i}" for i in range(1, 9)]
SKY_ATTRS = ("temp", "wind")          # meteo feeds are good here
MOISTURE_ATTRS = ("humidity", "pressure")  # hygro feeds are good here

builder = DatasetBuilder(name="weather")
for c_index, city in enumerate(CITIES):
    for attribute in SKY_ATTRS + MOISTURE_ATTRS:
        truth = f"{city}-{attribute}-true"
        wrong = f"{city}-{attribute}-stale"
        builder.set_truth(city, attribute, truth)
        good_here = attribute in SKY_ATTRS
        for source, is_meteo in (
            ("meteo-1", True),
            ("meteo-2", True),
            ("hygro-1", False),
            ("hygro-2", False),
        ):
            value = truth if (is_meteo == good_here) else wrong
            builder.add_claim(source, city, attribute, value)
        # The blog is right three cities out of four.
        blog_value = truth if c_index % 4 != 0 else wrong
        builder.add_claim("blog", city, attribute, blog_value)
dataset = builder.build()

plain = Accu().discover(dataset)
plain_report = evaluate_predictions(dataset, plain.predictions)
print(f"Accu alone            accuracy = {plain_report.accuracy:.2f}")

outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
tdac_report = evaluate_predictions(dataset, outcome.predictions)
print(f"TD-AC (F=Accu)        accuracy = {tdac_report.accuracy:.2f}")
print(f"\nattribute clusters found: {outcome.partition}")
print(f"silhouette per k        : "
      f"{ {k: round(v, 2) for k, v in outcome.silhouette_by_k.items()} }")
print("\nper-source trust inside each cluster:")
for block, result in zip(outcome.partition.blocks, outcome.block_results):
    trust = {s: round(t, 2) for s, t in result.source_trust.items()}
    print(f"  {block}: {trust}")
