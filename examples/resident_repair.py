"""Backend-resident repair: clean a relation without shipping it back.

With SQL detection on (the default) the repair is planned directly over
the storage backend: violations come from the pushed-down detection,
candidate-value frequencies from ``GROUP BY`` aggregates, and only the
tuples the planner actually needs are fetched.
``SemandaqConfig(use_sql_detection=False)`` runs the native detector and
the original full-relation walk instead — the parity oracle, and the path
to compare against.

Run with::

    python examples/resident_repair.py
"""

from repro import Semandaq, SemandaqConfig
from repro.datasets import generate_customers, inject_noise, paper_cfds


def clean_with(use_sql_detection: bool, label: str) -> None:
    # Noise localised to CITY/STR keeps the violating LHS groups small —
    # the regime where the resident planner fetches a fraction of the rows.
    clean = generate_customers(2000, seed=5)
    noise = inject_noise(clean, rate=0.03, seed=6, attributes=["CITY", "STR"])

    config = SemandaqConfig(
        backend="sqlite", use_sql_detection=use_sql_detection, telemetry=True
    )
    with Semandaq(config=config) as system:
        system.register_relation(noise.dirty)
        system.add_cfds(paper_cfds())
        summary = system.clean("customer")
        counters = system.metrics()["counters"]
        print(f"{label}:")
        print(
            f"  {summary['violations_before']} violations -> "
            f"{summary['violations_after']}, "
            f"{summary['cells_changed']} cells changed "
            f"(cost {summary['repair_cost']:.2f})"
        )
        print(
            f"  resident repairs: {counters.get('repair.source_resident', 0)}, "
            f"classes merged: {counters.get('repair.classes_merged', 0)}, "
            f"post-check violations: "
            f"{counters.get('repair.post_check_violations', 0)}"
        )


def main() -> None:
    # The default: plan the repair over the backend's resident copy.
    clean_with(True, "resident (use_sql_detection=True)")
    # The oracle: detect and repair by walking the relation in Python.
    # Both produce identical repairs — the test suite pins this.
    clean_with(False, "native oracle (use_sql_detection=False)")


if __name__ == "__main__":
    main()
