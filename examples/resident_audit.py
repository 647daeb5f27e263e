"""Backend-resident auditing: summarise quality without shipping the relation.

With SQL detection on (the default) the audit runs directly over the
storage backend through the shared tuple-source layer: the dirty rows come
from one keyed fetch, the clean-tuple categories from pushed-down
applicability aggregates, and the quality map's tid universe from the
catalog row count.  ``SemandaqConfig(use_sql_detection=False)`` runs the
native detector and the original full-relation walk instead — the parity
oracle, and the path to compare against.

Run with::

    python examples/resident_audit.py
"""

from repro import Semandaq, SemandaqConfig
from repro.datasets import generate_customers, inject_noise, paper_cfds


def audit_with(use_sql_detection: bool, label: str) -> None:
    # Noise localised to CITY/STR keeps the dirty region small — the
    # regime where the resident auditor materialises a fraction of the rows.
    clean = generate_customers(2000, seed=5)
    noise = inject_noise(clean, rate=0.03, seed=6, attributes=["CITY", "STR"])

    config = SemandaqConfig(
        backend="sqlite", use_sql_detection=use_sql_detection, telemetry=True
    )
    with Semandaq(config=config) as system:
        system.register_relation(noise.dirty)
        system.add_cfds(paper_cfds())
        system.detect("customer")
        report = system.audit("customer")
        counters = system.metrics()["counters"]
        breakdown = ", ".join(
            f"{count} {category.value}"
            for category, count in report.tuple_classification.counts().items()
            if count
        )
        print(f"{label}:")
        print(f"  {report.tuple_count} tuples: {breakdown}")
        worst = ", ".join(
            f"{attribute} ({cells})"
            for attribute, cells in report.worst_attributes()[:3]
            if cells
        )
        print(f"  worst attributes: {worst}")
        print(
            f"  resident audits: {counters.get('audit.source_resident', 0)}"
        )


def main() -> None:
    # The default: audit over the backend's resident copy.
    audit_with(True, "resident (use_sql_detection=True)")
    # The oracle: detect and audit by walking the relation in Python.
    # Both produce identical reports — the test suite pins this.
    audit_with(False, "native oracle (use_sql_detection=False)")


if __name__ == "__main__":
    main()
