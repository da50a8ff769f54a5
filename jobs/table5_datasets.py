"""Job: reproduce Table 5 (dataset summary) — `python jobs/table5_datasets.py`.

Generates the three lite presets and prints paper-vs-ours |V|/|P|/|E|,
counted from the generated graphs.
"""
from repro.tables.common import fmt_table
from repro.tables import table5


def main() -> None:
    rows = table5.rows()
    print("\n== Table 5: dataset summary (paper vs generated, /100 scale; Cal /10) ==")
    print(fmt_table(rows, table5.COLUMNS))


if __name__ == "__main__":
    main()
