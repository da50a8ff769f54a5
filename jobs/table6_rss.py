"""Job: reproduce Table 6 (peak memory, |S_q|=4) — `python jobs/table6_rss.py`.

Local algorithms (the paper's are single-process C++); Spark is not needed
for the measurement itself.  REPRO_SCALE / REPRO_QUERIES control cost.
"""
from repro.tables.common import fmt_table
from repro.tables import table6


def main() -> None:
    rows = table6.rows()
    print("\n== Table 6: peak memory MB (traced peak + graph), |Sq|=4 ==")
    print(fmt_table(rows, table6.COLUMNS))
    print("\nShape target: Dij >> BSSR ~= PNE; BSSR w/o Opt > BSSR (Tokyo/Cal).")


if __name__ == "__main__":
    main()
