"""Table 3: event-size estimates from RSSAC-002 reports."""

from repro.core import event_size_table
from repro.rootdns import ATTACKED_LETTERS, RSSAC_REPORTING_LETTERS


def _reports(scenario):
    return {L: scenario.rssac[L] for L in RSSAC_REPORTING_LETTERS}


def test_table3_nov30(benchmark, scenario):
    table = benchmark(
        event_size_table,
        _reports(scenario),
        ATTACKED_LETTERS,
        "2015-11-30",
        len(ATTACKED_LETTERS),
    )
    print()
    print(table.render())
    print("  paper: A 5.12 Mq/s; lower 8.32, scaled 20.8, upper 51.2 Mq/s")
    lower = table.row_for("lower")[1]
    upper = table.row_for("upper")[1]
    assert lower < upper
    assert table.row_for("A")[1] > table.row_for("H")[1]


def test_table3_dec1(benchmark, scenario):
    table = benchmark(
        event_size_table,
        _reports(scenario),
        ATTACKED_LETTERS,
        "2015-12-01",
        len(ATTACKED_LETTERS),
    )
    print()
    print(table.render())
    print("  paper: A 5.21 Mq/s; lower 8.94, scaled 22.4, upper 52.1 Mq/s")
    rate = {row[0]: row[1] for row in table.rows}
    assert rate["lower"] < rate["scaled"] < rate["upper"]
    assert rate["A"] > rate["J"] > rate["K"] > rate["H"]
