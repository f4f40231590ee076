"""Figure 13: per-server median RTT at K-FRA and K-NRT."""

import numpy as np
import pytest

from repro.core import server_rtt_series
from repro.util import EVENTS

#: During an event, the surviving K-FRA server's median RTT may be at
#: most this multiple of its median RTT outside both events.
STABLE_RTT_FACTOR = 2.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "model misses the claim: on seed 42 the one K-FRA server still "
        "answering during each event has a median RTT of about 213 ms "
        "against a quiet median of about 12 ms; the model queues it "
        "like the rest of the overloaded site"
    ),
)
def test_fig13_k_fra(benchmark, cleaned):
    figure = benchmark(server_rtt_series, cleaned, "K", "FRA")
    print()
    print(figure.render())
    print("  paper: K-FRA's surviving server keeps stable latency")
    windows = [event.hours_after(cleaned.grid.start) for event in EVENTS]
    for start, end in windows:
        during = {
            s.name: s.window(start, end) for s in figure.series
        }
        survivors = [
            name for name, part in during.items()
            if np.isfinite(part.values).any()
        ]
        assert len(survivors) == 1, (start, survivors)
        series = figure.get(survivors[0])
        quiet = np.ones(series.hours.shape, dtype=bool)
        for a, b in windows:
            quiet &= (series.hours < a) | (series.hours >= b)
        quiet_median = float(np.nanmedian(series.values[quiet]))
        event_median = during[survivors[0]].median()
        assert event_median <= STABLE_RTT_FACTOR * quiet_median, (
            survivors[0], event_median, quiet_median
        )


def test_fig13_k_nrt(benchmark, cleaned):
    figure = benchmark(server_rtt_series, cleaned, "K", "NRT")
    print()
    print(figure.render())
    print("  paper: K-NRT queues deeply; K-NRT-S2 worse than siblings")
    hot = figure.get("K-NRT-S2")
    cool = figure.get("K-NRT-S1")
    assert hot.at_hour(8.0) > cool.at_hour(8.0)
