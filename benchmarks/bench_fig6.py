"""Figure 6: per-site catchment time series, E- and K-Root."""

from repro.core import critical_episodes, site_timeseries
from repro.util import EVENT_1, EVENT_2

#: The E-Root sites that withdrew their routes during the events (§3.3).
E_WITHDRAWERS = ("AMS", "CDG", "WAW", "SYD", "NLV")

#: Between the events a withdrawer's median catchment, normalised to
#: its whole-window median, must be back to at least this share.
RECOVERED_SHARE = 0.9


def test_fig6_e_root(benchmark, cleaned):
    bundle = benchmark(site_timeseries, cleaned, "E", True)
    print()
    print(bundle.render())
    print("  paper: five E sites shut down after the Dec 1 event")
    _, first_end = EVENT_1.hours_after(cleaned.grid.start)
    second_start, second_end = EVENT_2.hours_after(cleaned.grid.start)
    for code in E_WITHDRAWERS:
        (series,) = [
            s for s in bundle.series if s.name.startswith(f"E-{code} (")
        ]
        between = series.window(first_end, second_start)
        assert between.median() >= RECOVERED_SHARE, code
        after = series.window(second_end, float("inf"))
        assert after.values.size and after.max() == 0.0, code


def test_fig6_k_root(benchmark, cleaned):
    bundle = benchmark(site_timeseries, cleaned, "K", True)
    print()
    print(bundle.render())
    episodes = critical_episodes(cleaned, "K")
    critical = sorted(s for s, mask in episodes.items() if mask.any())
    print("  sites with critical (below-half-median) episodes:", critical)
    assert any(s.startswith("K-LHR") for s in critical)
