"""Figure 5: per-site min/max catchment vs median, E- and K-Root."""

from repro.core import site_minmax, site_minmax_table

#: The E-Root sites that withdrew their routes during the events (§3.3).
E_WITHDRAWERS = ("AMS", "CDG", "WAW", "SYD", "NLV")


def test_fig5_e_root(benchmark, cleaned):
    table = benchmark(site_minmax_table, cleaned, "E")
    print()
    print(table.render())
    stats = {s.site: s for s in site_minmax(cleaned, "E")}
    print("  paper: E-AMS, -CDG, -WAW, -SYD, -NLV drop to zero")
    for code in E_WITHDRAWERS:
        assert stats[f"E-{code}"].min_normalized == 0.0, code


def test_fig5_k_root(benchmark, cleaned):
    table = benchmark(site_minmax_table, cleaned, "K")
    print()
    print(table.render())
    stats = {s.site: s for s in site_minmax(cleaned, "K")}
    print("  paper: K-AMS gains (max>median); K-LHR nearly empties")
    assert stats["K-AMS"].max_normalized > 1.05
    assert stats["K-LHR"].min_normalized < 0.7
