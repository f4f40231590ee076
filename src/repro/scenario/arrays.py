"""Canonical flattening of a :class:`ScenarioResult` into named arrays.

Every bit-equality check in the repo -- the golden-equivalence fixture,
the CI determinism gate, and the sweep engine's parallel-vs-serial
guarantee -- compares simulated outputs through this one flattener, so
"the outputs" always means the same set of arrays: per-letter truth
series, Atlas matrices, RSSAC counters and histograms, BGPmon route
changes, and the .nl series when present.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import ScenarioResult


def result_arrays(result: ScenarioResult) -> dict[str, np.ndarray]:
    """Flatten a ScenarioResult into named arrays for exact comparison."""
    out: dict[str, np.ndarray] = {}
    for letter in result.letters:
        t = result.truth[letter]
        p = f"{letter}/truth"
        out[f"{p}/offered_qps"] = t.offered_qps
        out[f"{p}/loss"] = t.loss
        out[f"{p}/delay_ms"] = t.delay_ms
        out[f"{p}/announced"] = t.announced
        out[f"{p}/legit_offered_qps"] = t.legit_offered_qps
        out[f"{p}/legit_served_qps"] = t.legit_served_qps
        out[f"{p}/epoch_of_bin"] = t.epoch_of_bin
        out[f"{p}/stub_site_by_epoch"] = t.stub_site_by_epoch

        obs = result.atlas.letters[letter]
        out[f"{letter}/atlas/site_idx"] = obs.site_idx
        out[f"{letter}/atlas/rtt_ms"] = obs.rtt_ms
        out[f"{letter}/atlas/server"] = obs.server

        out[f"{letter}/route_changes"] = result.route_changes[letter]

        reports = result.rssac[letter]
        out[f"{letter}/rssac/queries"] = np.array(
            [r.queries for r in reports]
        )
        out[f"{letter}/rssac/responses"] = np.array(
            [r.responses for r in reports]
        )
        out[f"{letter}/rssac/unique_sources"] = np.array(
            [r.unique_sources for r in reports]
        )
        out[f"{letter}/rssac/query_hist"] = np.array(
            [
                (i, edge, count)
                for i, r in enumerate(reports)
                for edge, count in sorted(r.query_size_hist.items())
            ],
            dtype=np.float64,
        ).reshape(-1, 3)
        out[f"{letter}/rssac/response_hist"] = np.array(
            [
                (i, edge, count)
                for i, r in enumerate(reports)
                for edge, count in sorted(r.response_size_hist.items())
            ],
            dtype=np.float64,
        ).reshape(-1, 3)
    if result.nl is not None:
        out["nl/served"] = result.nl.served
    return out


def diff_arrays(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray]
) -> list[str]:
    """Names of arrays that differ (shape, dtype, or any cell) or are
    present on only one side.  Empty means bit-identical."""
    mismatches: list[str] = []
    for name in sorted(a):
        if name not in b:
            mismatches.append(name)
            continue
        want, got = np.asarray(a[name]), np.asarray(b[name])
        if want.shape != got.shape or want.dtype != got.dtype:
            mismatches.append(name)
            continue
        # equal_nan only applies to float/complex dtypes; asking for
        # it on string arrays (substrate constants carry unicode ids)
        # is a TypeError.
        equal_nan = want.dtype.kind in "fc"
        if not np.array_equal(want, got, equal_nan=equal_nan):
            mismatches.append(name)
    mismatches.extend(sorted(set(b) - set(a)))
    return mismatches
