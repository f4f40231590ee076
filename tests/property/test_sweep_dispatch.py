"""Cross-process determinism: jobs=1 and jobs=2 dispatch are
bit-identical over random sweep grids.

The sweep engine's core promise is that *how* cells are dispatched --
inline, or to pool workers that receive pickled configs and build
their own substrates -- cannot change a single bit of any result
array.  Hypothesis draws small grids (runtime knobs only, so cells
share a substrate signature and the workers' substrate cache actually
engages) and checks both paths against each other, with a second
property doing the same under the runtime determinism sanitizer
(``REPRO_SANITIZE=1``).

Example counts are tiny: each example runs two sweeps (one of them
spawning a pool), so this is seconds per example -- the property
guards an invariant, it is not a fuzzer.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import diff_arrays, result_arrays
from repro.scenario.config import ScenarioConfig
from repro.sweep import SweepSpec, run_sweep
from repro.util import env

_BASE = ScenarioConfig(
    seed=11,
    n_stubs=40,
    n_vps=24,
    letters=("A", "K"),
    include_nl=False,
)

#: Runtime-knob axes only: every cell keeps the base substrate
#: signature, so a worker reuses one substrate across its cells.
_grids = st.fixed_dictionaries(
    {},
    optional={
        "baseline_days": st.lists(
            st.sampled_from([2, 3, 5, 7]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        "bin_seconds": st.lists(
            st.sampled_from([600, 1200]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    },
).filter(lambda axes: sum(len(v) for v in axes.values()) >= 2)


def _assert_two_way_identical(axes):
    spec = SweepSpec.grid(_BASE, axes)
    serial = run_sweep(spec, jobs=1)
    pooled = run_sweep(spec, jobs=2)
    assert not serial.failures and not pooled.failures
    for index in range(spec.n_cells):
        assert not diff_arrays(
            result_arrays(pooled.results[index]),
            result_arrays(serial.results[index]),
        )


@settings(max_examples=3)
@given(axes=_grids)
def test_dispatch_paths_bit_identical(axes):
    _assert_two_way_identical(axes)


@settings(max_examples=2)
@given(axes=_grids)
def test_dispatch_paths_bit_identical_under_sanitizer(axes):
    # Manual save/restore instead of monkeypatch: hypothesis reuses
    # one test invocation for every example, so a function-scoped
    # fixture would not reset between draws anyway.
    previous = os.environ.get(env.SANITIZE)
    os.environ[env.SANITIZE] = "1"
    try:
        _assert_two_way_identical(axes)
    finally:
        if previous is None:
            del os.environ[env.SANITIZE]
        else:
            os.environ[env.SANITIZE] = previous
