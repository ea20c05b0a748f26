"""Window-edge audit for the colluder drop path (satellite of ISSUE 6).

Audit result, pinned here as documenting regression tests (no bug found):

* ``fault_tolerant_average`` trims **positionally** — it sorts and drops the
  ``f`` smallest / ``f`` largest readings by index, never by comparing
  against a threshold. There is no ``<=`` vs ``<`` edge inside the FTA for
  an adversary to sit on: a reading tied with an honest reading at the trim
  boundary is interchangeable with it, so the aggregate is unaffected by
  which copy gets dropped.
* The threshold comparisons an in-window adversary *can* sit on are the
  validity vouch (``core/validity.py``) and the majority vote
  (``core/gm_voting.py``). Both are **inclusive** (``<=``): a reading at
  exactly the 5 µs threshold is still vouched for / voted valid. That is
  the intended semantics (the bound is "within the precision window", and
  measurement noise should not flip a reading sitting on the bound), and
  these tests pin it so an accidental flip to strict ``<`` — or an
  accidental widening to ``< threshold + 1`` — fails loudly.
* The worst case the inclusive edge grants the adversary is bounded: the
  masking guarantee (aggregate stays inside the honest readings' range for
  up to ``f`` arbitrary faults) holds for colluders *at* the boundary too.
"""

import math

import pytest

from repro.core.fta import (
    AGGREGATORS,
    fault_tolerant_average,
    fault_tolerant_midpoint,
)
from repro.core.ftshmem import StoredOffset
from repro.core.gm_voting import assess_majority
from repro.core.validity import ValidityConfig, assess_validity
from repro.gptp.instance import OffsetSample


def slots(offsets):
    """Fresh StoredOffset map keyed by domain, one per offset."""
    return {
        d: StoredOffset(OffsetSample(d, "gm", off, 0, 0), stored_at=0)
        for d, off in offsets.items()
    }


THRESHOLD = ValidityConfig().threshold


class TestFtaTrimIsPositional:
    def test_tie_at_trim_edge_does_not_move_aggregate(self):
        # Colluder parks exactly on the largest honest reading: whichever
        # copy the sort drops, the surviving multiset is the same.
        honest = [0.0, 10.0, 20.0]
        res = fault_tolerant_average(honest + [20.0], f=1)
        assert res.value == fault_tolerant_average([10.0, 20.0, 20.0, 0.0], f=1).value
        assert res.used == (10.0, 20.0)

    def test_exactly_2f_plus_1_leaves_one_survivor(self):
        res = fault_tolerant_average([1.0, 2.0, 3.0], f=1)
        assert res.used == (2.0,)
        assert res.dropped_low == (1.0,)
        assert res.dropped_high == (3.0,)

    def test_below_2f_plus_1_degrades_drop_count(self):
        # len == 2f: drop degrades to (len-1)//2 per side, one extra value
        # survives rather than trimming everything away.
        res = fault_tolerant_average([1.0, 100.0], f=1)
        assert res.used == (1.0, 100.0)
        assert res.value == 50.5

    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    def test_all_aggregators_share_the_positional_contract(self, name):
        agg = AGGREGATORS[name]
        res = agg([0.0, 10.0, 20.0, 30.0], 1)
        assert res.used == tuple(sorted(res.used))
        assert set(res.used) | set(res.dropped_low) | set(res.dropped_high) \
            <= {0.0, 10.0, 20.0, 30.0}

    def test_masking_holds_for_boundary_colluders(self):
        # f colluders at the exact honest extremes: aggregate still inside
        # the honest range.
        honest = [-3_000.0, 0.0, 2_000.0]
        for colluder in (-3_000.0, 2_000.0):
            res = fault_tolerant_average(honest + [colluder], f=1)
            assert min(honest) <= res.value <= max(honest)
            res = fault_tolerant_midpoint(honest + [colluder], f=1)
            assert min(honest) <= res.value <= max(honest)


class TestValidityBoundaryInclusive:
    def test_exactly_at_threshold_is_valid(self):
        flags = assess_validity(
            slots({1: 0.0, 2: 0.0, 3: float(THRESHOLD)}), ValidityConfig()
        )
        assert flags[3] is True

    def test_one_past_threshold_is_invalid(self):
        flags = assess_validity(
            slots({1: 0.0, 2: 0.0, 3: float(THRESHOLD + 1)}), ValidityConfig()
        )
        assert flags[3] is False
        assert flags[1] is True and flags[2] is True

    def test_boundary_is_symmetric(self):
        flags = assess_validity(
            slots({1: 0.0, 2: 0.0, 3: -float(THRESHOLD)}), ValidityConfig()
        )
        assert flags[3] is True
        flags = assess_validity(
            slots({1: 0.0, 2: 0.0, 3: -float(THRESHOLD + 1)}), ValidityConfig()
        )
        assert flags[3] is False

    def test_colluding_pair_vouches_even_out_of_window(self):
        # The known soft spot the campaign layer exercises: two far-out
        # readings within threshold of *each other* vouch mutually and both
        # stay valid — the FTA trim, not the validity gate, must mask them.
        far = float(10 * THRESHOLD)
        flags = assess_validity(
            slots({1: 0.0, 2: 0.0, 3: far, 4: far + 1}), ValidityConfig()
        )
        assert flags[3] is True and flags[4] is True


class TestVotingBoundaryInclusive:
    def test_exactly_at_threshold_from_median_is_valid(self):
        config = ValidityConfig()
        flags = assess_majority(
            slots({1: 0.0, 2: 0.0, 3: 0.0, 4: float(config.threshold)}),
            config,
        )
        assert flags[4] is True

    def test_one_past_threshold_from_median_is_faulty(self):
        config = ValidityConfig()
        flags = assess_majority(
            slots({1: 0.0, 2: 0.0, 3: 0.0, 4: float(config.threshold + 1)}),
            config,
        )
        assert flags[4] is False


class TestWindowProperties:
    """Hypothesis: the in-window/out-of-window contract over random inputs."""

    def test_in_window_never_dropped_out_of_window_always(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        honest = st.lists(
            st.integers(min_value=-2_000, max_value=2_000),
            min_size=2, max_size=6,
        )

        @given(
            honest=honest,
            margin=st.integers(min_value=0, max_value=THRESHOLD),
        )
        @settings(max_examples=100, deadline=None)
        def check_in_window(honest, margin):
            # Within `threshold` of an honest reading -> always vouched.
            attacker = float(honest[0] + (THRESHOLD - margin))
            offsets = {i + 1: float(v) for i, v in enumerate(honest)}
            offsets[len(honest) + 1] = attacker
            flags = assess_validity(slots(offsets), ValidityConfig())
            assert flags[len(honest) + 1] is True

        @given(
            honest=honest,
            excess=st.integers(min_value=1, max_value=10 * THRESHOLD),
        )
        @settings(max_examples=100, deadline=None)
        def check_out_of_window(honest, excess):
            # Beyond `threshold` of every honest reading, no accomplice ->
            # always flagged invalid.
            attacker = float(max(honest) + THRESHOLD + excess)
            offsets = {i + 1: float(v) for i, v in enumerate(honest)}
            offsets[len(honest) + 1] = attacker
            flags = assess_validity(slots(offsets), ValidityConfig())
            assert flags[len(honest) + 1] is False

        check_in_window()
        check_out_of_window()

    def test_fta_masks_any_f_faults_within_honest_range(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        # The exact mean of the used readings lies inside the honest
        # range; the computed one may miss it by the rounding of summing
        # and dividing len(used) doubles, at most len(used) ulps of the
        # largest honest magnitude. Both examples land just outside the
        # exact range: sum([0.1] * 3) / 3 is 0.10000000000000002.
        @example(honest=[0.1, 0.1, 0.1], faulty=[])
        @example(honest=[-699051.224498994] * 3, faulty=[])
        @given(
            honest=st.lists(
                st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=9,
            ),
            faulty=st.lists(
                st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=0, max_size=2,
            ),
        )
        @settings(max_examples=150, deadline=None)
        def check(honest, faulty):
            f = len(faulty)
            if len(honest) < 2 * f + 1:
                return
            res = fault_tolerant_average(honest + faulty, f=f)
            lo, hi = min(honest), max(honest)
            rounding = len(res.used) * math.ulp(max(abs(lo), abs(hi)))
            assert lo - rounding <= res.value <= hi + rounding

        check()
