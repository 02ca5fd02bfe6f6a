"""Reach census of the index: every line of skyline.py runs on a fixed
corpus, or is allowed below with the reason it is kept.

The corpus is the dense run-then-sweep test of test_skyline, which reaches
every split, merge and redistribution; its bulk-build and staircase tests,
which keep and rebuild staircases at each level, and stop the extent walk
at the leaf or carry it to the root; the uniform and anti-correlated runs of
test_cost_fingerprint; and test_skyline's cases for the empty index,
membership, missed and refused updates and the query key's order.
Lines are named and left out as in the queue layer's census
(test_cpqa_census). No line is allowed: each branch the balance invariant
rules out is deleted, not kept.
"""

from collections import Counter

import pytest
import test_skyline as unit
from skyq import skyline
from test_cost_fingerprint import anticorrelated_run, skyline_run
from test_cpqa_census import census_lines, each_case, reached


def patched(test):
    with pytest.MonkeyPatch.context() as mp:
        test(mp)


CORPUS = (
    *each_case(unit.test_dense_run_then_sweep_reaches_every_split_and_rebalance),
    # the bulk build's short last runs, of children and of points
    unit.test_bulk_build_joins_a_short_last_run_so_a_hidden_delete_keeps_every_node,
    unit.test_bulk_build_splits_a_short_last_leaf_run_evenly_with_the_one_before,
    unit.test_update_hidden_by_right_siblings_keeps_every_internal_staircase,
    unit.test_new_global_maximum_rebuilds_the_root_staircase,
    unit.test_update_hidden_in_its_leaf_keeps_every_staircase,
    # the extent walk's stop, and its reach to the root
    lambda: patched(unit.test_hidden_update_recounts_up_to_the_first_node_whose_extent_stays),
    unit.test_hidden_point_into_a_full_leaf_still_splits_it,
    lambda: skyline_run(16, 0.5),
    lambda: anticorrelated_run(64, 1 / 3),
    # the empty index, membership, missed and refused updates and the query
    # key's order
    unit.test_empty_index,
    unit.test_delete_to_empty_and_rebuild,
    unit.test_delete_missing_point_returns_false,
    unit.test_refused_updates_keep_the_point_count_and_an_emptied_index_restarts_it,
    unit.test_membership_takes_any_point_sequence_as_delete_does,
    unit.test_counters_move_under_queries,
    *each_case(unit.test_query_bound_orders_above_its_height_from_either_side),
)

# (function, source line) of each line left unreached, with why it stays.
ALLOWED = Counter()


def test_every_index_line_runs_or_is_allowed():
    lines = census_lines(skyline)
    hit = reached(CORPUS, skyline)
    missed = Counter(lines[n] for n in lines if n not in hit)
    assert missed == ALLOWED
