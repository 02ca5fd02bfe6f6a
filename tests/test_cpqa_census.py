"""Reach census of the queue layer: every line of cpqa's operations runs on
a fixed corpus, or is allowed below with the reason it is kept.

The corpus is the reach witnesses of test_cpqa, the drift stream of
test_cost_fingerprint at (B, b) = (16, 4) and (8, 2), two concat_sequence
folds, and the hand cases of test_cpqa that reach the oversize catenations,
pops down to the empty version, construction and observation. A line
tracer limited to cpqa.py records what runs. The census leaves out
docstrings, lines that only raise or _panic, and the diagnostics:
_panic, validate, dump and __repr__. A line is named by its function and
source text, not by its number, so edits elsewhere in cpqa leave the
allowlist as it is.
"""

import ast
import inspect
import sys
from collections import Counter

import pytest

import test_cpqa as unit
from skyq import cpqa
from test_cost_fingerprint import drift_stream, run_stream

DIAGNOSTICS = {"_panic", "validate", "_validate_one", "dump", "__repr__"}


def each_case(test):
    """One call per parameter set of a parametrized test, each with a fresh
    MonkeyPatch when the test takes one."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    patched = "monkeypatch" in inspect.signature(test).parameters

    def call(args):
        with pytest.MonkeyPatch.context() as mp:
            test(*(mp,) * patched, *args)

    return [lambda a=a: call(a if isinstance(a, tuple) else (a,)) for a in mark.args[1]]


CORPUS = (
    *each_case(unit.test_reach_witness),
    lambda: run_stream(16, 4, drift_stream(35, 2000)),
    lambda: run_stream(8, 2, drift_stream(35, 2000)),
    # folds: one that runs the general catenation's bias loop, and one whose
    # result needs the closing bias
    unit.test_concat_sequence_folds_in_order,
    unit.test_concat_sequence_hands_back_a_prepared_operand,
    # _cat_small_right's two oversize fall-throughs
    *each_case(unit.test_short_right_operand_that_would_overfill_a_record_goes_general),
    # pops down to the empty version
    unit.test_delete_min_returns_increasing_sequence,
    # construction and observation
    unit.test_empty_queue,
    unit.test_singleton,
    lambda: unit.test_from_run_matches_the_insert_fold(3),
    unit.test_find_min_tracks_front,
    unit.test_bring_in_makes_critical_records_free_for_the_operation,
    unit.test_nan_drain_bound_is_refused,
    unit.test_concat_sequence_rejects_unbalanced_input,
    unit.test_total_records_and_dump_reach_every_child,
)

# (function, source line) of each line left unreached, with why it stays.
ALLOWED = Counter(
    {
        # a version reached twice from one version: two of its records
        # share a child, which needs operands that share a dirty record
        # with a child and a catenation that keeps both
        ("_versions", "continue"): 1,
    }
)


def census_lines(module, diagnostics=frozenset()):
    """Line number -> (function, stripped source) of every statement in a
    function of module, with the functions named in diagnostics, docstrings
    and lines that only raise or _panic left out."""
    with open(module.__file__) as f:
        source = f.read()
    text = source.splitlines()
    out = {}
    tree = ast.parse(source)
    functions = [f for node in tree.body for f in (node.body if isinstance(node, ast.ClassDef) else [node])]
    for fn in functions:
        if not isinstance(fn, ast.FunctionDef) or fn.name in diagnostics:
            continue
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        for node in body:
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.stmt):
                    line = text[stmt.lineno - 1].strip()
                    if not line.startswith(("raise ", "_panic(")):
                        out[stmt.lineno] = (fn.name, line)
    return out


def reached(corpus, module):
    """The line numbers of module's file that run while the corpus runs."""
    path = module.__file__
    hit = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == path else None

    old = sys.gettrace()
    sys.settrace(call)
    try:
        for run in corpus:
            run()
    finally:
        sys.settrace(old)
    return hit


def test_every_queue_line_runs_or_is_allowed():
    lines = census_lines(cpqa, DIAGNOSTICS)
    hit = reached(CORPUS, cpqa)
    missed = Counter(lines[n] for n in lines if n not in hit)
    assert missed == ALLOWED
