"""Randomized equivalence between the queue layer and the list reference.

The heavy multi-seed runs live in test_acceptance; these keep a fast version
in the default suite so ordinary development catches semantic drift.
"""

import random

from skyq import cpqa, oracle
from skyq.blockio import IoAccount, IoConfig
from skyq.cli import apply_op, main, run_equivalence
from skyq.cpqa import Element, Queue


def test_driver_reports_clean_run():
    r = run_equivalence(123, 5000, 16, B=64, b=8, validate_every=50)
    assert r["ok"], r["mismatch"]
    assert r["violations"] == []
    assert r["ops"] == 5000


def test_driver_multiple_seeds_small():
    for seed in (0, 1, 2, 3):
        r = run_equivalence(seed, 2000, 8, B=32, b=4, validate_every=100)
        assert r["ok"], (seed, r["mismatch"])
        assert r["violations"] == []


def test_driver_detects_planted_fault(monkeypatch, capsys):
    # the harness must be able to fail: delete_min reports a wrong element,
    # or reports the right one and loses the rest of the queue, so that the
    # slot's next pop or query finds it empty where the reference is not
    real = cpqa.delete_min

    def wrong(Q):
        el, rest = real(Q)
        return Element(el.key + 1, el.payload), rest

    def lossy(Q):
        return real(Q)[0], cpqa.empty(Q.account)

    for planted in (wrong, lossy):
        monkeypatch.setattr(cpqa, "delete_min", planted)
        r = run_equivalence(5, 1500, 8, B=32, b=4)
        assert not r["ok"]
        assert "!=" in r["mismatch"]
        assert r["violations"] == []
        argv = ["--seed", "5", "--ops", "1500", "--pool", "8", "--B", "32", "--b", "4"]
        assert main(["run", *argv]) == 2
        assert "MISMATCH" in capsys.readouterr().out


def test_driver_detects_planted_violation(monkeypatch, capsys):
    # insert_and_attrite hands out a version whose cached minimum is stale
    real = cpqa.insert_and_attrite

    def stale(Q, e):
        out = real(Q, e)
        return Queue(out.account, out.C, out.Bq, out.D, Element(out.cached_min.key + 1))

    monkeypatch.setattr(cpqa, "insert_and_attrite", stale)
    r = run_equivalence(5, 1500, 8, B=32, b=4, validate_every=1)
    assert not r["ok"]
    assert r["violations"]
    assert all("min-cache" in v for v in r["violations"])
    argv = ["--seed", "5", "--ops", "1500", "--pool", "8", "--B", "32", "--b", "4"]
    assert main(["run", *argv, "--every", "1"]) == 3
    assert "min-cache" in capsys.readouterr().out


def test_persistence_under_generated_stream():
    """Old versions drain identically after later operations pile up."""
    acct = IoAccount(IoConfig(B=64, M=1 << 22, b=8))
    pool = [cpqa.empty(acct) for _ in range(8)]
    refs = [[] for _ in range(8)]
    kept = []
    for i, op in enumerate(oracle.gen_ops(99, 4000, pool=8)):
        assert apply_op(acct, pool, op) == oracle.naive_apply(refs, op), (i, op)
        if i % 500 == 0:
            kept.append((pool[0], [k for k, _ in refs[0]]))
    with acct.suspended():
        for version, expect in kept:
            assert [e.key for e in cpqa.drain(version)] == expect


def test_randomized_catenate_web():
    """Heavily shared versions: catenate the same operands repeatedly."""
    acct = IoAccount(IoConfig(B=64, M=1 << 22, b=4))
    rng = random.Random(13)
    bases = []
    refs = []
    for _ in range(6):
        ks = sorted(rng.sample(range(100_000), 30))
        q = cpqa.empty(acct)
        for k in ks:
            q = cpqa.insert_and_attrite(q, Element(k))
        bases.append(q)
        refs.append([(k, None) for k in ks])
    for _ in range(60):
        i, j = rng.randrange(6), rng.randrange(6)
        q = cpqa.catenate_and_attrite(bases[i], bases[j])
        expect = oracle.naive_catenate_and_attrite(refs[i], refs[j])
        with acct.suspended():
            assert [e.key for e in cpqa.drain(q)] == [k for k, _ in expect]
        assert cpqa.validate(q) == []
    # operands never disturbed by being shared
    for q, ref in zip(bases, refs):
        with acct.suspended():
            assert [e.key for e in cpqa.drain(q)] == [k for k, _ in ref]
