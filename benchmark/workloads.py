"""The benchmark's workloads and the closed loop that drives them.

Every workload makes its inputs from the seed before the program sees any of
them, builds the program's state (the timed set-up), and then hands out
rounds of operations. The loop issues one public call at a time, times it
from outside, charges it the blocks the account moved while it ran, and
checks its answer, outside the timed span, against a computation made apart
from the program. A run attempts whole rounds only.

Both workloads use the default cost model: B=64, epsilon=1/3, so b=16.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from bisect import bisect_left, insort

from skyq import cpqa, oracle
from skyq.blockio import IoAccount, IoConfig
from skyq.cpqa import Element
from skyq.skyline import SkylineIndex

from checks import band_staircase, query_problem, queue_problem

B = 64
EPSILON = 1 / 3
BUF = 16  # b = B ** (1 - epsilon)
SETUP_REPS = 3  # set-up slots; the timed rounds are spread between them
SETUP_MIN_S = 2.0  # a set-up shorter than this in all repeats until this much has passed
MIN_REPS = 3  # every operation is timed at least this many times


class SkylineChurn:
    """Balanced insert/delete over uniform, independent points, plus narrow queries.

    n + swap points with x and y drawn without replacement from range(10 n);
    the index starts with n of them. Round A deletes a fixed random sample D
    of swap live points and inserts the swap held-back points F; round B
    puts D back and deletes F. Each round interleaves its updates, in a fixed
    shuffled order, with queries whose bands span 2**6 .. 2**13 points
    (log-uniform, stratified) with y_min below every point, so an answer
    holds about seven points. The live set is back where it started after
    every two rounds, so the same operations repeat with period two.
    """

    name = "skyline-churn"
    counts_faults = False
    period = 2

    def __init__(self, seed: int, n: int = 100_000, swap: int = 250, queries: int = 60):
        rng = random.Random(seed)
        xs = rng.sample(range(10 * n), n + swap)
        ys = rng.sample(range(10 * n), n + swap)
        self.initial = sorted(zip(xs[:n], ys[:n]))
        fresh = list(zip(xs[n:], ys[n:]))
        gone = rng.sample(self.initial, swap)
        bands = []
        for q in range(queries):
            w = min(n, _stratified_width(rng, q, queries, 6, 13))
            i = rng.randrange(n - w + 1)
            bands.append(("query3", self.initial[i][0], self.initial[i + w - 1][0], -1))

        def mix(ins: list, dels: list) -> list:
            ops = [("insert", p) for p in ins] + [("delete", p) for p in dels] + bands
            rng.shuffle(ops)
            return ops

        self.ops = (mix(fresh, gone), mix(gone, fresh))
        self.live = list(self.initial)
        self.idx = None

    def setup(self) -> None:
        self.idx = None
        gc.collect()
        self.idx = SkylineIndex(self.initial, B=B, epsilon=EPSILON)

    @property
    def account(self) -> IoAccount:
        return self.idx.account

    def round(self, r: int):
        return self.ops[r % 2]

    def call(self, op):
        kind = op[0]
        if kind == "query3":
            return self.idx.query3(op[1], op[2], op[3])
        if kind == "insert":
            return self.idx.insert(op[1])
        return self.idx.delete(op[1])

    def check(self, op, result, error) -> str | None:
        kind = op[0]
        if kind == "query3":
            if error is not None:
                return _raised(error)
            return query_problem(result, band_staircase(self.live, op[1], op[2], op[3]), op[1], op[2], op[3])
        p = op[1]
        if kind == "insert":
            insort(self.live, p)
            if error is not None:
                return _raised(error)
            return None if result is None else "insert returned %r" % (result,)
        del self.live[bisect_left(self.live, p)]
        if error is not None:
            return _raised(error)
        return None if result is True else "delete of a live point returned %r" % (result,)

    def final_problem(self) -> str | None:
        return _index_problem(self.idx, self.live)


def _stratified_width(rng: random.Random, i: int, count: int, lo: int, hi: int) -> int:
    """Width of the i-th of count bands, log-uniform over 2**lo .. 2**hi.

    One draw per equal slice of the log range, so every seed gets the same
    spread of widths and a run's medians do not hinge on a lucky draw.
    """
    return int(2 ** (lo + (hi - lo) * (i + rng.random()) / count))


def _raised(error: Exception) -> str:
    return "raised %s: %s" % (type(error).__name__, error)


def _index_problem(idx: SkylineIndex, live: list) -> str | None:
    if len(idx) != len(live):
        return "index holds %d points, %d are live" % (len(idx), len(live))
    got = idx.maxima()
    want = band_staircase(live, live[0][0], live[-1][0], min(p[1] for p in live))
    if got != want:
        return "maxima() gave %d points, %d expected" % (len(got), len(want))
    return None


# -- queue-drift -------------------------------------------------------------

DRIFT_POOL = 4
DRIFT_WARM = 500  # drifting inserts per slot in the warm pool
DRIFT_ROUND = 5000  # operations per round
DRIFT_MIX = (("insert", 55), ("catenate", 15), ("delete_min", 20), ("find_min", 10))
DRIFT_DIP = 0.05  # share of inserts that land below the source tail
DRIFT_DIP_MEAN = 8  # mean number of tail elements a shallow dip cuts
DRIFT_DEEP = 0.02  # share of dips that cut at a uniform position instead
DRIFT_GAP = 1000.0  # an upward insert lands within this gap above the tail
# The operation schedule is fixed, so the _bias_buffer fault hits the same
# operations in every round of every run; the seed only relabels the keys
# through an order-preserving map and draws the payloads.
DRIFT_SCHEDULE_SEED = 12072341


def drift_schedule(rng: random.Random, pool: int, warm: int, count: int):
    """(warm inserts, round operations) of a drift-key stream, keys as floats.

    Warm inserts are (slot, key). Operations are ("insert", dst, src, key),
    ("catenate", dst, a, b), ("delete_min", dst, src) and ("find_min", src);
    none of them meets an empty queue. Most inserts land just above the
    source queue's tail, a share dips below it and attrites what they pass.
    """
    refs: list[list] = [[] for _ in range(pool)]
    used: set[float] = set()
    top = 0.0

    def key_for(ref: list) -> float:
        nonlocal top
        while True:
            if not ref:
                k = top + rng.uniform(1.0, DRIFT_GAP)
            elif rng.random() < DRIFT_DIP:
                if rng.random() < DRIFT_DEEP:
                    j = rng.randrange(len(ref))
                else:
                    j = max(0, len(ref) - 1 - int(rng.expovariate(1 / DRIFT_DIP_MEAN)))
                lo = ref[j - 1][0] if j > 0 else ref[0][0] - DRIFT_GAP
                k = rng.uniform(lo, ref[j][0])
            else:
                k = ref[-1][0] + rng.uniform(1.0, DRIFT_GAP)
            if k not in used:
                used.add(k)
                top = max(top, k)
                return k

    warm_ops = []
    for s in range(pool):
        for _ in range(warm):
            k = key_for(refs[s])
            refs[s] = oracle.naive_insert(refs[s], k)
            warm_ops.append((s, k))
    names = [n for n, _ in DRIFT_MIX]
    weights = [w for _, w in DRIFT_MIX]
    ops: list[tuple] = []
    while len(ops) < count:
        kind = rng.choices(names, weights)[0]
        dst = rng.randrange(pool)
        if kind == "insert":
            src = rng.randrange(pool)
            k = key_for(refs[src])
            refs[dst] = oracle.naive_insert(refs[src], k)
            ops.append(("insert", dst, src, k))
        elif kind == "catenate":
            a, b = rng.randrange(pool), rng.randrange(pool)
            refs[dst] = oracle.naive_catenate_and_attrite(refs[a], refs[b])
            ops.append(("catenate", dst, a, b))
        elif kind == "delete_min":
            src = rng.randrange(pool)
            if refs[src]:
                refs[dst] = refs[src][1:]
                ops.append(("delete_min", dst, src))
        elif refs[dst]:
            ops.append(("find_min", dst))
    return warm_ops, ops


class QueueDrift:
    """cpqa alone: a drift-key stream over a small pool of queue slots.

    Set-up builds the warm pool; every round restarts from it and replays the
    same schedule. Each operation is mirrored on the oracle lists; the
    returned element and the resulting version's live elements must match.
    A mismatch is the _bias_buffer fault: it counts as failed and the slot
    continues from the reference contents, rebuilt outside the timed span
    with charging suspended.
    """

    name = "queue-drift"
    counts_faults = True
    period = 1

    def __init__(self, seed: int, pool: int = DRIFT_POOL, warm: int = DRIFT_WARM, ops: int = DRIFT_ROUND):
        warm_ops, sched = drift_schedule(random.Random(DRIFT_SCHEDULE_SEED), pool, warm, ops)
        rng = random.Random(seed)
        keys = sorted({k for _, k in warm_ops} | {op[3] for op in sched if op[0] == "insert"})
        relabel = {k: Element(i * 4096 + rng.randrange(4096), rng.getrandbits(31)) for i, k in enumerate(keys)}
        self.pool = pool
        self.warm_ops = [(s, relabel[k]) for s, k in warm_ops]
        self.ops = [op[:3] + (relabel[op[3]],) if op[0] == "insert" else op for op in sched]
        self.account = IoAccount(IoConfig(B, B * 4096, BUF))
        self.warm = None
        self.warm_refs = None
        self.qs: list = []
        self.refs: list = []

    def setup(self) -> None:
        acct = self.account
        qs = [cpqa.empty(acct) for _ in range(self.pool)]
        for s, el in self.warm_ops:
            qs[s] = cpqa.insert_and_attrite(qs[s], el)
        self.warm = qs
        refs: list[list] = [[] for _ in range(self.pool)]
        for s, el in self.warm_ops:
            refs[s] = oracle.naive_insert(refs[s], el.key, el.payload)
        self.warm_refs = refs

    def round(self, r: int):
        self.qs = list(self.warm)
        self.refs = list(self.warm_refs)
        return self.ops

    def call(self, op):
        kind = op[0]
        qs = self.qs
        if kind == "insert":
            qs[op[1]] = cpqa.insert_and_attrite(qs[op[2]], op[3])
            return None
        if kind == "catenate":
            qs[op[1]] = cpqa.catenate_and_attrite(qs[op[2]], qs[op[3]])
            return None
        if kind == "delete_min":
            el, qs[op[1]] = cpqa.delete_min(qs[op[2]])
            return el
        return cpqa.find_min(qs[op[1]])

    def check(self, op, result, error) -> str | None:
        kind = op[0]
        refs = self.refs
        dst = op[1]
        want_el = None
        if kind == "insert":
            refs[dst] = oracle.naive_insert(refs[op[2]], op[3].key, op[3].payload)
        elif kind == "catenate":
            refs[dst] = oracle.naive_catenate_and_attrite(refs[op[2]], refs[op[3]])
        elif kind == "delete_min":
            want_el, refs[dst] = oracle.naive_delete_min(refs[op[2]])
        else:
            want_el = oracle.naive_find_min(refs[dst])
        if error is not None:
            problem = _raised(error)
        else:
            problem = queue_problem(result, want_el, cpqa.logical_elements(self.qs[dst]), refs[dst])
        if problem is not None:
            self.resync(dst)
        return problem

    def resync(self, slot: int) -> None:
        acct = self.account
        with acct.suspended():
            q = cpqa.empty(acct)
            for k, p in self.refs[slot]:
                q = cpqa.insert_and_attrite(q, Element(k, p))
        self.qs[slot] = q

    def final_problem(self) -> str | None:
        for s in range(self.pool):
            if cpqa.logical_elements(self.qs[s]) != self.refs[s]:
                return "slot %d differs from its reference at the end" % s
        return None


WORKLOADS = {w.name: w for w in (SkylineChurn, QueueDrift)}


# -- the closed loop -----------------------------------------------------------


class Loop:
    """One caller issuing each operation after the previous one returns.

    A workload's operations repeat every `period` rounds, so each one is
    timed several times; best_ns keeps the least of its times, the one the
    machine disturbed least (its speed drifts by tens of percent over
    seconds, see README.md). Blocks are counted on the first round only,
    and peak memory is read when every operation has run min_reps times,
    so both repeat for a seed however many rounds fit in a run.
    """

    def __init__(self, wl):
        self.wl = wl
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.timed_ns = 0
        self.best_ns: list[list[int]] = [[] for _ in range(wl.period)]
        self.best_kinds: list[list[str]] = [[] for _ in range(wl.period)]
        self.first_round = {"ops": 0, "reads": 0, "writes": 0, "max_blocks": 0}
        self.rss_mb = 0.0  # peak memory when every operation had run min_reps times

    def run(self, seconds: float, min_reps: int = 1, tracer=None) -> tuple[int, int]:
        """Whole periods of rounds until seconds have passed and every
        operation ran min_reps times. Returns (ops attempted, timed ns)."""
        wl = self.wl
        counters = wl.account.counters
        call, check = wl.call, wl.check
        first = self.first_round
        clock = time.perf_counter_ns
        ops0, timed = self.attempted, 0
        deadline = time.perf_counter() + seconds
        reps = 0
        while True:
            in_first = self.rounds == 0
            best = self.best_ns[self.rounds % wl.period]
            kinds = self.best_kinds[self.rounds % wl.period]
            for j, op in enumerate(wl.round(self.rounds)):
                r0, w0 = counters.reads, counters.writes
                if tracer is not None:
                    tracer.begin_op()
                error = None
                t0 = clock()
                try:
                    result = call(op)
                except Exception as exc:  # a raising operation is a failed one
                    result, error = None, exc
                t1 = clock()
                if tracer is not None:
                    tracer.end_op()
                dr, dw = counters.reads - r0, counters.writes - w0
                ns = t1 - t0
                timed += ns
                if j < len(best):
                    if ns < best[j]:
                        best[j] = ns
                else:
                    best.append(ns)
                    kinds.append(op[0])
                self.attempted += 1
                if in_first:
                    first["ops"] += 1
                    first["reads"] += dr
                    first["writes"] += dw
                    if dr + dw > first["max_blocks"]:
                        first["max_blocks"] = dr + dw
                problem = check(op, result, error)
                if problem is not None:
                    self.failed += 1
                    if not wl.counts_faults:
                        self.correct = False
                    if len(self.problems) < 20:
                        self.problems.append("round %d %r: %s" % (self.rounds, op, problem))
            self.rounds += 1
            if self.rounds % wl.period == 0:
                reps += 1
                if reps == min_reps and not self.rss_mb:
                    self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if reps >= min_reps and time.perf_counter() >= deadline:
                    self.timed_ns += timed
                    return self.attempted - ops0, timed


def _pct(sorted_vals: list, pct: int):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, (pct * len(sorted_vals) + 99) // 100 - 1)]


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """The end-to-end metrics. Times come from each operation's best time,
    blocks from the first round."""
    best = sorted(ns for phase in loop.best_ns for ns in phase)
    first = loop.first_round
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) / (sum(best) / 1e9), "ops/s"),
        "op_us_p50": (_pct(best, 50) / 1000, "us"),
        "op_us_p99": (_pct(best, 99) / 1000, "us"),
        "reads_per_op": (first["reads"] / first["ops"], "blocks"),
        "blocks_per_op": ((first["reads"] + first["writes"]) / first["ops"], "blocks"),
        "op_blocks_max": (first["max_blocks"], "blocks"),
        "peak_rss_mb": (loop.rss_mb, "MiB"),
    }


def per_kind(loop: Loop) -> dict:
    """Median and tail of the best times per operation kind, for the detail file."""
    by: dict[str, list[int]] = {}
    for kinds, best in zip(loop.best_kinds, loop.best_ns):
        for k, ns in zip(kinds, best):
            by.setdefault(k, []).append(ns)
    out = {}
    for k, vals in sorted(by.items()):
        vals.sort()
        row = {"count": len(vals), "us_p50": _pct(vals, 50) / 1000}
        if len(vals) >= 1000:
            row["us_p99"] = _pct(vals, 99) / 1000
        out[k] = row
    return out


def setup_slot(wl, min_s: float) -> list[float]:
    """Build the program state once, and again until min_s seconds have passed
    in all; the time of every build."""
    times: list[float] = []
    while not times or sum(times) < min_s:
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, loop: Loop, seconds: float) -> list[float]:
    """SETUP_REPS set-up slots, each followed by an equal share of the timed
    rounds; the time of every build.

    Spreading the rounds between the builds spreads each operation's
    repetitions over the whole run, so its best time comes from the least
    disturbed part of a longer stretch of the host's drifting speed. The
    first share runs until every operation ran MIN_REPS times, where peak
    memory is read.
    """
    times: list[float] = []
    for i in range(SETUP_REPS):
        times += setup_slot(wl, SETUP_MIN_S / SETUP_REPS)
        loop.run(seconds / SETUP_REPS, min_reps=MIN_REPS if i == 0 else 1)
    return times
