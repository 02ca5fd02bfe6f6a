"""Reach census of the accounting layer: every line of blockio.py runs on
the queue layer's and the index's census corpora (test_cpqa_census,
test_skyline_census) and the raw charges under suspension, or is allowed
below with the reason it is kept.
Lines are named and left out as in the queue layer's census, __repr__ with
the diagnostics.
"""

from collections import Counter

import test_blockio
import test_cpqa_census
import test_skyline_census
from skyq import blockio
from test_cpqa_census import census_lines, reached

# (function, source line) of each line left unreached, with why it stays.
ALLOWED = Counter(
    {
        # The pin API and depth: no corpus pins a record or asks the depth,
        # but benchmark/tracing.py wraps register, pin, unpin, is_pinned,
        # current_op and depth by name, so they stay until the tracer stops
        # naming them (ROADMAP items 3 and 7).
        ("register", "self._registry[handle] = words"): 1,
        ("pin", "if handle not in self._registry:"): 1,
        ("pin", "if handle in self._pinned:"): 1,
        ("pin", "return"): 1,
        ("pin", "words = self._registry[handle]"): 1,
        ("pin", "self._pinned[handle] = words"): 1,
        ("pin", "self._pinned_words += words"): 1,
        ("pin", "if self._pinned_words > self.counters.peak_pinned_words:"): 1,
        ("pin", "self.counters.peak_pinned_words = self._pinned_words"): 1,
        ("pin", "if self._pinned_words > self.cfg.M:"): 1,
        ("pin", "self.violation = True"): 1,
        ("unpin", "if handle not in self._pinned:"): 1,
        ("unpin", "self._pinned_words -= self._pinned.pop(handle)"): 1,
        ("unpin", "del self._registry[handle]"): 1,
        ("is_pinned", "return handle in self._pinned"): 1,
        ("depth", "return self._depth"): 1,
        # the CLI prints an account's counters with to_text
        ("to_text", 'return "reads=%d writes=%d peak_pinned=%d" % ('): 1,
    }
)


def test_every_accounting_line_runs_or_is_allowed():
    lines = census_lines(blockio, {"__repr__"})
    # a suspended operation writes nothing back, so only a raw charge
    # reaches charge_write_words' suspended return
    corpus = test_cpqa_census.CORPUS + test_skyline_census.CORPUS + (test_blockio.test_suspended_charges_are_free,)
    hit = reached(corpus, blockio)
    missed = Counter(lines[n] for n in lines if n not in hit)
    assert missed == ALLOWED
