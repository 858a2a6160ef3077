"""What the recorded corpus holds, pinned so that an edit cannot shrink it
unnoticed."""

from collections import Counter

import nsscale.trace
from corpus import corpus_digest
from nsscale.simulator import PHASE_FAILED

# Members per family: every random seed fits its initial level, 119 of the
# 150 small-zone seeds do.
MEMBERS = {"sample": 24, "sample-fault": 129, "sweep": 28, "random": 200,
           "reservation": 100, "small-zone": 119, "churn": 1, "indicator": 1}


def test_the_corpus_holds_every_member_unchanged(corpus):
    """The member count of each family; the operations of the random
    seeds; one failed operation per injected write in each fault sweep; a
    trace longer than one batch of `trace_lines`; and every record as it
    was built (the fixture checks this again as the session ends)."""
    assert {family: len(records) for family, records in corpus.items()} \
        == MEMBERS
    assert sum(len(record.result.operations)
               for record in corpus["random"].values()) == 3244
    injected, failed = Counter(), Counter()  # by sweep, a label less its k
    for family in ("sample-fault", "sweep"):
        for label, record in corpus[family].items():
            injected[label[:-1]] += label[-1] > 0
            failed[label[:-1]] += sum(op.phase == PHASE_FAILED
                                      for op in record.result.operations)
    assert len(injected) == 24 and failed == injected
    assert max(len(record.result.trace) for records in corpus.values()
               for record in records.values()) > nsscale.trace.LINES_PER_JOIN
    assert corpus_digest(corpus) == corpus.digest
