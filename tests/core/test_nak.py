"""Unit and property tests for the receiver NAK list."""

from hypothesis import given, settings, strategies as st

from repro.core.nak import NakList, NakRange


def spans(nl: NakList) -> list[tuple[int, int]]:
    return [(r.start, r.end) for r in nl]


def test_add_gap_creates_range():
    nl = NakList()
    new = nl.add_gap(100, 200, now_us=0)
    assert [(r.start, r.end) for r in new] == [(100, 200)]
    assert spans(nl) == [(100, 200)]
    assert nl.total_missing() == 100


def test_add_overlapping_gap_only_new_portions():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    new = nl.add_gap(150, 300, 1)
    assert [(r.start, r.end) for r in new] == [(200, 300)]
    assert nl.total_missing() == 200


def test_add_gap_subsumed_returns_nothing():
    nl = NakList()
    nl.add_gap(100, 300, 0)
    assert nl.add_gap(150, 250, 1) == []
    assert nl.total_missing() == 200


def test_add_gap_bridges_two_ranges():
    nl = NakList()
    nl.add_gap(100, 150, 0)
    nl.add_gap(300, 350, 0)
    new = nl.add_gap(100, 350, 1)
    assert [(r.start, r.end) for r in new] == [(150, 300)]
    assert nl.total_missing() == 250


def test_empty_gap_ignored():
    nl = NakList()
    assert nl.add_gap(100, 100, 0) == []
    assert nl.add_gap(200, 100, 0) == []
    assert not nl


def test_fill_removes_covered():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    nl.fill(100, 200, 0)
    assert not nl


def test_fill_partial_splits():
    nl = NakList()
    nl.add_gap(100, 400, 0)
    nl.fill(200, 300, 0)
    assert spans(nl) == [(100, 200), (300, 400)]


def test_fill_preserves_send_bookkeeping():
    nl = NakList()
    nl.add_gap(100, 400, 0)
    rng = nl.first()
    nl.mark_sent(rng, 50)
    nl.fill(100, 200, 60)
    remaining = nl.first()
    assert remaining.last_sent_us == 50
    assert remaining.tries == 1


def test_fill_below():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    nl.add_gap(300, 400, 0)
    nl.fill_below(350, 0)
    assert spans(nl) == [(350, 400)]


def test_books_count_each_gap_once():
    """Opened gaps and their bytes, then each closed gap exactly once:
    filled (with its open -> fill lag) or abandoned by a NAK_ERR."""
    nl = NakList()
    nl.add_gap(100, 200, 10)
    nl.add_gap(150, 400, 20)            # only [200, 400) is new
    nl.add_gap(500, 600, 30)
    assert (nl.gaps_opened, nl.gap_bytes) == (3, 400)
    nl.fill(250, 300, 40)               # a hole punched: nothing closed
    nl.fill(100, 200, 50)
    nl.fill_below(300, 70)              # closes the [200, 250) remnant
    assert (nl.gaps_filled, nl.lags_us) == (2, [40, 50])
    nl.fill_below(600, 90, abandon=True)
    assert (nl.gaps_filled, nl.gaps_abandoned) == (2, 2)
    assert not nl


def test_due_counts_what_the_timer_holds_back():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    nl.add_gap(300, 400, 0)
    nl.mark_sent(nl.first(), 0)
    assert len(nl.due(500, 1000)) == 1
    assert nl.suppressed_timer == 0, "only a NAK-manager tick counts"
    assert len(nl.due(500, 1000, tick=True)) == 1
    assert nl.suppressed_timer == 1


def test_due_respects_suppression():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    rng = nl.first()
    assert nl.due(now_us=0, suppress_interval_us=1000) == [rng]
    nl.mark_sent(rng, 0)
    assert nl.due(500, 1000) == []
    # one try => backoff factor 2: due after 2 * 1000
    assert nl.due(1500, 1000) == []
    assert nl.due(2000, 1000) == [rng]


def test_due_backoff_capped():
    nl = NakList()
    nl.add_gap(100, 200, 0)
    rng = nl.first()
    for _ in range(20):
        nl.mark_sent(rng, 0)
    # tries are capped at 8: interval = min(1000 * 2**8, MAX) = 256000
    assert nl.due(255_999, 1000) == []
    assert nl.due(256_000, 1000) == [rng]
    # with a large base interval the absolute cap binds
    assert nl.due(NakList.MAX_INTERVAL_US - 1, 100_000) == []
    assert nl.due(NakList.MAX_INTERVAL_US, 100_000) == [rng]


def test_mark_sent_counts_tries():
    nl = NakList()
    nl.add_gap(0, 10, 0)
    rng = nl.first()
    nl.mark_sent(rng, 5)
    nl.mark_sent(rng, 6)
    assert rng.tries == 2
    assert rng.last_sent_us == 6


@settings(max_examples=80)
@given(st.lists(st.tuples(st.sampled_from(["gap", "fill"]),
                          st.integers(0, 400), st.integers(1, 120)),
                max_size=60))
def test_naklist_matches_set_model(ops):
    """The NAK list must track exactly the missing byte set."""
    nl = NakList()
    model: set[int] = set()
    for op, start, length in ops:
        end = start + length
        if op == "gap":
            nl.add_gap(start, end, 0)
            model |= set(range(start, end))
        else:
            nl.fill(start, end, 0)
            model -= set(range(start, end))
        listed = set()
        for r in nl:
            listed |= set(range(r.start, r.end))
        assert listed == model
        # ranges disjoint and ordered
        ends = [(r.start, r.end) for r in nl]
        for (s1, e1), (s2, e2) in zip(ends, ends[1:]):
            assert e1 <= s2


def test_range_length_wraps():
    r = NakRange(0xFFFFFFF0, 16, 0)
    assert r.length == 32
