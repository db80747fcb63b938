"""Statistics of the request-path benchmark: percentiles, failure counts,
span self times and the reply-stall detector. Pure functions over the raw
record km_reqbench writes; tested by test_stats.py."""

import math

# Outcome codes of a request record (reqbench.cc, enum Outcome).
OK, ERRR, RTRY, LOST, DEGRADED, MISMATCH = range(6)
OUTCOME_NAMES = {OK: "ok", ERRR: "errr", RTRY: "rtry", LOST: "lost",
                 DEGRADED: "degraded", MISMATCH: "mismatch"}

# Fields of one request record: [rid, conn, due_ms, sent_ms, done_ms,
# outcome, rr, qid]. Times are ms on the run's clock; rr is the reciprocal
# rank of the gold SQL (-1 when the query has no gold); qid numbers the
# distinct queries (-1 when the query has no gold).
RID, CONN, DUE, SENT, DONE, OUTCOME, RR, QID = range(8)

# Tail percentiles are reported only where at least this many samples lie
# beyond them.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of `values`."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, cap=99):
    """The highest whole percentile (at most `cap`, at least 50) with at
    least MIN_BEYOND of `n` samples beyond it."""
    for q in range(cap, 49, -1):
        if n - math.ceil(q / 100.0 * n) >= MIN_BEYOND:
            return q
    return 50


def latencies(records):
    """Client latency of each request from its scheduled send; a request
    that did not succeed counts as infinitely late."""
    return [r[DONE] - r[DUE] if r[OUTCOME] == OK else math.inf
            for r in records]


def latency_summary(records):
    """(p50, tail value, tail percentile, n) of the records' latencies."""
    lat = latencies(records)
    q = tail_percentile(len(lat))
    return percentile(lat, 50), percentile(lat, q), q, len(lat)


def median(values):
    """Upper median (a measured sample, not an interpolation)."""
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def windowed_tail(records, window=1000):
    """(value, percentile, windows): the records, in send order, are cut
    into consecutive windows of at least `window` requests; each window's
    tail is its highest percentile with MIN_BEYOND samples beyond it (at
    most p99), and the median of the windows' tails is reported. A burst
    of interference then moves one window, not the result."""
    ordered = sorted(records, key=lambda r: r[DUE])
    k = max(1, len(ordered) // window)
    size = len(ordered) // k
    tails, qs = [], []
    for i in range(k):
        chunk = ordered[i * size:(i + 1) * size if i < k - 1 else None]
        _, tail, q, _ = latency_summary(chunk)
        tails.append(tail)
        qs.append(q)
    return median(tails), min(qs), k


def count_failures(records):
    """(attempted, failed, {outcome name: count}). Every request sent is
    attempted; every outcome but a complete, verified answer is a failure."""
    by_kind = {}
    for r in records:
        if r[OUTCOME] != OK:
            name = OUTCOME_NAMES.get(r[OUTCOME], "unknown")
            by_kind[name] = by_kind.get(name, 0) + 1
    return len(records), sum(by_kind.values()), by_kind


def mean_reciprocal_rank(records):
    """MRR over the distinct queries with a gold answer, each scored by its
    first request (a failed request scores 0)."""
    first = {}
    for r in sorted(records, key=lambda r: r[SENT]):
        if r[QID] >= 0 and r[QID] not in first:
            first[r[QID]] = max(r[RR], 0.0) if r[OUTCOME] == OK else 0.0
    return sum(first.values()) / len(first) if first else 0.0


def closed_loop_qps(records, t0_ms, end_ms):
    """Successful replies completed inside [t0, end) per second."""
    done = sum(1 for r in records
               if r[OUTCOME] == OK and t0_ms <= r[DONE] < end_ms)
    return done * 1000.0 / (end_ms - t0_ms)


def covered(interval, others):
    """Length of the part of `interval` that the union of `others` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others
                     if min(hi, b) > max(lo, a))
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover.
    Spans are (start, end) pairs."""
    return (span[1] - span[0]) - covered(span, children)


def stalled_replies(records, interval_ms, window_ms=0.5):
    """(stalled, base): replies that arrive less than `window_ms` after
    their connection's next send and took at least one send interval —
    the signature of a reply held until the client's next packet. The
    base counts replies that have a next send on their connection."""
    by_conn = {}
    for r in records:
        by_conn.setdefault(r[CONN], []).append(r)
    stalled = base = 0
    for recs in by_conn.values():
        recs.sort(key=lambda r: r[SENT])
        for cur, nxt in zip(recs, recs[1:]):
            if cur[OUTCOME] != OK:
                continue
            base += 1
            gap = cur[DONE] - nxt[SENT]
            if 0 <= gap < window_ms and cur[DONE] - cur[DUE] >= interval_ms:
                stalled += 1
    return stalled, base


class SpanTree:
    """Spans of a traced run: [rid, id, parent, name, start_ms, end_ms]."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s[2], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s[3] == name]

    def self_ms(self, span):
        kids = [(c[4], c[5]) for c in self.children.get(span[1], [])]
        return self_time((span[4], span[5]), kids)

    def has_child(self, span, name):
        return any(c[3] == name for c in self.children.get(span[1], []))

    def per_request(self, name):
        """Summed duration of the spans called `name`, per request id."""
        out = {}
        for s in self.named(name):
            out[s[0]] = out.get(s[0], 0.0) + s[5] - s[4]
        return out
