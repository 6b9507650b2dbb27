"""Test oracles: independent reference answers that the simulator's own
paths are checked against."""

from lucasim.model import CHECKOUT, visit_interval


def intervals_overlap(a, b):
    """Half-open intervals ``a`` and ``b`` overlap."""
    return a[0] < b[1] and b[0] < a[1]


def checkout_times(log):
    """Record id -> checkout time, from the log's checkout events."""
    return {e.data.record_id: e.t for e in log.events if e.kind == CHECKOUT}


def true_cotenants(log, user_id, days):
    """Users whose visits overlap the given user's visits on the given days.

    An O(n^2) scan straight over the event log: ``days`` selects which of the
    index user's visits count (by check-in day, mirroring the per-day tracing
    seeds); other users' visits are matched purely by interval overlap at the
    same venue.
    """
    visits = log.all_visits()
    checkouts = checkout_times(log)
    out = set()
    for a in visits:
        if a.user_id != user_id or a.day not in set(days):
            continue
        for b in visits:
            if b.user_id == user_id or b.venue_id != a.venue_id:
                continue
            ia = visit_interval(a.checkin_t, checkouts.get(a.record_id))
            ib = visit_interval(b.checkin_t, checkouts.get(b.record_id))
            if intervals_overlap(ia, ib):
                out.add(b.user_id)
    return out
