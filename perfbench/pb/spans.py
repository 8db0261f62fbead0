"""Self-time attribution over the spans the in-process driver records.

A span is `[id, parent, name, start_us, end_us]`, with parent -1 for a
root. A span's self time is its duration minus the part of its interval
that its child spans cover; children that overlap (worker threads of one
parent) are counted once.
"""


def covered(interval, children):
    """Microseconds of `interval` covered by the union of `children`."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Maps span id to its self time in microseconds."""
    children = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, []))
        for sid, _parent, _name, start, end in spans
    }


def self_ms_by_name(spans):
    """Sums self time per span name, in milliseconds."""
    selfs = self_times(spans)
    out = {}
    for sid, _parent, name, _start, _end in spans:
        out[name] = out.get(name, 0.0) + selfs[sid] / 1e3
    return out
