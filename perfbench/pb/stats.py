"""Sample summaries: median and quartiles with the sample count."""

import statistics


def summary(values):
    """Returns (n, median, q1, q3) of a non-empty list of numbers.

    Quartiles follow `statistics.quantiles(values, n=4)`; with a single
    sample both quartiles equal it.
    """
    if not values:
        raise ValueError("no samples")
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) == 1:
        return 1, med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), med, q1, q3
