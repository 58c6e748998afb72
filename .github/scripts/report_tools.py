"""Shared helper for the CI steps that compare bench run reports.

A report's wall-clock numbers live only in the keys in WALL; strip()
drops them at every depth, so what remains is a pure function of the
simulation and compares equal across jobs settings and kill-resume.
Steps import it with PYTHONPATH=.github/scripts.
"""

WALL = {"wall_seconds", "cycles_per_sec", "uops_per_sec"}


def strip(x):
    """Returns a copy of a parsed report without its wall-clock keys."""
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k not in WALL}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x
