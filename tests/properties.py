"""Hypothesis settings that property tests in more than one file share."""

from hypothesis import Phase

# Every phase but shrinking: a failing case is reported as drawn. Shrinking
# a table of random cells, or a list of graph operations, can take minutes.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]
