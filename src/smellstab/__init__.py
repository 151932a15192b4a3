"""smellstab: code smells, dependency neighborhoods, and class stability.

Measures, for every class in a Java repository snapshot, its code smells,
the smells of its efferent neighbors, smell coupling/interaction along
static dependencies, and one year of subsequent change activity, then fits
negative-binomial mixed models over the resulting dataset.

The package re-exports nothing: import each name from the module that
defines it.
"""

__version__ = "0.1.0"
