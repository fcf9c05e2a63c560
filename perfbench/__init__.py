"""perfbench: the repo's speed-normalised day + serve benchmark.

One command runs set-up -> day phase -> serve phase for one workload in
one pinned, single-threaded process and prints every metric by name::

    python3 -m perfbench --workload dense_full_zipf_hot --seed 1

See ``perfbench/README.md`` for the metric and workload definitions.
Importing this package imports nothing heavy: ``__main__`` has to set the
BLAS thread count before numpy is loaded.
"""

#: Bumped when the shape of the printed result or ``results/*.json`` changes.
SCHEMA_VERSION = 1
