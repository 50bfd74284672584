"""The repository's benchmark: `python -m bench once|run|compare`.

See bench/README.md for the workloads, the metric catalogue and the
public surface of `repro` this package is allowed to touch.
"""
