"""Test-support oracles: original scalar implementations of hot kernels.

Each module here preserves a loop that production code replaced with a
faster path, unchanged, so equivalence tests and benchmarks can check
the replacement array for array.  Production modules never import this
package (``repro lint``'s ``hot-path-scalar-calls`` rule enforces it).
"""
