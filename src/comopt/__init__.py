"""Conservative surrogate models for offline design optimization.

Train a surrogate that deliberately under-predicts on the out-of-distribution
designs a gradient-ascent optimizer would reach, then search the design space
against it. Includes naive and ensemble gradient-ascent baselines, synthetic
benchmark oracles, and a reproducible evaluation harness.
"""
