"""Benchmark harness of westfem: workloads, tracing, correctness gate."""
