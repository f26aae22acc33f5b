"""Benchmark harness for the unilc2 package: seeded workloads, a timed
runner, an outside-in tracer and the ROADMAP baseline rows."""
