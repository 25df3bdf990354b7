"""The nidkit benchmark: workloads, checks and tracing; see README.md."""
