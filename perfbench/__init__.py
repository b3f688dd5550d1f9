"""The repository's benchmark: workloads, tracer and runner (see README.md)."""
