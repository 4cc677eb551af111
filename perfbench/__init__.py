"""The repository benchmark (see README.md and BENCHMARK.json)."""
