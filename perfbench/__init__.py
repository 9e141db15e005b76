"""Benchmark of mtunmix; see README.md in this directory."""
