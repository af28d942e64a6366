"""Benchmark of sigspace; see README.md and run.py."""
