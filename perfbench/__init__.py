"""Benchmark for the sous_chef_ray data plane (see perfbench/run.py)."""
