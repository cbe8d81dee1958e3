"""Steady benchmark for APT training and serving; entry point perfbench/run.py."""
