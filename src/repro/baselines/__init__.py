"""Baseline systems the paper compares against (§6.3)."""
