"""Histogram-based gradient boosting core shared by every trainer."""
