"""SUP001 fixture: a suppression whose rule never fires here."""

N_BINS = 16  # repro: allow[DET002]


def histogram_width(n_features: int) -> int:
    return n_features * N_BINS
