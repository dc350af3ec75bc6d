"""CR105 fixture: a crypto hot path exponentiating around the choke point."""


def leaky_obfuscate(r: int, n: int, n_squared: int) -> int:
    # Direct 3-arg pow: invisible to the powmod observer.
    return pow(r, n, n_squared)


def counted_obfuscate(r: int, n: int, n_squared: int) -> int:
    from repro.crypto.math_utils import powmod

    return powmod(r, n, n_squared)
