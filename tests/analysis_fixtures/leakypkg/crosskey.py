"""CR001/CR002 fixture: cross-key arithmetic and a raw-layer bypass."""


def mix_contexts(ctx_a, ctx_b, value):
    x = ctx_a.encrypt(value)
    y = ctx_b.encrypt(value)
    return ctx_a.add(x, y)


def bypass_align_scale(public_key, value):
    return public_key.raw_encrypt(value, 7)
