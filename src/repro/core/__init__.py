"""VF²Boost core: the federated trainer, protocol scheduler, and config."""
