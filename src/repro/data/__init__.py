"""Data substrate: synthetic generation, Table 3 registry, partitioning, PSI."""
