"""The performance ledger: a self-contained two-clock benchmark of ``repro``."""
