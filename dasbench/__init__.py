"""Host-cost benchmark of the PANDAS simulator (see README.md)."""
