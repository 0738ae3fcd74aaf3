"""Cold, ship-path benchmark of the EXPLORE program (see README.md)."""
