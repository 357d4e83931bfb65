"""Simulator-speed benchmark of the REESE reproduction (see README.md)."""
