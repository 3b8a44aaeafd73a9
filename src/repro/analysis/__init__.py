"""Reporting helpers shared by the CLI and the telemetry reports.

The §3 closed forms (effective bandwidth vs fragment size, initiation
latency, Equation 1's memory, the stride/skew arithmetic) have no
production caller: they are test oracles (``tests/oracles/``).
"""
