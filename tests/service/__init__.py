"""Concurrency test subsystem for the multi-tenant service layer.

The suite attacks the claims of ``docs/SERVICE.md`` from four sides:

* ``test_runner_pool`` — the registry pool under thread/task hammering
  (one object per key, scope partitioning, exact telemetry);
* ``test_concurrent_sessions`` — N concurrent exchanges bit-identical
  to the sequential reference on every engine, counters summing
  exactly;
* ``test_admission`` — Hypothesis properties: no request dropped or
  duplicated by coalescing, queue bounds respected, stable rejection
  codes;
* ``test_fault_under_load`` — armed trace poisoning of the aot tier
  with sessions in flight: zero escapes, bounded recovery, blast
  radius of one tenant.
"""
