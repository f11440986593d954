"""Sample analyses shipped with the framework.

These are the "user code" of the reproduction.  Each module *is* its
``SOURCE`` string: the text a client uploads through the managing class
loader and every engine compiles with
:func:`repro.engine.sandbox.load_analysis`, exactly like user-written code.

* :mod:`repro.analysis.higgs` — the paper's workload ("a Java algorithm
  that looks for Higgs Bosons in simulated Linear Collider data", §4),
  reimplemented vectorized;
* :mod:`repro.analysis.counting` — minimal per-process bookkeeping;
* :mod:`repro.analysis.cuts` — a tunable-cut analysis used by the
  interactive fine-tuning example;
* :mod:`repro.analysis.trading` — a stock-trade VWAP analysis (plus its
  record generator) demonstrating the paper's claim that the framework
  "can easily be adopted for applications in other fields" (§6).
"""
