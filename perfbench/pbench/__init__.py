"""Support modules of the end-to-end benchmark (``perfbench/run.py``).

* :mod:`pbench.calib` — the calibration kernel, CPU pinning and the
  environment stamp;
* :mod:`pbench.stats` — percentiles and the reporting rule;
* :mod:`pbench.workloads` — seeded inputs of every workload;
* :mod:`pbench.drivers` — the in-process and daemon request paths;
* :mod:`pbench.gate` — the correctness gate;
* :mod:`pbench.layers` — the span recorder of the traced run.
"""
