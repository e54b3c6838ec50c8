"""Neural-network substrate.

Two halves live here:

* :mod:`repro.nn.spec` and :mod:`repro.nn.model_zoo` -- *architecture
  specifications* (per-layer parameter shapes and FLOP counts) for every
  network in the paper's Table 3.  These drive the throughput simulator and
  Poseidon's cost model; they do not hold any weights.
* :mod:`repro.nn.layers`, :mod:`repro.nn.network`, :mod:`repro.nn.loss`,
  :mod:`repro.nn.optim` -- a runnable numpy implementation (forward,
  backward, SGD) used by the functional distributed trainer and the
  convergence experiments.

The package imports nothing: import each module by its own path, so a
specification (:mod:`repro.nn.spec`) loads no runnable layer.
"""
