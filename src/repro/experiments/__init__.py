"""Experiment harness: the paper's tables and figures as report sections.

A sweep figure is one frozen :class:`~repro.experiments.figure.Figure`
value -- axes, ``--quick`` axes and a text layout -- that one driver
simulates and one renderer prints (:mod:`repro.experiments.figure`).  The
pure-data figures live in :mod:`repro.experiments.figures` and
:mod:`repro.experiments.ablation`; sections of a different shape keep a
custom ``report`` body in their own module and say why: ``table1``,
``table3``, ``fig9`` (convergence panel), ``fig11`` (functional training),
``fig_faults`` (Young--Daly rows), ``fig_llm`` (timed decision table),
``fig_scale`` (multi-job fluid column), ``fig_topology`` (Algorithm-1
shift) and ``fidelity``.  ``python -m repro.experiments.runner``
regenerates every section; README's figure map says which section
reproduces which figure.

The package imports nothing, so importing one module (e.g.
:mod:`repro.experiments.fig_backends`) pulls in only what that module needs.
"""
