"""simlint: determinism & simulation-safety static analysis.

An AST-based analyzer with a pluggable rule registry that enforces the
repo's core guarantee -- byte-identical, cross-run-deterministic
simulation -- as code, not reviewer folklore.  The rule catalog
(``python -m repro.analysis --list-rules``):

* **R1** no wall-clock reads on the simulation path
* **R2** all randomness flows through ``repro.sim.rng``
* **R3** no module-global mutable state in protocol packages
* **R4** no unordered iteration into order-sensitive paths
* **R5** ``id()``/``hash()`` values must not escape the process
* **R6** generator-process discipline (scheduled, never called bare;
  yields only sim awaitables)
* **R7** fork/signal machinery confined to ``repro.fleet``
* **R8** only ``repro.sim.engine`` writes the clock attribute ``now``

See DESIGN.md §5f for the catalog rationale and the mapping onto the
kernel-fault taxonomy of *Faults in Linux 2.6* (Palix et al.).
"""
