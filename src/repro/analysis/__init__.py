"""simlint: the one static check tier-1 cannot replace.

``python -m repro.analysis [paths]`` parses each module with ``ast``
(it never imports the analyzed code) and reports every write to the
simulation clock outside ``repro.sim.engine`` (rule R8,
:mod:`repro.analysis.clockwrite`).  Any finding fails the run.

simlint had eight rules.  Each rule's hazard was planted in the real
tree and tier-1 run under two hash seeds; the seven whose hazard a
pinned hash or a test caught were deleted.  DESIGN.md §5f has the
table.
"""
