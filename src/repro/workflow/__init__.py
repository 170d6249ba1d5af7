"""Workflow-execution substrate.

The paper's framework (its Figure 2) has a *workflow execution engine*
advancing many instances concurrently while appending their activity
executions — with input/output attribute maps — to a shared log.  This
package simulates that engine:

* :mod:`repro.workflow.spec` — block-structured process specifications
  (tasks, sequence, exclusive/parallel gateways, loops, optional blocks)
  with attribute read/write effects;
* :mod:`repro.workflow.engine` — a multi-instance interpreter that
  interleaves instances at random and emits well-formed logs
  (Definition 2 by construction);
* :mod:`repro.workflow.models` — ready-made processes, including the
  medical-clinic referral workflow of the paper's Example 2 which
  regenerates logs shaped like Figure 3.
"""

from repro.workflow.engine import SimulationConfig, WorkflowEngine
from repro.workflow.spec import (
    ActivityDef,
    Block,
    Loop,
    Maybe,
    Par,
    Sequence,
    Step,
    WorkflowSpec,
    Xor,
)

__all__ = [
    "WorkflowSpec",
    "ActivityDef",
    "Block",
    "Step",
    "Sequence",
    "Xor",
    "Par",
    "Loop",
    "Maybe",
    "WorkflowEngine",
    "SimulationConfig",
]
