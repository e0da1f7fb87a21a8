"""Population-dynamics plans and their execution on the event kernel.

Public surface of the dynamics subsystem (DESIGN.md §14): the plan DSL
(:mod:`repro.dynamics.plan`) and the kernel that runs a plan in either
execution mode (:mod:`repro.dynamics.kernel`).
"""

from repro.dynamics.kernel import (
    DYNAMICS_STRATEGIES,
    DynamicsKernel,
    DynamicsReport,
    DynamicsSpec,
    run_dynamics,
)
from repro.dynamics.plan import (
    DYNAMICS_KINDS,
    DYNAMICS_PRESETS,
    ChurnSource,
    CompiledDynamics,
    DiurnalLoad,
    DynamicsBuilder,
    DynamicsPlan,
    FlashCrowd,
    Mobility,
    compile_plan,
    preset_dynamics,
)

__all__ = [
    "DYNAMICS_KINDS",
    "DYNAMICS_PRESETS",
    "DYNAMICS_STRATEGIES",
    "ChurnSource",
    "CompiledDynamics",
    "DiurnalLoad",
    "DynamicsBuilder",
    "DynamicsKernel",
    "DynamicsPlan",
    "DynamicsReport",
    "DynamicsSpec",
    "FlashCrowd",
    "Mobility",
    "compile_plan",
    "preset_dynamics",
    "run_dynamics",
]
