"""Quasi-static mechanics for a multi-finger gripper with constant-force
origami modules: drive kinematics, module constitutive curves, contact and
closure analysis, pull-out traces, stacked-pair release planning, and
pick-and-place cycle accounting.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from ._finite import RANGES, field_problem
from .transmission import (
    AngleRangeError,
    GripperConfig,
    OpeningRangeError,
    TransmissionLaw,
    finger_bearings,
    finger_radius,
    opening,
    opening_range,
    theta_for_opening,
)
from .mechanics import (
    BUILTIN_MATERIALS,
    SIL950,
    TPU95A,
    BendingState,
    CompressionState,
    MaterialModel,
    bending_contact_force,
    bending_state,
    bending_torques,
    compression_forces,
    compression_state,
    perturbed,
    sample_bending_curve,
    sample_compression_curve,
)
from .shapes import (
    ObjectShape,
    Pose,
    ShapeKind,
    bounding_radius,
    cube,
    cuboid,
    curved_block,
    cylinder,
    equator_z,
    grasp_width,
    local_width,
    sphere,
    stack_on,
    width_along,
    z_span,
)
from .grasp import (
    ClosureResult,
    ContactMode,
    ContactRecord,
    ContactSet,
    ForceClosure,
    GraspMode,
    LiftResult,
    PulloutTrace,
    calibrate_friction,
    closure_summary,
    contact_wrench_primitives,
    default_lift_grid,
    grasp_mode,
    is_force_closure,
    is_form_closure,
    lift_check,
    pullout_capacity,
    pullout_trace,
    resolve_contacts,
    squeeze_force,
)
from .planner import (
    HoldWindow,
    InfeasibleReason,
    LimitingFactor,
    Plan,
    PlanError,
    StackedScene,
    StageState,
    hold_window,
    holds_at,
    make_stacked_scene,
    plan_stacked,
    simulate_plan,
)
from .trajectory import (
    Action,
    CycleComparison,
    CycleSpec,
    Segment,
    Trajectory,
    build_multiobject,
    build_sequential,
    compare_cycles,
)
from .scenario import (
    MATERIALS_ENV_VAR,
    PickPlaceScenario,
    PulloutScenario,
    Scenario,
    ScenarioError,
    SingleGraspScenario,
    StackedScenario,
    edit_scenario,
    load_scenario,
    make_result_record,
    material_table,
    parse_scenario,
    run_scenario,
    run_sweep,
    save_scenario,
    scenario_digest,
    scenario_to_dict,
    write_csv,
    write_json,
)
from .demo import demo_scene_dir, demo_scene_path, list_demo_scenes, run_demo_suite

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
] + ["__version__"]
