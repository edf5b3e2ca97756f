"""Exact inference for probabilistic logic programs under the credal
(stable-model) and well-founded semantics."""

from .errors import (
    UNDEFINED,
    InconsistentProgramError,
    NotAcyclicError,
    PlpError,
    PlpSyntaxError,
    ResourceGuardError,
)
from .syntax import (
    Atom,
    ProbFact,
    Program,
    Query,
    Rule,
    Subgoal,
    Term,
    format_program,
    format_rational,
    lint_program,
    parse_program,
    parse_query,
)
from .grounding import (
    ChoicePoint,
    GroundProgram,
    GroundRule,
    ProgramClass,
    classify,
    dependency_graph,
    dump_ground,
    ground,
)
from .models import (
    Kernel,
    is_stable,
    reduct,
    stable_models,
    well_founded_model,
)
from .oracle import exhaustive_stable_models, least_model
from .inference import (
    And,
    ConsistencyReport,
    CredalInterval,
    Lit,
    Not,
    Or,
    TotalChoice,
    WfDistribution,
    check_consistency,
    credal_conditional,
    credal_unconditional,
    event_bounds,
    event_from_assignments,
    eval_event,
    missing_atoms,
    program_for_choice,
    total_choices,
    truth3_in,
    wf_atom_distribution,
    wf_query,
)
from .bayesnet import BayesNet, BnNode, bn_query, clark_completion, compile_bn, export_bn

__all__ = [name for name in dir() if not name.startswith("_")]
