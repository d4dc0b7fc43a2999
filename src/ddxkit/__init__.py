"""Differential-diagnosis toolkit: expert-system case simulation, soft-label
embedding-bag training, and top-k evaluation."""

__version__ = "0.1.0"

from .kb import (  # noqa: F401
    Disease,
    Finding,
    KnowledgeBase,
    frequency,
    parse_knowledge_base,
    serialize_knowledge_base,
)
from .expert import DifferentialDiagnosis, expert_inference  # noqa: F401
from .simulate import ClinicalCase, SimConfig, simulate_case, simulate_dataset  # noqa: F401
from .data import (  # noqa: F401
    CaseSet,
    Vocabulary,
    build_vocabulary,
    merge,
    normalize_ddx,
    read_cases,
    split_train_test,
    write_cases,
)
from .model import (  # noqa: F401
    ModelParameters,
    encode_case,
    init_parameters,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
)
from .train import AdamState, TrainConfig, adam_step, backward  # noqa: F401
from .evaluate import EvalReport  # noqa: F401
