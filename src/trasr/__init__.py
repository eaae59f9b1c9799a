"""Desk-scale Transformer ASR with an in-encoder time-reduction layer and
self-knowledge-distillation fine-tuning, built on a minimal autodiff core."""

__version__ = "0.1.0"

from .tensor import Tensor, no_grad
from .optim import AdamState, ParameterStore, adam_step, warmup_lr
from .gradcheck import grad_check
from .frontend import FeatureSequence, output_length, spec_augment, subsample
from .model import (LMConfig, MacCounter, ModelConfig, attention, count_attention_macs,
                    decode_forward, encode, init_model_params, multi_head_attention,
                    time_reduce)
from .losses import (KDConfig, ce_label_smoothed, ctc_loss, finetune_loss, joint_loss,
                     phi_schedule, skd_loss, snapshot_teacher)
from .search import BeamConfig, CtcPrefixScorer, beam_search
from .data import Vocabulary, wer, cer

__all__ = [
    "Tensor", "no_grad", "AdamState", "ParameterStore", "adam_step", "warmup_lr",
    "grad_check", "FeatureSequence", "output_length", "spec_augment",
    "subsample", "LMConfig", "MacCounter", "ModelConfig", "attention",
    "count_attention_macs", "decode_forward", "encode", "init_model_params",
    "multi_head_attention", "time_reduce", "KDConfig",
    "ce_label_smoothed", "ctc_loss", "finetune_loss", "joint_loss", "phi_schedule",
    "skd_loss", "snapshot_teacher", "BeamConfig", "CtcPrefixScorer",
    "beam_search", "Vocabulary", "wer", "cer",
]
