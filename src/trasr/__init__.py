"""Desk-scale Transformer ASR with an in-encoder time-reduction layer and
self-knowledge-distillation fine-tuning, built on a minimal autodiff core."""

__version__ = "0.1.0"
