"""Chunked training with local/global epochs, transfer learning, evaluation.

The loop nesting is fixed: global epochs on the outside, then chunks in
their stored order, then local epochs, then contiguous mini-batches (the
short final batch is trained too). Everything is seeded, so two runs with
the same inputs produce bit-identical parameter trajectories.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics, mol_net
from .corpus import Chunk, ContractRecord
from .errors import ConfigError, ShortageError
from .mol_net import AdamState, MolModel
from .tokenizer import Vocabulary, encode_batch

DEFAULT_BATCH_SIZE = 32
DEFAULT_LEARNING_RATE = 0.001
EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class TrainConfig:
    global_epochs: int = 1
    local_epochs: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    learning_rate: float = DEFAULT_LEARNING_RATE
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if min(self.global_epochs, self.local_epochs, self.batch_size) < 1:
            raise ConfigError("epoch and batch counts must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be strictly between 0 and 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning_rate must be finite and positive")


@dataclass(frozen=True)
class EncodedSet:
    """Records turned into padded id and label matrices once, up front."""

    ids: np.ndarray  # (n, max_sequence_length) int32
    labels: np.ndarray  # (n, n_classes) float32

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass(frozen=True)
class HistoryEntry:
    global_epoch: int
    local_epoch: int  # 0 marks the global-epoch summary row
    chunk_index: int  # n_chunks marks the global-epoch summary row
    train_loss: float
    validation: metrics.MetricsReport | None
    wall_seconds: float


@dataclass
class MetricsHistory:
    entries: list[HistoryEntry] = field(default_factory=list)
    optimizer_steps: int = 0


def encode_records(
    records: list[ContractRecord] | tuple[ContractRecord, ...],
    vocab: Vocabulary,
    max_sequence_length: int,
) -> EncodedSet:
    ids = encode_batch([list(r.tokens) for r in records], vocab, max_sequence_length)
    if records:
        labels = np.array([r.labels for r in records], dtype=np.float32)
    else:
        labels = np.zeros((0, 0), dtype=np.float32)
    return EncodedSet(ids=ids, labels=labels)


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def _run_loop(
    model: MolModel,
    encoded_chunks: list[tuple[int, EncodedSet]],
    config: TrainConfig,
    branch_subset: list[str] | None,
    validation: EncodedSet | None,
) -> MetricsHistory:
    n_cols = len(branch_subset) if branch_subset else len(model.branches)
    for index, enc in encoded_chunks:
        if enc.labels.shape[1] != n_cols:
            raise ConfigError(
                f"chunk {index} has {enc.labels.shape[1]} label columns, "
                f"model expects {n_cols}"
            )
    if not model.trainable_blocks():
        raise ConfigError("every parameter block is frozen; nothing to train")

    history = MetricsHistory()
    state = AdamState()
    start = time.perf_counter()
    n_chunks = len(encoded_chunks)
    subset_cols = (
        [model.class_names.index(n) for n in branch_subset] if branch_subset else None
    )
    step = 0
    for g in range(1, config.global_epochs + 1):
        epoch_losses: list[float] = []
        for index, enc in encoded_chunks:
            for loc in range(1, config.local_epochs + 1):
                losses = []
                for lo, hi in _batches(len(enc), config.batch_size):
                    probs, cache = mol_net.forward(
                        model,
                        enc.ids[lo:hi],
                        mode="train",
                        seed=config.seed + step,
                        keep_cache=True,
                    )
                    y = enc.labels[lo:hi]
                    if subset_cols is None:
                        losses.append(mol_net.bce_loss(y, probs))
                    else:
                        losses.append(mol_net.bce_loss(y, probs[:, subset_cols]))
                    grads = mol_net.backward(model, cache, y, branch_subset)
                    mol_net.adam_step(model, grads, state, config.learning_rate)
                    step += 1
                epoch_losses.extend(losses)
                report = _maybe_eval(model, validation, config, branch_subset)
                history.entries.append(
                    HistoryEntry(
                        global_epoch=g,
                        local_epoch=loc,
                        chunk_index=index,
                        train_loss=float(np.mean(losses)) if losses else 0.0,
                        validation=report,
                        wall_seconds=time.perf_counter() - start,
                    )
                )
        # The summary row reuses the last local epoch's report: the model has
        # not changed since. With no chunks nothing was evaluated yet.
        if not encoded_chunks:
            report = _maybe_eval(model, validation, config, branch_subset)
        history.entries.append(
            HistoryEntry(
                global_epoch=g,
                local_epoch=0,
                chunk_index=n_chunks,
                train_loss=float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                validation=report,
                wall_seconds=time.perf_counter() - start,
            )
        )
    history.optimizer_steps = state.step
    return history


def _maybe_eval(model, validation, config, branch_subset):
    if validation is None or len(validation) == 0:
        return None
    return evaluate(model, validation, config.threshold, branch_subset)


def train(
    model: MolModel,
    chunks: list[Chunk],
    vocab: Vocabulary,
    config: TrainConfig,
    validation: EncodedSet | None = None,
) -> MetricsHistory:
    """Train every unfrozen block on chunk label columns matching branch order."""
    encoded = [
        (c.index, encode_records(c.records, vocab, model.stem.max_sequence_length))
        for c in chunks
    ]
    model.vocab_fingerprint = vocab.fingerprint()
    return _run_loop(model, encoded, config, None, validation)


def transfer_train(
    model: MolModel,
    new_chunks: list[Chunk],
    new_branch_configs: list[mol_net.BranchConfig],
    vocab: Vocabulary,
    config: TrainConfig,
    validation: EncodedSet | None = None,
) -> MetricsHistory:
    """Extend a trained model with new classes without disturbing old ones.

    New branches are appended (seeded from config.seed), then the stem and
    every pre-existing branch are frozen, and only the new branches train.
    The new chunks' label columns are exactly the new classes, in the
    order given. Old-branch outputs are bit-identical afterwards.
    """
    existing = list(model.class_names)
    for i, bc in enumerate(new_branch_configs):
        mol_net.add_branch(model, bc, seed=config.seed + 1 + i)
    model.set_stem_frozen(True)
    for name in existing:
        model.set_branch_frozen(name, True)
    new_names = [bc.class_name for bc in new_branch_configs]
    encoded = [
        (c.index, encode_records(c.records, vocab, model.stem.max_sequence_length))
        for c in new_chunks
    ]
    return _run_loop(model, encoded, config, new_names, validation)


def evaluate(
    model: MolModel,
    data: EncodedSet,
    threshold: float = 0.5,
    branch_subset: list[str] | None = None,
) -> metrics.MetricsReport:
    """Eval-mode forward, binarize at p >= threshold, full metrics report."""
    if len(data) == 0:
        raise ShortageError("cannot evaluate an empty split")
    names = branch_subset if branch_subset else model.class_names
    cols = [model.class_names.index(n) for n in names]
    if data.labels.shape[1] != len(cols):
        raise ConfigError(
            f"labels have {data.labels.shape[1]} columns, expected {len(cols)}"
        )
    probs = predict_probs(model, data.ids)[:, cols]
    preds = probs >= threshold
    return metrics.evaluate(names, data.labels.astype(bool), preds, probs)


def predict_probs(model: MolModel, ids: np.ndarray) -> np.ndarray:
    """Batched eval-mode probabilities for an (n, T) id matrix."""
    outs = [
        mol_net.forward(model, ids[lo:hi], mode="eval")
        for lo, hi in _batches(ids.shape[0], EVAL_BATCH_SIZE)
    ]
    if not outs:
        return np.zeros((0, len(model.branches)), dtype=np.float32)
    return np.concatenate(outs, axis=0)


def write_history_csv(history: MetricsHistory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "global_epoch",
                "local_epoch",
                "chunk",
                "train_loss",
                "val_f1_weighted",
                "val_hamming",
                "wall_seconds",
            ]
        )
        for e in history.entries:
            val_f1 = f"{e.validation.weighted_f1:.6f}" if e.validation else ""
            val_ham = f"{e.validation.hamming:.6f}" if e.validation else ""
            writer.writerow(
                [
                    e.global_epoch,
                    e.local_epoch,
                    e.chunk_index,
                    f"{e.train_loss:.6f}",
                    val_f1,
                    val_ham,
                    f"{e.wall_seconds:.3f}",
                ]
            )
