"""Chunked training with local/global epochs, transfer learning, evaluation.

`train` and `transfer_train` share one loop. It checks everything it can
refuse before it changes the model. Then it runs global epochs on the
outside, then the chunks that hold records in their stored order, then
local epochs, then contiguous mini-batches (the short final batch is
trained too), so every history row's loss was measured. Everything is
seeded, so two runs with the same inputs produce bit-identical parameter
trajectories.

When the stem is frozen for the whole loop (every `transfer_train`, and
`train` on a model whose stem the caller froze), the loop scans each
training batch and each validation batch once, up front, and keeps only
the stem's final state per record; every step and validation pass then
runs dropout and the branches on those states, with the same results as
scanning again.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics, mol_net
from .corpus import Chunk, ContractRecord
from .errors import ConfigError, ShortageError, check_int, is_real
from .mol_net import AdamState, MolModel
from .tokenizer import Vocabulary, encode_batch

EVAL_BATCH_SIZE = 256


@dataclass(frozen=True)
class TrainConfig:
    global_epochs: int = 1
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        check_int("global_epochs", self.global_epochs, 1)
        check_int("local_epochs", self.local_epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)  # numpy's generators take no negative seed
        _check_threshold(self.threshold)
        if not (is_real(self.learning_rate) and math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning_rate must be finite and positive")


def _check_threshold(threshold) -> None:
    """ConfigError unless `threshold` is a real number strictly between 0 and 1 (NaN is not)."""
    if not (is_real(threshold) and 0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must be a real number strictly between 0 and 1, got {threshold!r}")


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
    ids = encode_batch([r.tokens for r in records], vocab, max_sequence_length)
    if records:
        labels = np.array([r.labels for r in records], dtype=np.float32)
    else:
        labels = np.zeros((0, 0), dtype=np.float32)
    return EncodedSet(ids=ids, labels=labels)


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def _frozen_stem_states(model: MolModel, ids: np.ndarray, batch_size: int, mode: str):
    """A frozen stem's state of every row, scanned on the batches `forward` gets; else None."""
    if not model.stem_frozen():
        return None
    return np.concatenate([
        mol_net.stem_states(model, ids[lo:hi], mode) for lo, hi in _batches(len(ids), batch_size)
    ])


def _run_loop(
    model: MolModel,
    chunks: list[Chunk],
    vocab: Vocabulary,
    config: TrainConfig,
    validation: EncodedSet | None,
    new_branches: list[mol_net.BranchConfig] | None,
) -> MetricsHistory:
    """`train` (new_branches None) and `transfer_train`: every refusal comes before any change."""
    encoded = [
        (c.index, encode_records(c.records, vocab, model.stem.max_sequence_length))
        for c in chunks
        if c.records
    ]
    if new_branches is None:
        names, trainable = model.class_names, model.trainable_blocks()
    else:
        names = trainable = [b.class_name for b in new_branches]
        if len({*names, *model.class_names}) < len(names) + len(model.class_names):
            raise ConfigError(f"new branch names {names!r} must be unique and not in the model")
    for what, enc in [(f"chunk {i}", e) for i, e in encoded] + [("validation", validation)]:
        # None and an empty validation set are falsy: no labels to check or evaluate
        if enc and enc.labels.shape[1] != len(names):
            raise ConfigError(
                f"{what} has {enc.labels.shape[1]} label columns, "
                f"model expects {len(names)}"
            )
    if not encoded:
        raise ShortageError("no chunk holds a record; nothing to train on")
    if not trainable:
        raise ConfigError("no unfrozen parameter block; nothing to train")

    if new_branches is None:
        model.vocab_fingerprint = vocab.fingerprint()
    else:
        model.set_stem_frozen(True)
        for name in model.class_names:
            model.set_branch_frozen(name, True)
        for i, bc in enumerate(new_branches):
            mol_net.add_branch(model, bc, seed=config.seed + 1 + i)
    cols = model.columns(names)
    # None unless the stem is frozen; it then stays so for the whole loop
    stems = [_frozen_stem_states(model, enc.ids, config.batch_size, "train") for _, enc in encoded]
    val_stems = None
    if validation:
        val_stems = _frozen_stem_states(model, validation.ids, EVAL_BATCH_SIZE, "eval")
    history = MetricsHistory()
    state = AdamState()
    start = time.perf_counter()
    for g in range(1, config.global_epochs + 1):
        epoch_losses: list[float] = []
        for (index, enc), states in zip(encoded, stems):
            for loc in range(1, config.local_epochs + 1):
                losses = []
                for lo, hi in _batches(len(enc), config.batch_size):
                    probs, cache = mol_net.forward(
                        model,
                        enc.ids[lo:hi],
                        mode="train",
                        seed=config.seed + state.step,
                        keep_cache=True,
                        stem_states=None if states is None else states[lo:hi],
                    )
                    y = enc.labels[lo:hi]
                    losses.append(mol_net.bce_loss(y, probs[:, cols]))
                    grads = mol_net.backward(model, cache, y, names)
                    mol_net.adam_step(model, grads, state, config.learning_rate)
                epoch_losses.extend(losses)
                report = None
                if validation:
                    report = evaluate(model, validation, config.threshold, names, val_stems)
                history.entries.append(HistoryEntry(
                    g, loc, index, float(np.mean(losses)), report, time.perf_counter() - start
                ))
        # The summary row reuses the last local epoch's report: the model has
        # not changed since.
        history.entries.append(HistoryEntry(
            g, 0, len(chunks), float(np.mean(epoch_losses)), report, time.perf_counter() - start
        ))
    history.optimizer_steps = state.step
    return history


def train(
    model: MolModel,
    chunks: list[Chunk],
    vocab: Vocabulary,
    config: TrainConfig,
    validation: EncodedSet | None = None,
) -> MetricsHistory:
    """Train every unfrozen block on chunk label columns matching branch order."""
    return _run_loop(model, chunks, vocab, config, validation, None)


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
    order given. Old-branch outputs are bit-identical afterwards. A
    refused call leaves the model as it was.
    """
    return _run_loop(model, new_chunks, vocab, config, validation, list(new_branch_configs))


def evaluate(
    model: MolModel,
    data: EncodedSet,
    threshold: float = 0.5,
    branch_subset: list[str] | None = None,
    stem_states: np.ndarray | None = None,
) -> metrics.MetricsReport:
    """Eval-mode forward, binarize at p >= threshold, full metrics report.

    `branch_subset` None scores every class; an empty one is refused.
    `stem_states` is as in `predict_probs`.
    """
    _check_threshold(threshold)
    if branch_subset is not None and not branch_subset:
        raise ConfigError("branch_subset must name at least one class (None scores every class)")
    names = model.class_names if branch_subset is None else branch_subset
    cols = model.columns(names)
    if len(data) == 0:
        raise ShortageError("cannot evaluate an empty split")
    if data.labels.shape[1] != len(cols):
        raise ConfigError(
            f"labels have {data.labels.shape[1]} columns, expected {len(cols)}"
        )
    probs = predict_probs(model, data.ids, stem_states)[:, cols]
    preds = probs >= threshold
    return metrics.evaluate(names, data.labels.astype(bool), preds, probs)


def predict_probs(
    model: MolModel, ids: np.ndarray, stem_states: np.ndarray | None = None
) -> np.ndarray:
    """Batched eval-mode probabilities for an (n, T) id matrix.

    `stem_states`, a frozen stem's state of every row scanned on these
    EVAL_BATCH_SIZE batches (as `_run_loop` caches them), replaces the scan.
    """
    outs = []
    for lo, hi in _batches(ids.shape[0], EVAL_BATCH_SIZE):
        states = None if stem_states is None else stem_states[lo:hi]
        outs.append(mol_net.forward(model, ids[lo:hi], mode="eval", stem_states=states))
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
