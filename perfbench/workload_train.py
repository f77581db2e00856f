"""train: fresh multi-branch training, then frozen-stem transfer to two new classes.

One round trains a new 3-class model on an acceptance-shaped synthetic
corpus (every label combination, 24-48 opcodes, batch 32, validation set
passed to the trainer) for GLOBAL_EPOCHS, then `transfer_train` adds two
classes for TRANSFER_EPOCHS. Almost all the time is `mol_net` forward,
backward and Adam. The vocabulary is fitted on the whole normalized
opcode alphabet so the new classes' motifs are in vocabulary.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import reference as ref
from common import check

OLD_MOTIFS = (("f1", "ff") * 2, ("54", "55") * 2, ("20", "31") * 2)
NEW_MOTIFS = (("f4", "3b") * 2, ("fa", "47") * 2)
OLD_CLASSES = ("CALLSTACK", "REENTRANCY", "MULTIPLE_SENDS")
NEW_CLASSES = ("ACCESSIBLE_SELFDESTRUCT", "DoS (UNBOUNDED_OP)")
PER_COMBO = 120
CHUNK_SIZE = 256
BATCH = 32
MAX_LEN = 48
GLOBAL_EPOCHS = 20
TRANSFER_EPOCHS = 10
PROBE_ROWS = 64
# Held-out weighted F1 of the old classes every seed must reach (0.84-1.0
# measured). The new classes get no F1 floor: behind the frozen stem their
# weighted F1 ranged 0.28-0.88 across seeds, so only their training loss
# is required to fall.
OLD_F1_FLOOR = 0.75


# --- parent side: inputs and checks ---


def _write_split(corpus, records, seed, out: Path, prefix: str, catalog) -> dict:
    train, val, test = corpus.split(records, seed)
    chunks = corpus.chunk(train, CHUNK_SIZE, seed)
    for c in chunks:
        corpus.write_chunk(c, out / f"{prefix}chunk_{c.index:04d}.csv", catalog)
    corpus.write_chunk(corpus.Chunk(0, tuple(val)), out / f"{prefix}validation.csv", catalog)
    corpus.write_chunk(corpus.Chunk(0, tuple(test)), out / f"{prefix}test.csv", catalog)
    return {"chunks": [len(c) for c in chunks], "train": len(train), "val": len(val), "test": test}


def prepare(workdir: Path, seed: int) -> dict:
    """Synthetic corpora through the program's own generator, labels re-derived by motif scan."""
    from evmguard import corpus

    (workdir / "alphabet.txt").write_text(" ".join(ref.ALPHABET))
    old_spec = corpus.default_synth_spec(len(OLD_CLASSES))
    new_spec = corpus.SynthSpec(corpus.ClassCatalog(NEW_CLASSES), NEW_MOTIFS, old_spec.filler, 24, 48)
    ctx = {"failures": []}
    for key, spec, motifs, n, s in (("old", old_spec, OLD_MOTIFS, 3, seed), ("new", new_spec, NEW_MOTIFS, 2, seed + 1)):
        records = corpus.synth_generate(spec, corpus.all_label_combos(n, PER_COMBO), s)
        scanned = [tuple(ref.has_motif(r.tokens, m) for m in motifs) for r in records]
        check(scanned == [r.labels for r in records], f"{key} corpus labels disagree with a motif scan", ctx["failures"])
        part = _write_split(corpus, records, s, workdir, "" if key == "old" else "new_", spec.catalog)
        part["truth"] = np.array([tuple(ref.has_motif(r.tokens, m) for m in motifs) for r in part.pop("test")])
        ctx[key] = part
    return ctx


def verify(ctx: dict, result: dict, workdir: Path) -> list[str]:
    failures = list(ctx["failures"])
    old, new = ctx["old"], ctx["new"]
    want_steps = [ref.optimizer_steps(old["chunks"], BATCH, GLOBAL_EPOCHS),
                  ref.optimizer_steps(new["chunks"], BATCH, TRANSFER_EPOCHS)]
    rounds = result["rounds"]
    for r in rounds:
        check(r["steps"] == want_steps, f"optimizer steps {r['steps']} != chunk/batch law {want_steps}", failures)
        check(r["probe_identical"], "old-class probe probabilities changed across transfer", failures)
        check(r["frozen_identical"], "a frozen block changed across transfer", failures)
        first, last = r["transfer_loss"]
        check(last < first, f"transfer did not lower the new branches' loss ({first:.4f} -> {last:.4f})", failures)
    check(len({r["digest"] for r in rounds}) == 1, "rounds with the same seed trained different parameters", failures)
    probs = np.load(workdir / "test_probs.npz")
    weighted = {}
    for key in ("old", "new"):
        scores = ref.f1_scores(ctx[key]["truth"], probs[key] >= 0.5)
        program = rounds[-1][f"f1_{key}"]
        check(np.allclose(scores, program, rtol=0, atol=1e-12),
              f"{key}-class F1 {program} != brute force {scores}", failures)
        weighted[key] = ref.weighted_f1(ctx[key]["truth"], scores)
    check(weighted["old"] >= OLD_F1_FLOOR, f"old-class weighted F1 {weighted['old']:.3f} below {OLD_F1_FLOOR}", failures)
    print(f"train digest {rounds[-1]['digest']} over {len(rounds)} rounds; held-out weighted F1 "
          f"{weighted['old']:.3f} old classes, {weighted['new']:.3f} new classes")
    return failures


# --- child side: the program's work ---


def setup(workdir: Path) -> dict:
    from evmguard import corpus, mol_net, tokenizer, trainer

    def read(prefix):
        paths = sorted(workdir.glob(f"{prefix}chunk_*.csv"))
        chunks = [corpus.read_chunk(p, index=i) for i, p in enumerate(paths)]
        val, test = (corpus.read_chunk(workdir / f"{prefix}{n}.csv") for n in ("validation", "test"))
        return chunks, val, test

    vocab = tokenizer.fit([(workdir / "alphabet.txt").read_text().split()])
    old_chunks, old_val, old_test = read("")
    new_chunks, new_val, new_test = read("new_")
    enc = {name: trainer.encode_records(c.records, vocab, MAX_LEN)
           for name, c in (("old_val", old_val), ("old_test", old_test), ("new_val", new_val), ("new_test", new_test))}
    stem = mol_net.StemConfig(len(vocab), 16, 64, 0.2, MAX_LEN)
    seed = int((workdir / "seed.txt").read_text())
    return {"vocab": vocab, "old": old_chunks, "new": new_chunks, "enc": enc, "stem": stem, "seed": seed,
            "samples": GLOBAL_EPOCHS * sum(map(len, old_chunks)) + TRANSFER_EPOCHS * sum(map(len, new_chunks))}


def _digest(model, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


def _round(state, global_epochs: int, transfer_epochs: int):
    from evmguard import mol_net, trainer

    seed, enc = state["seed"], state["enc"]
    clock = state.get("clock")
    first_step = len(clock.latencies_ms) if clock else 0
    started = time.perf_counter()
    model = mol_net.init_model(state["stem"], [mol_net.BranchConfig(n) for n in OLD_CLASSES], seed)
    trained_history = trainer.train(model, state["old"], state["vocab"],
                                    trainer.TrainConfig(global_epochs, 1, BATCH, seed=seed), enc["old_val"])
    trained = time.perf_counter()
    old_report = trainer.evaluate(model, enc["old_test"])
    old_probs = trainer.predict_probs(model, enc["old_test"].ids)
    probe = enc["old_test"].ids[:PROBE_ROWS]
    before = mol_net.forward(model, probe)
    frozen = [*mol_net.stem_block_names(), *(b for n in OLD_CLASSES for b in model.blocks_of_branch(n))]
    frozen_digest = _digest(model, frozen)
    resumed = time.perf_counter()
    history = trainer.transfer_train(model, state["new"], [mol_net.BranchConfig(n) for n in NEW_CLASSES],
                                     state["vocab"], trainer.TrainConfig(transfer_epochs, 1, BATCH, seed=seed),
                                     enc["new_val"])
    done = time.perf_counter()
    new_report = trainer.evaluate(model, enc["new_test"], branch_subset=list(NEW_CLASSES))
    state["test_probs"] = {"old": old_probs, "new": trainer.predict_probs(model, enc["new_test"].ids)[:, 3:]}
    epoch_losses = [e.train_loss for e in history.entries if e.local_epoch == 0]
    summary = {
        # fresh-training steps only: a transfer step costs about two thirds as much
        "op_ms": clock.latencies_ms[first_step:first_step + trained_history.optimizer_steps] if clock else [],
        "steps": [trained_history.optimizer_steps, history.optimizer_steps],
        "transfer_loss": [epoch_losses[0], epoch_losses[-1]],
        "f1_old": [m.f1 for m in old_report.per_class],
        "f1_new": [m.f1 for m in new_report.per_class],
        "probe_identical": mol_net.forward(model, probe)[:, :3].tobytes() == before.tobytes(),
        "frozen_identical": _digest(model, frozen) == frozen_digest,
        "digest": _digest(model, model.params),
    }
    return (trained - started) + (done - resumed), summary


def timed_round(state):
    elapsed, summary = _round(state, GLOBAL_EPOCHS, TRANSFER_EPOCHS)
    return elapsed, state["samples"], summary


def warm_up(state) -> None:
    _round(state, 1, 1)


def install_clock(clock) -> None:
    """One operation: an optimizer step, from the train-mode forward to the end of Adam."""
    from evmguard import mol_net

    clock.install((mol_net, "forward"), (mol_net, "adam_step"),
                  when=lambda args, kwargs: kwargs.get("mode") == "train")


def install_tracer(tracer) -> None:
    from evmguard import metrics, mol_net, tokenizer, trainer
    from tracing import encode_info, forward_info

    tracer.wrap(mol_net, "forward", "mol_net.forward", forward_info)
    tracer.wrap(mol_net, "backward", "mol_net.backward")
    tracer.wrap(mol_net, "adam_step", "mol_net.adam_step")
    for name in ("train", "transfer_train", "encode_records", "evaluate"):
        tracer.wrap(trainer, name, f"trainer.{name}")
    tracer.wrap(metrics, "evaluate", "metrics.evaluate")
    tracer.wrap(tokenizer, "encode", "tokenizer.encode", encode_info)


def trace_extra(state, rounds) -> dict:
    new_records = sum(map(len, state["new"])) + len(state["enc"]["new_val"])
    return {"optimizer_steps": sum(sum(r["steps"]) for r in rounds),
            "global_epochs": (GLOBAL_EPOCHS + TRANSFER_EPOCHS) * len(rounds),
            "transfer_records": new_records * len(rounds)}


def save_outputs(state, workdir: Path) -> None:
    np.savez(workdir / "test_probs.npz", **state["test_probs"])


def operations(rounds) -> int:
    """Optimizer steps taken in the timed rounds."""
    return sum(sum(r["steps"]) for r in rounds)
