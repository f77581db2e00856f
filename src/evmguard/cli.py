"""Command-line front door for the whole pipeline.

Subcommands cover preprocessing, synthetic corpus generation, label
arbitration, chunking, training, transfer, evaluation, serving, and
single-contract prediction. Each one reads and writes the flat file
formats owned by the library modules, so every artifact is inspectable.

A flag whose callee has a default is passed on only when given, so that
default lives once, in the library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus, metrics, mol_net, service, tokenizer, trainer
from .errors import ConfigError, EvmGuardError, MalformedInputError, ParseError
# `preprocess` names the per-contract stage; it yields Opcodes
from .evm_bytecode import opcodes as preprocess, render


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--global-epochs", type=int)
    p.add_argument("--local-epochs", type=int)
    p.add_argument("--threshold", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmguard",
        description="Multi-label smart-contract vulnerability detection from EVM bytecode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize hex bytecode to opcode tokens")
    p.add_argument("hexfile", help="file holding contract bytecode as hex text")
    p.add_argument("--out", help="write tokens here instead of stdout")

    p = sub.add_parser("synth", help="generate a seeded synthetic labeled corpus")
    p.add_argument("--out", required=True, help="corpus CSV to write")
    p.add_argument("--classes", dest="n_classes", type=int)
    p.add_argument("--per-combo", type=int, default=120)
    p.add_argument("--min-len", dest="min_length", type=int)
    p.add_argument("--max-len", dest="max_length", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("label", help="arbitrate detector reports into a labeled corpus")
    p.add_argument("--bytecodes", required=True, help="CSV `address,bytecode` (hex)")
    p.add_argument("--reports", required=True, help="CSV `tool,address,class_id,verdict`")
    p.add_argument("--profiles", required=True, help="CSV `tool,class_id,f1`")
    p.add_argument("--out", required=True, help="labeled corpus CSV to write")

    p = sub.add_parser("chunk", help="split a corpus and slice the train part into chunks")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--chunk-size", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a fresh model over chunk files")
    p.add_argument("--chunks-dir", required=True)
    p.add_argument("--val", help="validation CSV (chunk format)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--history", help="write a training history CSV here")
    p.add_argument("--max-seq-len", dest="max_sequence_length", type=int)
    p.add_argument("--embedding-dim", type=int, default=16)
    p.add_argument("--gru-hidden", type=int)
    p.add_argument("--dropout", dest="dropout_rate", type=float)
    _add_train_flags(p)

    p = sub.add_parser("transfer", help="add branches for new classes and train only them")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--chunks-dir", required=True, help="chunks labeled with the new classes")
    p.add_argument("--out-model", required=True)
    p.add_argument("--val", help="validation CSV over the new classes")
    p.add_argument("--history")
    _add_train_flags(p)

    p = sub.add_parser("eval", help="score a trained model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write the per-class metrics CSV here")
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("serve", help="run the HTTP prediction service")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--raw", action="store_true", help="full-precision probabilities")

    p = sub.add_parser("predict", help="predict one contract and print the response")
    p.add_argument("hexfile")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--raw", action="store_true", help="full-precision probabilities")

    return parser


def _given(args, *names) -> dict:
    """The named flags that were given, as keyword arguments; an omitted one keeps the callee's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _read_chunks_dir(chunks_dir: str) -> tuple[list[corpus.Chunk], corpus.ClassCatalog]:
    paths = sorted(Path(chunks_dir).glob("chunk_*.csv"))
    if not paths:
        raise ConfigError(f"no chunk_*.csv files in {chunks_dir}")
    catalog = corpus.read_corpus_catalog(paths[0])
    return [
        corpus.read_chunk(path, catalog, index=i) for i, path in enumerate(paths)
    ], catalog


def _load_model_and_vocab(model_path, vocab_path):
    model = mol_net.load_model(model_path)
    vocab = tokenizer.load_vocab(vocab_path)
    vocab.check_fingerprint(model.vocab_fingerprint)
    return model, vocab


def _check_out_paths(*paths) -> None:
    """ConfigError unless each path given names a file in an existing directory, checked before training."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")


def _print_report(report) -> None:
    for m in report.per_class:
        print(
            f"{m.name}: precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}"
        )
    print(
        f"weighted_f1={report.weighted_f1:.4f} jaccard={report.jaccard:.4f} "
        f"hamming={report.hamming:.4f} mean_bce={report.mean_bce:.4f}"
    )


def _cmd_preprocess(args) -> int:
    hex_text = Path(args.hexfile).read_text(encoding="utf-8", errors="replace").strip()
    rendered = render(preprocess(hex_text))
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 0


def _cmd_synth(args) -> int:
    spec = corpus.default_synth_spec(**_given(args, "n_classes", "min_length", "max_length"))
    records = corpus.synth_generate(
        spec, corpus.all_label_combos(len(spec.catalog.names), args.per_combo), args.seed
    )
    corpus.write_chunk(
        corpus.Chunk(index=0, records=tuple(records)), args.out, spec.catalog
    )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_label(args) -> int:
    catalog = corpus.default_catalog()
    profiles = corpus.read_profiles(args.profiles)
    reports_by_address = corpus.read_reports(args.reports)
    records = []
    skipped = 0
    rows = corpus.read_csv(args.bytecodes, ["address", "bytecode"])
    next(rows)
    for lineno, (address, hex_text) in rows:
        reports = reports_by_address.get(address)
        if not reports:
            skipped += 1
            continue
        try:
            tokens = preprocess(hex_text)
        except MalformedInputError as exc:
            raise ParseError(f"bytecode of {address!r}: {exc}", line=lineno) from None
        records.append(
            corpus.ContractRecord(
                address=address,
                tokens=tokens,
                labels=corpus.arbitrate_labels(reports, profiles, catalog),
            )
        )
    corpus.write_chunk(corpus.Chunk(index=0, records=tuple(records)), args.out, catalog)
    if skipped:
        print(f"skipped {skipped} addresses with no detector reports", file=sys.stderr)
    print(f"wrote {len(records)} labeled records to {args.out}")
    return 0


def _cmd_chunk(args) -> int:
    catalog = corpus.read_corpus_catalog(args.corpus)
    full = corpus.read_chunk(args.corpus, catalog)
    train_recs, val_recs, test_recs = corpus.split(list(full.records), args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, recs in (("validation.csv", val_recs), ("test.csv", test_recs)):
        corpus.write_chunk(corpus.Chunk(index=0, records=tuple(recs)), out_dir / name, catalog)
    chunks = corpus.chunk(train_recs, **_given(args, "chunk_size"), seed=args.seed)
    for c in chunks:
        corpus.write_chunk(c, out_dir / f"chunk_{c.index:04d}.csv", catalog)
    print(
        f"wrote {len(chunks)} train chunks ({len(train_recs)} records), "
        f"{len(val_recs)} validation, {len(test_recs)} test to {args.out_dir}"
    )
    return 0


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(**_given(
        args, "global_epochs", "local_epochs", "batch_size", "learning_rate", "seed", "threshold"
    ))


def _train_and_save(args, config, model, vocab, chunks, catalog, new_branches=None):
    """`trainer.train`, or `transfer_train` given new branches; writes the model and history."""
    validation = None
    if args.val:
        records = corpus.read_chunk(args.val, catalog).records
        validation = trainer.encode_records(records, vocab, model.stem.max_sequence_length)
    if new_branches is None:
        history = trainer.train(model, chunks, vocab, config, validation)
    else:
        history = trainer.transfer_train(
            model, chunks, new_branches, vocab, config, validation
        )
    mol_net.save_model(model, args.out_model)
    if args.history:
        trainer.write_history_csv(history, args.history)
    return history


def _cmd_train(args) -> int:
    config = _train_config(args)
    _check_out_paths(args.out_model, args.out_vocab, args.history)
    chunks, catalog = _read_chunks_dir(args.chunks_dir)
    vocab = tokenizer.fit(r.tokens for c in chunks for r in c.records)
    stem = mol_net.StemConfig(
        vocab_size=len(vocab),
        embedding_dim=args.embedding_dim,
        **_given(args, "gru_hidden", "dropout_rate", "max_sequence_length"),
    )
    model = mol_net.init_model(
        stem, [mol_net.BranchConfig(n) for n in catalog.names], seed=config.seed
    )
    history = _train_and_save(args, config, model, vocab, chunks, catalog)
    tokenizer.save_vocab(vocab, args.out_vocab)
    last = history.entries[-1]
    line = f"trained {history.optimizer_steps} steps, final loss {last.train_loss:.4f}"
    if last.validation is not None:
        line += f", validation weighted F1 {last.validation.weighted_f1:.4f}"
    print(line)
    return 0


def _cmd_transfer(args) -> int:
    config = _train_config(args)
    _check_out_paths(args.out_model, args.history)
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    chunks, new_catalog = _read_chunks_dir(args.chunks_dir)
    configs = [mol_net.BranchConfig(n) for n in new_catalog.names]
    history = _train_and_save(args, config, model, vocab, chunks, new_catalog, configs)
    print(
        f"added {len(configs)} branches, trained {history.optimizer_steps} steps, "
        f"final loss {history.entries[-1].train_loss:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    catalog = corpus.read_corpus_catalog(args.data)
    records = corpus.read_chunk(args.data, catalog).records
    enc = trainer.encode_records(records, vocab, model.stem.max_sequence_length)
    # evaluate refuses a class the model lacks
    report = trainer.evaluate(model, enc, **_given(args, "threshold"), branch_subset=list(catalog.names))
    _print_report(report)
    if args.report:
        metrics.write_report_csv(report, args.report)
    return 0


def _cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"port must be in [0, 65535], got {args.port}")
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    svc = service.PredictionService(model, vocab, raw=args.raw)
    print(f"serving on http://{args.host}:{args.port}", file=sys.stderr)
    service.serve(svc, args.host, args.port)
    return 0


def _cmd_predict(args) -> int:
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    svc = service.PredictionService(model, vocab, raw=args.raw)
    hex_text = Path(args.hexfile).read_text(encoding="utf-8", errors="replace").strip()
    print(svc.predict_document(hex_text))
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "synth": _cmd_synth,
    "label": _cmd_label,
    "chunk": _cmd_chunk,
    "train": _cmd_train,
    "transfer": _cmd_transfer,
    "eval": _cmd_eval,
    "serve": _cmd_serve,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EvmGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
