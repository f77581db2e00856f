"""ingest: `evmguard label`, then `evmguard chunk`, then `encode_records` at 4,100.

One round labels CONTRACTS seeded contracts of evenly spaced sizes from
1 to 24 kB, from three tools' reports over the eight default classes
(some addresses unreported, some unassigned bytes, every fourth contract
ending inside a PUSH operand), chunks the labeled corpus and encodes
every output file. `evm_bytecode`,
`tokenizer` and `corpus` do the work; `mol_net` does none.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from pathlib import Path

import numpy as np

import gen
import reference as ref
from common import check

CONTRACTS = 64
UNREPORTED_EVERY = 8  # size ranks 0, 8, 16, ... have no detector report
CUT_PUSH_EVERY = 4
CHUNK_SIZE = 16
MAX_LEN = 4100
N_CLASSES = 8
# Published per-class F1 (class id -> F1). The ties on classes 1 and 2 go
# to the smaller tool name.
PROFILES = {
    "mythril": {1: 0.70, 2: 0.62, 3: 0.55, 4: 0.80, 5: 0.40, 6: 0.66, 7: 0.58, 8: 0.71},
    "oyente": {1: 0.70, 2: 0.75, 3: 0.50, 7: 0.60, 8: 0.75},
    "securify": {2: 0.75, 4: 0.85, 5: 0.45, 6: 0.60},
}


# --- parent side: inputs and checks ---


def prepare(workdir: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # Sizes, unreported addresses and cut PUSHes sit at the same size ranks for
    # every seed, so the work of a round does not depend on the seed.
    contracts, reports, rows = {}, {}, []
    for rank in rng.permutation(CONTRACTS):
        size = int(1024 + rank * (23 * 1024) // (CONTRACTS - 1))
        address = "0x" + rng.bytes(20).hex()
        contracts[address] = gen.contract_by_bytes(rng, size, 0.01, cut_push=rank % CUT_PUSH_EVERY == 1)
        if rank % UNREPORTED_EVERY == 0:
            continue
        # mythril covers every class, so each reported address is decidable
        tools = ["mythril"] + [t for t in ("oyente", "securify") if rng.random() < 0.6]
        for tool in tools:
            verdicts = {cid: bool(rng.random() < 0.3) for cid in PROFILES[tool] if rng.random() < 0.8}
            verdicts = verdicts or {min(PROFILES[tool]): False}
            reports.setdefault(address, {})[tool] = verdicts
            rows += [[tool, address, cid, int(v)] for cid, v in verdicts.items()]
    order = rng.permutation(len(rows))
    _write_csv(workdir / "reports.csv", ["tool", "address", "class_id", "verdict"], [rows[i] for i in order])
    _write_csv(workdir / "profiles.csv", ["tool", "class_id", "f1"],
               [[t, cid, f"{f1:.6f}"] for t, by in PROFILES.items() for cid, f1 in by.items()])
    _write_csv(workdir / "bytecodes.csv", ["address", "bytecode"], [[a, "0x" + c.hex] for a, c in contracts.items()])
    (workdir / "alphabet.txt").write_text(" ".join(ref.ALPHABET))
    labels = {a: ref.arbitrate(by_tool, PROFILES, N_CLASSES) for a, by_tool in reports.items()}
    return {"contracts": contracts, "labels": labels, "seed": seed}


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def verify(ctx: dict, result: dict, workdir: Path) -> list[str]:
    failures = []
    contracts, labels = ctx["contracts"], ctx["labels"]
    labeled = [a for a in contracts if a in labels]
    for r in result["rounds"]:
        check(r["exit"] == [0, 0], f"label/chunk exit codes {r['exit']}", failures)
        check(f"wrote {len(labeled)} labeled records" in r["stdout"], "label reported a wrong record count", failures)
        check(f"skipped {len(contracts) - len(labeled)} addresses" in r["stderr"],
              "label reported a wrong count of unreported addresses", failures)
    check(len({(r["corpus"], r["ids"]) for r in result["rounds"]}) == 1, "rounds produced different outputs", failures)

    from evmguard.corpus import DEFAULT_CLASS_NAMES

    rows = _read_csv(workdir / "corpus.csv")
    check(rows[0][2:] == list(DEFAULT_CLASS_NAMES), "corpus header has the wrong classes", failures)
    check([row[0] for row in rows[1:]] == labeled, "corpus rows are not the reported addresses in input order", failures)
    for address, text, *cells in rows[1:]:
        check(text.split(" ") == contracts[address].tokens, f"{address}: tokens differ from the generated ones", failures)
        check(tuple(c == "1" for c in cells) == labels[address], f"{address}: labels differ from arbitration", failures)

    out = workdir / "chunks"
    files = {p.name: [row[0] for row in _read_csv(p)[1:]] for p in sorted(out.glob("*.csv"))}
    n_train, n_val, n_test = ref.split_sizes(len(labeled))
    chunk_files = sorted(n for n in files if n.startswith("chunk_"))
    check(len(files["validation.csv"]) == n_val and len(files["test.csv"]) == n_test, "split sizes break the split law", failures)
    check([len(files[n]) for n in chunk_files] == ref.chunk_sizes(n_train, CHUNK_SIZE), "chunk sizes break the chunk law", failures)
    check(sorted(a for names in files.values() for a in names) == sorted(labeled), "chunks do not partition the corpus", failures)

    lookup = gen.byte_to_id(ref.vocabulary())
    ids = np.load(workdir / "ids.npz")
    for name, addresses in files.items():
        want = np.array([contracts[a].ids(lookup, MAX_LEN) for a in addresses])
        check(np.array_equal(ids[name], want), f"{name}: ids differ from vocabulary lookup", failures)
    return failures


def operations(rounds) -> int:
    """Contracts labeled in the timed rounds."""
    return sum(r["labeled"] for r in rounds)


# --- child side: the program's work ---


def setup(workdir: Path) -> dict:
    from evmguard import tokenizer

    vocab = tokenizer.fit([(workdir / "alphabet.txt").read_text().split()])
    return {"workdir": workdir, "vocab": vocab, "seed": (workdir / "seed.txt").read_text().strip()}


def timed_round(state):
    from evmguard import cli, corpus, trainer

    w = state["workdir"]
    clock, tracer = state.get("clock"), state.get("tracer")
    first_contract = len(clock.latencies_ms) if clock else 0
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with span("cli.label"):
            labeled = cli.main(["label", "--bytecodes", str(w / "bytecodes.csv"), "--reports", str(w / "reports.csv"),
                                "--profiles", str(w / "profiles.csv"), "--out", str(w / "corpus.csv")])
        with span("cli.chunk"):
            chunked = cli.main(["chunk", "--corpus", str(w / "corpus.csv"), "--out-dir", str(w / "chunks"),
                                "--chunk-size", str(CHUNK_SIZE), "--seed", state["seed"]])
        encoded = {p.name: trainer.encode_records(corpus.read_chunk(p).records, state["vocab"], MAX_LEN).ids
                   for p in sorted((w / "chunks").glob("*.csv"))}
    elapsed = time.perf_counter() - started
    state["ids"] = encoded
    n = sum(len(v) for v in encoded.values())
    latencies = clock.latencies_ms[first_contract:] if clock else []
    summary = {"op_ms": latencies, "exit": [labeled, chunked], "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "labeled": n,
               "corpus": hashlib.sha256((w / "corpus.csv").read_bytes()).hexdigest(),
               "ids": hashlib.sha256(b"".join(encoded[k].tobytes() for k in sorted(encoded))).hexdigest()}
    return elapsed, n, summary


def warm_up(state) -> None:
    timed_round(state)


def install_clock(clock) -> None:
    """One operation: a contract, from its preprocess to the end of its label arbitration."""
    from evmguard import cli, corpus

    clock.install((cli, "preprocess"), (corpus, "arbitrate_labels"))


def install_tracer(tracer) -> None:
    from evmguard import cli, corpus, evm_bytecode, tokenizer, trainer
    from tracing import encode_info

    tracer.wrap(cli, "preprocess", "cli.preprocess")
    for name in ("parse_hex", "disassemble", "normalize", "default_table"):
        tracer.wrap(evm_bytecode, name, f"evm_bytecode.{name}")
    for name in ("read_reports", "arbitrate_labels", "write_chunk", "read_chunk"):
        tracer.wrap(corpus, name, f"corpus.{name}")
    tracer.wrap(tokenizer, "encode", "tokenizer.encode", encode_info)
    tracer.wrap(trainer, "encode_records", "trainer.encode_records")


def trace_extra(state, rounds) -> dict:
    return {}


def save_outputs(state, workdir: Path) -> None:
    np.savez(workdir / "ids.npz", **state["ids"])
