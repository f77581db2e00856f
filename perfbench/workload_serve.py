"""serve-short and serve-long: a closed loop of two keep-alive HTTP/1.1
connections against `evmguard serve` running in a child process.

serve-short sends mostly EIP-1167 proxy clones (45 bytes; every clone
normalizes to the same tokens because the address is a PUSH20 operand)
and some small distinct contracts of at most 1 kB, cycling through a
fixed pool, so per-request costs in `service` and HTTP dominate and
repeated inputs are common. serve-long sends contracts that never repeat
within a run, each at least 4,100 normalized opcodes and some longer, so
the batch-1 eval-mode GRU scan dominates and a repeated-input cache
cannot help.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import socket
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

import common
import gen
import reference as ref
import tracing

CONNECTIONS = 2
SHORT_POOL = 400
PROXY_SHARE = 0.8
LONG_OPS = (4100, 5200)
WARM_REQUESTS = {"serve-short": 40, "serve-long": 4}
MAX_LEN = 4100
# Printed cells have 4 decimals (rounding adds up to 5e-5); float32
# against float64 over 4,100 GRU steps adds the rest.
TOLERANCE = 1.5e-4
HOST = "127.0.0.1"
_DOCUMENT = re.compile(r'\{"prediction": \{(.*)\}, "prediction_time in_second": "\d+\.\d\d"\}')
_CELL = re.compile(r"\d\.\d{4}")


class Bodies:
    """Request i's contract, a pure function of (seed, i)."""

    def __init__(self, workload: str, seed: int):
        self.long = workload == "serve-long"
        self.seed = seed
        self._made: dict[int, gen.Contract] = {}
        self._lock = threading.Lock()
        if not self.long:
            rng = np.random.default_rng(seed)
            n_small = round(SHORT_POOL * (1 - PROXY_SHARE))
            small = [gen.contract_by_bytes(rng, int(size), 0.02, cut_push=False)
                     for size in np.linspace(64, 1024, n_small)]
            proxies = [gen.proxy_clone(rng) for _ in range(SHORT_POOL - n_small)]
            pool = small + proxies
            self.pool = [pool[k] for k in rng.permutation(SHORT_POOL)]

    def key(self, i: int) -> int:
        """Requests with the same key carry the same body."""
        return i if self.long else i % SHORT_POOL

    def __call__(self, i: int) -> gen.Contract:
        if not self.long:
            return self.pool[i % SHORT_POOL]
        with self._lock:
            if i not in self._made:
                rng = np.random.default_rng([self.seed, i])
                self._made[i] = gen.contract_by_ops(rng, int(rng.integers(*LONG_OPS, endpoint=True)))
            return self._made[i]


def _model(workdir: Path, seed: int):
    """A seeded 8-class model over the normalized alphabet, as the server loads it."""
    from evmguard import corpus, mol_net, tokenizer

    vocab = tokenizer.fit([list(ref.ALPHABET)])
    want = {"<PAD>": ref.PAD_ID, "<OOV>": ref.OOV_ID, **ref.vocabulary()}
    if vocab.token_to_id != want:
        raise RuntimeError("program vocabulary differs from the README's vocabulary law")
    stem = mol_net.StemConfig(len(vocab), 16, 64, 0.2, MAX_LEN)
    model = mol_net.init_model(stem, [mol_net.BranchConfig(n) for n in corpus.DEFAULT_CLASS_NAMES], seed)
    model.vocab_fingerprint = vocab.fingerprint()
    mol_net.save_model(model, workdir / "model.bin")
    tokenizer.save_vocab(vocab, workdir / "vocab.tsv")
    return model


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def _start(workdir: Path, trace_out: Path | None):
    """Start a server; returns (process, port, seconds until GET /config answered, config)."""
    port = _free_port()
    serve = ["serve", "--model", str(workdir / "model.bin"), "--vocab", str(workdir / "vocab.tsv"),
             "--host", HOST, "--port", str(port)]
    args = [str(common.HERE / "serve_launcher.py"), str(trace_out), *serve] if trace_out else ["-m", "evmguard.cli", *serve]
    started = time.perf_counter()
    proc = common.spawn(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while True:
            if proc.poll() is not None or time.perf_counter() - started > 60:
                raise RuntimeError(f"server exited or never answered (exit {proc.poll()})")
            try:
                conn = http.client.HTTPConnection(HOST, port, timeout=5)
                conn.request("GET", "/config")
                resp = conn.getresponse()
                body = resp.read()
                conn.close()
                if resp.status == 200:
                    return proc, port, time.perf_counter() - started, json.loads(body)
            except OSError:
                time.sleep(0.002)
    except BaseException:
        common.stop(proc)
        raise


def _closed_loop(port: int, bodies: Bodies, counter, requests: int | None = None, seconds: float | None = None):
    """Each connection sends its next request when the previous answer arrives.

    Stops after `requests` requests or after `seconds`. Request indices
    come from the run-wide `counter`, so serve-long never repeats a body.

    Returns ([(request index, status, body, round trip ms)], wall seconds).
    """
    results, errors, sent_count = [], [], itertools.count()
    started = time.perf_counter()
    deadline = started + seconds if seconds else None

    def client():
        conn = http.client.HTTPConnection(HOST, port, timeout=120)
        try:
            while True:
                if deadline and time.perf_counter() >= deadline:
                    return
                if requests is not None and next(sent_count) >= requests:
                    return
                i = next(counter)
                payload = json.dumps({"smart_contract": bodies(i).hex}).encode()
                sent = time.perf_counter()
                conn.request("POST", "/predict", body=payload,
                             headers={"Content-Type": "application/json", "X-Request-Id": str(i)})
                resp = conn.getresponse()
                data = resp.read()
                results.append((i, resp.status, data.decode(), (time.perf_counter() - sent) * 1e3))
        except Exception as exc:  # reported below as a failed run
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results, time.perf_counter() - started


def _phase(workdir, bodies, counter, seconds, warm, trace_out=None):
    """One server: start, warm up, a timed closed loop, stop. Returns its figures."""
    proc, port, ready_s, config = _start(workdir, trace_out)
    try:
        warmed, _ = _closed_loop(port, bodies, counter, requests=warm)
        timed, wall = _closed_loop(port, bodies, counter, seconds=seconds)
        rss = common.vm_hwm_mb(proc.pid)
    finally:
        common.stop(proc)
    return {"ready_s": ready_s, "config": config, "warm": warmed, "timed": timed, "wall": wall, "rss": rss}


def _verify(model, bodies: Bodies, results, configs) -> list[str]:
    failures = []
    names = model.class_names
    for config in configs:
        common.check(config["classes"] == names and config["max_sequence_length"] == MAX_LEN
                     and config["vocab_fingerprint"] == model.vocab_fingerprint, f"GET /config: {config}", failures)
    cells_by_key: dict[int, list[str]] = {}
    for i, status, text, *_ in results:
        if status != 200:
            continue
        m = _DOCUMENT.fullmatch(text)
        cells = [c.rsplit(": ", 1) for c in m.group(1).split(", ")] if m else []
        if [json.loads(k) for k, _ in cells] != names or not all(_CELL.fullmatch(v) for _, v in cells):
            failures.append(f"request {i}: malformed document {text[:200]}")
            continue
        cells_by_key.setdefault(bodies.key(i), []).append(m.group(1))
    for key, docs in cells_by_key.items():
        common.check(len(set(docs)) == 1, f"body {key}: identical requests got different predictions", failures)
    keys = sorted(cells_by_key)
    lookup = gen.byte_to_id(ref.vocabulary())
    ids = np.array([bodies(k).ids(lookup, MAX_LEN) for k in keys])
    want = ref.gru_forward(model.params, [(b.class_name, len(b.dense_widths)) for b in model.branches], ids)
    got = np.array([[float(c.rsplit(": ", 1)[1]) for c in cells_by_key[k][0].split(", ")] for k in keys])
    worst = float(np.abs(got - want).max())
    common.check(worst <= TOLERANCE, f"served probabilities off the float64 reference by {worst:.2e}", failures)
    print(f"{len(keys)} distinct bodies checked; largest deviation from the float64 reference {worst:.2e}")
    return failures


def run(workload: str, workdir: Path, seed: int, seconds: int, trace: bool) -> dict:
    model = _model(workdir, seed)
    bodies = Bodies(workload, seed)
    warm = WARM_REQUESTS[workload]
    counter = itertools.count()
    if bodies.long:  # make the contracts a run is expected to use before timing starts
        for i in range(warm + 8 * seconds):
            bodies(i)
    if not trace:
        setup = []
        for _ in range(common.SETUP_SAMPLES - 1):
            proc, _, ready_s, _ = _start(workdir, None)
            common.stop(proc)
            setup.append(ready_s)
        phase = _phase(workdir, bodies, counter, seconds, warm)
        setup.append(phase["ready_s"])
        phases = [phase]
        timed = phase["timed"]
        metrics = common.end_to_end(setup, len(timed), phase["wall"], [r[3] for r in timed], phase["rss"])
    else:
        plain = _phase(workdir, bodies, counter, seconds / 2, warm)
        trace_out = workdir / "trace.json"
        traced = _phase(workdir, bodies, counter, seconds / 2, warm, trace_out)
        phases = [plain, traced]
        timed = plain["timed"] + traced["timed"]
        recorded = json.loads(trace_out.read_text())
        rate = [len(p["timed"]) / p["wall"] for p in phases]
        extra = {"rtt_ms": {str(r[0]): r[3] for r in traced["timed"]},
                 "serve_ready_ms": recorded["serve_ready_ms"], "overhead_pct": 100.0 * (rate[0] / rate[1] - 1.0)}
        metrics = common.per_layer(tracing.layer_metrics(recorded["spans"], extra))
    results = [r for p in phases for r in p["warm"] + p["timed"]]
    failures = _verify(model, bodies, results, [p["config"] for p in phases])
    return {"failures": failures, "attempted": len(timed), "failed": sum(r[1] != 200 for r in timed),
            "metrics": metrics}
