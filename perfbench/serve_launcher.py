"""`evmguard serve` with the benchmark's span wrappers installed in the server.

    serve_launcher.py <trace.json> serve --model M --vocab V --port P

On SIGTERM the server stops and the spans, plus the time from this
script's start until the listening socket was bound, go to <trace.json>.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
from evmguard import cli, evm_bytecode, mol_net, service  # noqa: E402


def install(tracer: tracing.Tracer, ready: dict) -> None:
    handler = service._Handler
    do_post = handler.do_POST

    def tagged_do_post(self):
        tracer.set_request(self.headers.get("X-Request-Id"))
        return do_post(self)

    handler.do_POST = tagged_do_post
    tracer.wrap(handler, "do_POST", "service.handler")
    tracer.wrap(service.PredictionService, "predict_document", "service.predict_document")
    tracer.wrap(service, "preprocess", "service.preprocess")
    tracer.wrap(service, "encode", "service.encode", tracing.encode_info)
    tracer.wrap(service, "forward", "service.forward", tracing.forward_info)
    for name in ("parse_hex", "disassemble", "normalize", "default_table"):
        tracer.wrap(evm_bytecode, name, f"evm_bytecode.{name}")
    tracer.wrap(mol_net, "load_model", "mol_net.load_model")
    make_server = service.make_server

    def timed_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        ready["serve_ready_ms"] = (time.perf_counter() - STARTED) * 1e3
        return server

    service.make_server = timed_make_server


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    tracer, ready = tracing.Tracer(), {}
    install(tracer, ready)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return cli.main(args)
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, **ready}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
