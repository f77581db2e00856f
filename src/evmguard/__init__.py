"""Multi-label smart-contract vulnerability detection from EVM bytecode.

Pipeline: normalize bytecode into opcode tokens, arbitrate detector tool
verdicts into labels, build a chunked corpus, train a shared-stem
multi-branch GRU classifier with hand-written backpropagation, extend it
to new vulnerability classes by freezing everything but fresh branches,
and serve predictions over HTTP with a byte-stable response format.

The package re-exports nothing: import the module that holds a name,
e.g. `from evmguard import corpus, trainer`, so a process loads only the
modules it calls.
"""

__version__ = "0.1.0"
