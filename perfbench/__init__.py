"""perfbench — the end-to-end + per-layer benchmark named by ``BENCHMARK.json``.

Self-contained: it measures ``repro`` from outside (timing calls into public
functions, rebinding public module attributes in the traced pass, reading the
``stats`` op) and never edits ``src/``.  See ``perfbench/README.md``.
"""
