"""Span tracing from outside the package, for the traced benchmark run.

Nothing in `factbeam` is edited. Spans come from three kinds of wrapper:

- the benchmark's own calls into the package (the namespace
  `Tracer.install` returns),
- module attributes replaced at the sites that import them, so calls
  the package makes internally (`decoder.allowed_tokens`,
  `decoder.parse`, `fileio.read_jsonl`, `metrics.per_relation_scores`,
  `attribution.match`) are seen too,
- proxy objects handed to the package in place of a trie, scorer or
  tokenizer.

A span is (name, start, end, parent span, document index). Spans are
kept in flat arrays while the run lasts and written out when it ends.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# benchmark-facing name -> (module, span name)
API = {
    "load_catalog": ("factbeam.fileio", "fileio.load_catalog"),
    "build_trie": ("factbeam.catalog", "catalog.build_trie"),
    "save_trie": ("factbeam.fileio", "fileio.save_trie"),
    "load_trie": ("factbeam.fileio", "fileio.load_trie"),
    "read_documents": ("factbeam.fileio", "fileio.read_documents"),
    "read_prediction_sets": ("factbeam.fileio", "fileio.read_prediction_sets"),
    "read_counts": ("factbeam.fileio", "fileio.read_counts"),
    "write_jsonl": ("factbeam.fileio", "fileio.write_jsonl"),
    "write_json": ("factbeam.fileio", "fileio.write_json"),
    "linearize": ("factbeam.linearize", "linearize.linearize"),
    "train_ngram": ("factbeam.scorers", "scorers.train_ngram"),
    "decode": ("factbeam.decoder", "decoder.decode"),
    "micro_scores": ("factbeam.metrics", "metrics.micro_scores"),
    "macro_scores": ("factbeam.metrics", "metrics.macro_scores"),
    "per_relation_scores": ("factbeam.metrics", "metrics.per_relation_scores"),
    "bucketed_f1": ("factbeam.metrics", "metrics.bucketed_f1"),
    "bootstrap_ci": ("factbeam.metrics", "metrics.bootstrap_ci"),
    "nel_rc_errors": ("factbeam.attribution", "attribution.nel_rc_errors"),
    "recall_error": ("factbeam.attribution", "attribution.recall_error"),
}

# (module, attribute) replaced where the package looks it up -> span name
IMPORT_SITES = {
    ("factbeam.decoder", "allowed_tokens"): "decoder.allowed_tokens",
    ("factbeam.decoder", "parse"): "linearize.parse",
    ("factbeam.fileio", "read_jsonl"): "fileio.read_jsonl",
    ("factbeam.metrics", "per_relation_scores"): "metrics.per_relation_scores",
    ("factbeam.attribution", "match"): "attribution.match",
}


def plain_api() -> SimpleNamespace:
    """The package's own functions, for untraced runs."""
    return SimpleNamespace(
        **{name: getattr(importlib.import_module(mod), name) for name, (mod, _) in API.items()}
    )


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.doc = array("q")
        self._stack = [-1]
        self.doc_index = -1  # set by the workload around each document
        self.candidates = 0  # sum of allowed-set sizes
        self.dead_ends = 0  # hypotheses with an empty allowed set
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        start, end, parent, names, doc, stack = (
            self.start, self.end, self.parent, self.name, self.doc, self._stack
        )

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            doc.append(self.doc_index)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def _allowed_tokens(self, fn):
        traced = self.wrap("decoder.allowed_tokens", fn)

        def counted(*args, **kwargs):
            out = traced(*args, **kwargs)
            self.candidates += len(out)
            if not out:
                self.dead_ends += 1
            return out

        return counted

    # --- installation ---------------------------------------------------

    def install(self) -> SimpleNamespace:
        """Patch the import sites and return the traced benchmark API."""
        for (mod_name, attr), span in IMPORT_SITES.items():
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            if attr == "allowed_tokens":
                setattr(mod, attr, self._allowed_tokens(original))
            else:
                setattr(mod, attr, self.wrap(span, original))
        api = {}
        for name, (mod_name, span) in API.items():
            mod = importlib.import_module(mod_name)
            if (mod_name, name) in IMPORT_SITES:
                api[name] = getattr(mod, name)  # already wrapped above
            else:
                api[name] = self.wrap(span, getattr(mod, name))
        return SimpleNamespace(**api)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # --- results ----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(excl[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            doc=np.frombuffer(self.doc, dtype=np.int64),
        )


class TrieProxy:
    """A TokenTrie stand-in that times every query the decoder makes."""

    def __init__(self, trie, tracer: Tracer) -> None:
        self.ROOT = trie.ROOT
        self._len = tracer.wrap("catalog.len", trie.__len__)
        self.children_of = tracer.wrap("catalog.children", trie.children_of)
        self.child = tracer.wrap("catalog.children", trie.child)
        self.terminal_id = tracer.wrap("catalog.children", trie.terminal_id)

    def __len__(self) -> int:
        return self._len()


class ScorerProxy:
    def __init__(self, scorer, tracer: Tracer) -> None:
        self.vocab_size = scorer.vocab_size
        self.next_log_probs = tracer.wrap("scorers.next_log_probs", scorer.next_log_probs)


class TokenizerProxy:
    def __init__(self, tok, tracer: Tracer) -> None:
        self.vocab_size = tok.vocab_size
        self.encode = tracer.wrap("tokens.encode", tok.encode)
        self.decode = tok.decode
