"""Traced runs: spans and counters around the library's public functions.

`Tracer.install` replaces each named function (or method) with a wrapper,
including every copy that other library modules imported by name, and
`Tracer.remove` puts the originals back. A span records (name, start, end,
parent); a layer's self time is its span time minus the time of the spans
nested directly in it. A name that no longer exists in the library is
reported as absent rather than failing the run. `Clock` time-stamps the
calls of one function, which `run.py` uses to cut rounds into segments.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# per-layer metric name -> (module, attribute path), timed as a span
SPANS = {
    "autodiff.backward_s": ("autodiff", "backward"),
    "params.sgd_step_s": ("params", "sgd_step"),
    "params.save_params_s": ("params", "save_params"),
    "params.load_params_s": ("params", "load_params"),
    "corpus.parse_conll_s": ("corpus", "parse_conll"),
    "corpus.write_conll_s": ("corpus", "write_conll"),
    "encoder.encode_s": ("encoder", "encode"),
    "encoder.update_key_s": ("encoder", "update_key"),
    "tagger.bilstm_forward_s": ("tagger", "bilstm_forward"),
    "tagger.emissions_s": ("tagger", "emissions"),
    "tagger.crf_log_partition_s": ("tagger", "crf_log_partition"),
    "tagger.path_score_s": ("tagger", "path_score"),
    "tagger.viterbi_s": ("tagger", "viterbi"),
    "contrast.project_s": ("contrast", "project"),
    "contrast.build_msim_s": ("contrast", "build_msim"),
    "contrast.queue_rotate_s": ("contrast", "NegativeQueue.rotate"),
    "contrast.info_nce_s": ("contrast", "info_nce"),
    "kg.load_snapshot_s": ("kg", "load_snapshot"),
    "kg.build_pe_s": ("kg", "build_pe"),
    "kg.modify_entities_s": ("kg", "modify_entities"),
    "evaluation.count_matches_s": ("evaluation", "count_matches"),
}

# per-layer metric name -> (module, attribute path) it is counted at: calls
# per operation, hits per lookup, tape entries per taped token
COUNTS = {
    "kg.expand_acronym_calls": ("kg", "expand_acronym"),
    "kg.lookup_calls": ("kg", "KgIndex.lookup"),
    "kg.lookup_hit_ratio": ("kg", "KgIndex.lookup"),
    "autodiff.tape_entries_per_token": ("autodiff", "tape_size"),
}

ROOT = "op"


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the name is gone."""
    try:
        owner = importlib.import_module("contrastner." + module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def patch_everywhere(owner, attr, original, wrapper) -> list:
    """Swap in the wrapper on its owner and wherever it was imported.

    Returns the (owner, attribute, original) triples that undo it.
    """
    patches = [(owner, attr, original)]
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if not name.startswith("contrastner") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, original))
                setattr(module, key, wrapper)
    return patches


def unpatch(patches: list):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


class Clock:
    """Time stamps at every call of one library function.

    Every round of a workload does the same work, so the n-th call falls at
    the same point of the work in every round; the stamps cut the rounds
    into matching segments. Costs one `perf_counter` call per call. A name
    that no longer exists leaves `ticks` empty.
    """

    def __init__(self, module_name: str, path: str):
        self.target = (module_name, path)
        self.ticks = []
        self._patches = []

    def install(self):
        resolved = _resolve(*self.target)
        if resolved is None:
            return
        fn, ticks, clock = resolved[2], self.ticks, time.perf_counter

        def wrapper(*args, **kwargs):
            ticks.append(clock())
            return fn(*args, **kwargs)
        self._patches = patch_everywhere(*resolved, wrapper)

    def remove(self):
        unpatch(self._patches)


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def timed(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _lookup(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            types = fn(*args, **kwargs)
            counts["kg.lookup_calls"] += 1
            counts["kg.lookup_hits"] += bool(types)
            return types
        return wrapper

    def _taping(self, encode, backward, tape_size):
        counts = self.counts

        def encode_wrapper(store, vocab, tokens, *args, **kwargs):
            before = tape_size()
            out = encode(store, vocab, tokens, *args, **kwargs)
            if tape_size() > before:
                counts["taped_tokens"] += len(tokens)
            return out

        def backward_wrapper(*args, **kwargs):
            counts["tape_entries"] += tape_size()
            return backward(*args, **kwargs)
        return encode_wrapper, backward_wrapper

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, original, wrapper):
        self._patches += patch_everywhere(owner, attr, original, wrapper)

    def install(self):
        resolved = {metric: _resolve(module, path)
                    for metric, (module, path) in {**SPANS, **COUNTS}.items()}
        self.absent = sorted(m for m, r in resolved.items() if r is None)

        # Counting wrappers sit inside the span wrappers, so patch them first.
        expand = resolved["kg.expand_acronym_calls"]
        if expand:
            self._patch(*expand, self._counted("kg.expand_acronym_calls", expand[2]))
        lookup = resolved["kg.lookup_calls"]
        if lookup:
            self._patch(*lookup, self._lookup(lookup[2]))
        tape = resolved["autodiff.tape_entries_per_token"]
        encode = _resolve("encoder", "encode")
        backward = _resolve("autodiff", "backward")
        if tape and encode and backward:
            enc_w, back_w = self._taping(encode[2], backward[2], tape[2])
            self._patch(*encode, enc_w)
            self._patch(*backward, back_w)
        elif tape:
            self.absent.append("autodiff.tape_entries_per_token")
        for metric, (module, path) in SPANS.items():
            if resolved[metric]:
                owner, attr, _ = resolved[metric]
                current = getattr(owner, attr)
                self._patch(owner, attr, current, self.timed(metric, current))

    def remove(self):
        unpatch(self._patches)

    # ------------------------------------------------------------- results

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric: span self times, counters per operation.

        A layer that was never called, or is absent, reads 0.
        """
        selfs = self.self_times()
        c = self.counts
        values = {m: selfs.get(m, 0.0) for m in SPANS}
        values["kg.expand_acronym_calls"] = c["kg.expand_acronym_calls"] / ops
        values["kg.lookup_calls"] = c["kg.lookup_calls"] / ops
        values["kg.lookup_hit_ratio"] = (
            c["kg.lookup_hits"] / c["kg.lookup_calls"] if c["kg.lookup_calls"] else 0.0)
        values["autodiff.tape_entries_per_token"] = (
            c["tape_entries"] / c["taped_tokens"] if c["taped_tokens"] else 0.0)
        return values
