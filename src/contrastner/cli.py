"""Command-line pipeline: stats, train-wcl, train-ner, predict, correct, eval.

Exit codes: 0 success, 1 configuration or usage problem, 2 malformed or
missing data. Every subcommand that writes an output file also writes a
<out>.manifest of key=value lines echoing the effective configuration.
A key=value config file can seed any subcommand; explicit flags win.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from . import contrast, corpus, encoder, evaluation, kg, tagger
from .corpus import CONLL2003_TYPES, DataError
from .params import ParamStore, load_params, save_params


class ConfigError(ValueError):
    pass


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _TRUE | _FALSE:
        raise argparse.ArgumentTypeError(f"expected a boolean, got {raw!r}")
    return raw.lower() in _TRUE


# a boolean flag: bare means True, --flag=yes|no sets it either way
_SWITCH = dict(type=_boolean, nargs="?", const=True, default=False, metavar="BOOL")


def _at_least(low: int):
    """argparse type of an integer flag >= low, checked before any input is read."""
    def parse(raw: str) -> int:
        if (value := int(raw)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


_SIZE, _SEED = _at_least(1), _at_least(0)


def _add_common(p: argparse.ArgumentParser, out_required: bool = False):
    p.add_argument("--config", help="key=value file of flag defaults")
    p.add_argument("--out", required=out_required, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrastner",
        description="contrastive NER pipeline: train, tag, correct, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics per split")
    p.add_argument("--train")
    p.add_argument("--dev")
    p.add_argument("--test")
    _add_common(p)

    p = sub.add_parser("train-wcl", help="contrastive encoder fine-tuning")
    p.add_argument("--pairs", required=True, help="TSV of sentence<TAB>positive")
    wcl = contrast.WclConfig
    p.add_argument("--tau", type=float, default=wcl.temperature)
    p.add_argument("--queue", type=int, default=wcl.queue_size)
    p.add_argument("--epochs", type=int, default=wcl.epochs)
    p.add_argument("--lr", type=float, default=wcl.lr)
    p.add_argument("--momentum", type=float, default=wcl.momentum,
                   help="key <- m*key + (1-m)*query; 1 keeps the key, 0 copies the query")
    p.add_argument("--types", default=",".join(CONLL2003_TYPES),
                   help="comma-separated entity types (head width)")
    p.add_argument("--emb", type=_SIZE, default=64)
    p.add_argument("--enc-hidden", type=_SIZE, default=64)
    p.add_argument("--seed", type=_SEED, default=wcl.seed)
    _add_common(p, out_required=True)

    p = sub.add_parser("train-ner", help="train the BiLSTM-CRF tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--encoder", help="warm-start from a train-wcl checkpoint")
    p.add_argument("--epochs", type=int, default=tagger.NerConfig.epochs)
    p.add_argument("--lr", type=float, default=tagger.NerConfig.lr)
    p.add_argument("--hidden", type=_SIZE, default=64)
    p.add_argument("--emb", type=_SIZE, default=64)
    p.add_argument("--enc-hidden", type=_SIZE, default=64)
    p.add_argument("--types", default=",".join(CONLL2003_TYPES))
    p.add_argument("--strict", **_SWITCH,
                   help="forbid illegal BIO transitions in the CRF")
    p.add_argument("--freeze-encoder", **_SWITCH)
    p.add_argument("--seed", type=_SEED, default=tagger.NerConfig.seed)
    _add_common(p, out_required=True)

    p = sub.add_parser("predict", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--strict", **_SWITCH)
    _add_common(p, out_required=True)

    p = sub.add_parser("correct", help="knowledge-graph post-correction")
    p.add_argument("--pred", required=True, help="predictions to correct")
    p.add_argument("--kg", help="snapshot TSV of surface<TAB>type")
    p.add_argument("--kg-endpoint", help="remote lookup URL ({q} substituted)")
    p.add_argument("--kg-cache", help="on-disk cache for remote lookups")
    p.add_argument("--typemap", help="TSV of kg-type<TAB>dataset-type")
    p.add_argument("--l-max", type=_SIZE, default=kg.DEFAULT_L_MAX)
    _add_common(p, out_required=True)

    p = sub.add_parser("eval", help="exact-match span evaluation")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    _add_common(p)
    return parser


def _config_flags(path) -> list:
    """One --key=value flag per key=value line of a config file."""
    flags = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        flag = "--" + key.strip().replace("_", "-")
        # argparse would match a prefix such as --conf to --config too
        if "--config".startswith(flag):
            raise ConfigError(f"{path}:{lineno}: a config file cannot set --config")
        flags.append(f"{flag}={value.strip()}")
    return flags


def _check_out(out):
    """DataError unless a given --out names a file in an existing directory,
    so that a bad output path ends the run before any work."""
    if out is None:
        return
    if not out:
        raise DataError("--out is empty")
    if os.path.isdir(out):
        raise DataError("--out is a directory", path=out)
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise DataError("--out lies in no existing directory", path=out)


def _write_manifest(out_path, ns: argparse.Namespace, extra=None, elapsed=None):
    lines = [f"version={__version__}"]
    for key in sorted(vars(ns)):
        value = getattr(ns, key)
        if key == "config" or value is None:
            continue
        lines.append(f"{key}={value}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key}={value}")
    if elapsed is not None:
        lines.append(f"elapsed_seconds={elapsed:.3f}")
    with open(str(out_path) + ".manifest", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _types_list(ns) -> list:
    types = [t for t in ns.types.split(",") if t]
    if not types:
        raise ConfigError("--types must name at least one entity type")
    if repeated := sorted({t for t in types if types.count(t) > 1}):
        raise ConfigError(f"--types repeats {', '.join(repeated)}")
    try:
        corpus.validate_tags(["B-" + t for t in types])
    except ValueError as e:
        raise ConfigError(f"--types: {e}") from None
    return types


def _sidecar_vocab(model_path) -> encoder.Vocab:
    try:
        return encoder.Vocab.load(str(model_path) + ".vocab")
    except FileNotFoundError:
        raise DataError("missing vocab sidecar", path=str(model_path) + ".vocab") from None


def _cmd_stats(ns) -> int:
    splits = [(name, getattr(ns, name)) for name in ("train", "dev", "test")
              if getattr(ns, name)]
    if not splits:
        raise ConfigError("stats needs at least one of --train/--dev/--test")
    lines = []
    for name, path in splits:
        stats = corpus.corpus_stats(corpus.parse_conll(path, strict=True))
        parts = [f"[{name}]",
                 f"sentences={stats['sentences']}",
                 f"tokens={stats['tokens']}",
                 f"entities={stats['entities']}"]
        parts += [f"{t}={n}" for t, n in stats["per_type"].items()]
        lines.append(" ".join(parts))
    return _report(ns, "\n".join(lines) + "\n")


def _report(ns, text: str) -> int:
    """Print a report, and write it with a manifest to --out if given."""
    sys.stdout.write(text)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as f:
            f.write(text)
        _write_manifest(ns.out, ns)
    return 0


def _save_model(ns, store: ParamStore, vocab: encoder.Vocab, log):
    """Write the checkpoint and its .vocab sidecar, then print the epoch losses."""
    save_params(store, ns.out)
    vocab.save(str(ns.out) + ".vocab")
    for epoch, loss in enumerate(log.epoch_losses, 1):
        print(f"epoch {epoch} mean_loss={loss:.6f}")


def _cmd_train_wcl(ns) -> int:
    config = contrast.WclConfig(
        temperature=ns.tau, queue_size=ns.queue, epochs=ns.epochs, lr=ns.lr,
        seed=ns.seed, momentum=ns.momentum)
    config.validate()
    types = _types_list(ns)
    pairs = corpus.load_pairs(ns.pairs)
    if not pairs:
        raise DataError("no pairs", path=ns.pairs)
    vocab = encoder.Vocab.from_sentences(
        [p.sentence for p in pairs] + [p.positive for p in pairs])
    rng = np.random.default_rng(ns.seed)
    store = ParamStore()
    encoder.init_encoder(store, "enc.", len(vocab), ns.emb, ns.enc_hidden, rng)
    contrast.init_head(store, encoder.output_dim(store), len(types), rng)
    key = encoder.init_key_from_query(store)
    started = time.perf_counter()
    log = contrast.train_wcl(pairs, vocab, store, key, config)
    elapsed = time.perf_counter() - started
    _save_model(ns, store, vocab, log)
    _write_manifest(ns.out, ns, {"pairs_count": len(pairs), "steps": log.steps},
                    elapsed)
    return 0


def _cmd_train_ner(ns) -> int:
    config = tagger.NerConfig(epochs=ns.epochs, lr=ns.lr, seed=ns.seed, strict=ns.strict)
    config.validate()
    types = _types_list(ns)
    tag_list = tagger.bio_tag_list(types)
    train_sents = corpus.parse_conll(ns.train, strict=True, types=types)
    if not train_sents:
        raise DataError("no sentences", path=ns.train)
    rng = np.random.default_rng(ns.seed)
    if ns.encoder:
        store = load_params(ns.encoder).subset("enc.")
        vocab = _sidecar_vocab(ns.encoder)
        _check_params(store, _encoder_shapes(store, len(vocab)), ns.encoder)
        # the manifest echoes the widths the checkpoint brings, not the flags
        ns.emb, ns.enc_hidden = _width(store, "enc.embed"), _width(store, "enc.fwd.w_h")
    else:
        store = ParamStore()
        vocab = encoder.Vocab.from_sentences(s.tokens for s in train_sents)
        encoder.init_encoder(store, "enc.", len(vocab), ns.emb, ns.enc_hidden, rng)
    if ns.freeze_encoder:
        for t in store.subset("enc.").tensors():
            t.requires_grad = False  # keeps encoder ops off the tape entirely
    tagger.init_tagger(store, encoder.output_dim(store), ns.hidden, len(tag_list), rng)
    started = time.perf_counter()
    log = tagger.train_ner(train_sents, vocab, store, tag_list, config)
    elapsed = time.perf_counter() - started
    _save_model(ns, store, vocab, log)
    with open(str(ns.out) + ".tags", "w", encoding="utf-8") as f:
        f.write("\n".join(tag_list) + "\n")
    extra = {"train_sentences": len(train_sents), "steps": log.steps}
    if ns.dev:
        dev_sents = corpus.parse_conll(ns.dev, strict=True, types=types)
        pred = tagger.predict(dev_sents, vocab, store, tag_list, ns.strict)
        report = evaluation.prf(evaluation.count_matches(dev_sents, pred))
        print(f"dev f1={report.f1:.4f}")
        extra["dev_f1"] = repr(report.f1)
    _write_manifest(ns.out, ns, extra, elapsed)
    return 0


def _load_tag_list(model_path) -> list:
    path = str(model_path) + ".tags"
    try:
        with open(path, encoding="utf-8") as f:
            tags = [line.strip() for line in f if line.strip()]
    except FileNotFoundError:
        raise DataError("missing tags sidecar", path=path) from None
    if not tags:
        raise DataError("empty tags sidecar", path=path)
    try:
        corpus.validate_tags(tags)
    except ValueError as e:
        raise DataError(str(e), path=path) from None
    if repeated := sorted({t for t in tags if tags.count(t) > 1}):
        raise DataError(f"repeats {', '.join(repeated)}", path=path)
    return tags


def _width(store: ParamStore, name: str) -> int:
    """Columns of a matrix parameter; -1, which no shape matches, for a
    missing or non-matrix one."""
    v = store[name].values if name in store else None
    return v.shape[1] if v is not None and v.ndim == 2 else -1


def _encoder_shapes(store: ParamStore, n_vocab: int) -> dict:
    """The shape of every encoder parameter, from the vocab and the widths
    of enc.embed and enc.fwd.w_h."""
    return encoder.param_shapes(n_vocab, _width(store, "enc.embed"),
                                _width(store, "enc.fwd.w_h"))


def _check_params(store: ParamStore, want: dict, model_path):
    """DataError unless the store holds every wanted parameter in its wanted
    shape, and only finite values."""
    if missing := [name for name in want if name not in store]:
        raise DataError(f"checkpoint lacks {', '.join(missing)}", path=model_path)
    for name, shape in want.items():
        if store[name].values.shape != shape:
            raise DataError(f"{name} has shape {store[name].values.shape}, "
                            f"expected {shape}", path=model_path)
    for name, t in store.items():
        if not np.isfinite(t.values).all():
            raise DataError(f"{name} holds a non-finite value", path=model_path)


def _check_tagger(store: ParamStore, n_vocab: int, n_tags: int, model_path):
    """DataError unless the checkpoint holds every parameter predict reads,
    in shapes that agree with each other and with the sidecars, and holds
    only finite values."""
    trans = store["crf.trans"].values if "crf.trans" in store else None
    if trans is not None and trans.ndim == 2 and trans.shape[0] != n_tags + 2:
        raise DataError(f"tags sidecar lists {n_tags} tags, checkpoint has "
                        f"{trans.shape[0] - 2}", path=str(model_path) + ".tags")
    enc_h, lstm_h = _width(store, "enc.fwd.w_h"), _width(store, "lstm.f.w_h")
    _check_params(store, _encoder_shapes(store, n_vocab)
                  | tagger.param_shapes(2 * enc_h, lstm_h, n_tags), model_path)


def _cmd_predict(ns) -> int:
    store = load_params(ns.model)
    vocab = _sidecar_vocab(ns.model)
    tag_list = _load_tag_list(ns.model)
    _check_tagger(store, len(vocab), len(tag_list), ns.model)
    sentences = corpus.parse_conll(ns.test)
    started = time.perf_counter()
    pred = tagger.predict(sentences, vocab, store, tag_list, ns.strict)
    elapsed = time.perf_counter() - started
    corpus.write_conll(pred, ns.out)
    _write_manifest(ns.out, ns, {"sentences": len(pred)}, elapsed)
    return 0


def _cmd_correct(ns) -> int:
    if ns.kg_endpoint and not ns.kg_cache:
        raise ConfigError("--kg-endpoint needs --kg-cache")
    pred = corpus.parse_conll(ns.pred, strict=True)
    sources = []
    typemap = kg.TypeMap.load(ns.typemap) if ns.typemap else kg.TypeMap.default_conll()
    snapshot = remote = None
    if ns.kg:
        snapshot = kg.load_snapshot(ns.kg, typemap)
        sources.append(snapshot)
    if ns.kg_endpoint:
        remote = kg.RemoteLookup(ns.kg_endpoint, ns.kg_cache, typemap)
        sources.append(remote)
    started = time.perf_counter()
    source = sources[0] if len(sources) == 1 else kg.ChainedLookup(sources)
    # with no KG the rewrite runs over an empty set and changes no tag
    pe = kg.build_pe(pred, source, ns.l_max) if sources else kg.PotentialEntitySet()
    corrected = kg.modify_entities(pred, pe)
    elapsed = time.perf_counter() - started
    changed = sum(1 for p, c in zip(pred, corrected) if p.tags != c.tags)
    corpus.write_conll(corrected, ns.out)
    extra = {"changed_sentences": changed, "potential_entities": len(pe)}
    if snapshot is not None:
        extra["snapshot_dropped"] = snapshot.dropped
        extra["snapshot_skipped_lines"] = snapshot.skipped_lines
    if remote is not None:
        extra["lookup_warnings"] = remote.warnings
        extra["lookup_network_calls"] = remote.network_calls
    _write_manifest(ns.out, ns, extra, elapsed)
    print(f"changed_sentences={changed}")
    return 0


def _cmd_eval(ns) -> int:
    return _report(ns, evaluation.report_files(ns.gold, ns.pred))


_COMMANDS = {
    "stats": _cmd_stats,
    "train-wcl": _cmd_train_wcl,
    "train-ner": _cmd_train_ner,
    "predict": _cmd_predict,
    "correct": _cmd_correct,
    "eval": _cmd_eval,
}


def run(argv=None) -> int:
    """Each config line becomes a flag right after the subcommand, so one
    parse reads both and explicit flags, read later, win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="contrastner", add_help=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
        if config:
            argv = argv[:1] + _config_flags(config) + argv[1:]
        ns = build_parser().parse_args(argv)
        _check_out(ns.out)
        return _COMMANDS[ns.command](ns)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as e:
        print(f"error: config: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
