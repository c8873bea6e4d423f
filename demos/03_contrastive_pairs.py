"""Contrastive fine-tuning on paraphrase pairs with a negative queue.

An anchor sentence and its paraphrase are projected by twin encoders;
the anchor is pulled toward its paraphrase key and pushed away from a
FIFO queue of earlier keys. Gradients flow only through the query side.
The demo trains on the bundled fixture and reports how far apart the
positives and the queued negatives end up.
"""
import argparse

import numpy as np

from contrastner import autodiff as ad
from contrastner import contrast as ct
from contrastner import encoder as enc
from contrastner import synth
from contrastner.params import ParamStore


def mean_similarities(pairs, vocab, query, key, queue):
    qn = queue.as_matrix()
    pos, neg = [], []
    with ad.no_grad():
        for pair in pairs:
            a = ad.normalize(ct.project(
                query, enc.pool(enc.encode(query, vocab, pair.sentence)))).values
            k = ad.normalize(ct.project(
                query, enc.pool(enc.encode(key, vocab, pair.positive)))).values
            pos.append(float(a @ k))
            neg.append(float((qn @ a).mean()))
    return float(np.mean(pos)), float(np.mean(neg))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--queue", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pairs = synth.pairs_fixture(seed=args.seed, n_pairs=args.pairs)
    vocab = enc.Vocab.from_sentences([p.sentence for p in pairs]
                                     + [p.positive for p in pairs])
    store = ParamStore()
    enc.init_encoder(store, "enc.", len(vocab), emb_dim=32, hidden=16,
                     rng=np.random.default_rng(args.seed))
    ct.init_head(store, enc.output_dim(store, "enc."), 4,
                 rng=np.random.default_rng(args.seed + 1))
    key = enc.init_key_from_query(store, "enc.")

    config = ct.WclConfig(epochs=args.epochs, queue_size=args.queue,
                          lr=0.1, seed=args.seed)
    log = ct.train_wcl(pairs, vocab, store, key, config)
    for i, loss in enumerate(log.epoch_losses, 1):
        print(f"epoch {i} mean loss {loss:.4f}")

    pos, neg = mean_similarities(pairs, vocab, store, key, log.queue)
    print(f"mean positive cosine  {pos:+.3f}")
    print(f"mean negative cosine  {neg:+.3f}")
    print(f"separation margin     {pos - neg:+.3f}")


if __name__ == "__main__":
    main()
