"""Contrastive encoder fine-tuning, BiLSTM-CRF tagging, and
knowledge-graph post-correction for named entity recognition."""

__version__ = "0.1.0"

from . import autodiff, contrast, corpus, encoder, evaluation, kg, params, synth, tagger
from .autodiff import Tensor, backward, no_grad
from .contrast import NegativeQueue, WclConfig, info_nce, train_wcl
from .corpus import Span, TaggedSentence, bio_to_spans, iob_to_bio, parse_conll
from .encoder import Vocab
from .evaluation import count_matches, prf, report
from .kg import PotentialEntitySet, build_pe, enumerate_subphrases, expand_acronym, modify_entities
from .params import ParamStore, load_params, save_params, sgd_step
from .tagger import NerConfig, crf_log_partition, crf_nll, predict, train_ner, viterbi
