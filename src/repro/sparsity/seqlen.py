"""Per-dataset sequence-length distributions (dynamic-sequence-length sparsity).

The paper's BERT, OPT, Switch Transformer and training experiments all
exercise the sparsity caused by *varying sequence lengths in a batch*
(Figure 2c): shorter sequences are padded to the batch maximum and the
padding is wasted work.  The real experiments draw lengths from GLUE, IMDB,
Multi-XScience, Multi-News, MNLI and Alpaca.

Offline substitution: each dataset is modeled as a seeded log-normal length
distribution clipped to the dataset's tokenizer limits, parameterized with
published statistics (mean/median token counts of the standard BERT/OPT
tokenizations).  The figures consume only the length *histograms* — padding
ratios and their batch-to-batch variance — which the log-normal family
captures; EXPERIMENTS.md records this substitution.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LengthDistribution:
    """A seeded sequence-length generator for one dataset."""

    name: str
    #: Mean token count (after tokenization).
    mean: float
    #: Log-space standard deviation (spread of the log-normal).
    log_sigma: float
    #: Tokenizer clip boundaries.
    min_len: int
    max_len: int

    def sample(self, batch_size: int, *, seed: int = 0) -> np.ndarray:
        """Sample one batch of lengths.

        The dataset name is folded into the seed with a *stable* hash
        (crc32) so different datasets draw different streams while results
        stay reproducible across processes.
        """
        rng = np.random.default_rng((zlib.crc32(self.name.encode()) ^ seed) & 0x7FFFFFFF)
        mu = math.log(self.mean) - 0.5 * self.log_sigma**2
        raw = rng.lognormal(mu, self.log_sigma, size=batch_size)
        return np.clip(np.round(raw).astype(int), self.min_len, self.max_len)

#: Length statistics per dataset.  GLUE statistics follow the standard BERT
#: uncased tokenization; IMDB/Multi-News/Multi-XScience are long-document
#: corpora; Alpaca lengths include the instruction+response pair.
DATASETS = {
    "mnli": LengthDistribution("mnli", mean=39.0, log_sigma=0.45, min_len=4, max_len=128),
    "mrpc": LengthDistribution("mrpc", mean=53.0, log_sigma=0.25, min_len=8, max_len=128),
    "cola": LengthDistribution("cola", mean=11.0, log_sigma=0.40, min_len=3, max_len=64),
    "rte": LengthDistribution("rte", mean=64.0, log_sigma=0.50, min_len=8, max_len=256),
    "qqp": LengthDistribution("qqp", mean=30.0, log_sigma=0.40, min_len=4, max_len=128),
    "sst2": LengthDistribution("sst2", mean=13.0, log_sigma=0.55, min_len=3, max_len=64),
    "wnli": LengthDistribution("wnli", mean=37.0, log_sigma=0.35, min_len=8, max_len=128),
    "qnli": LengthDistribution("qnli", mean=50.0, log_sigma=0.40, min_len=8, max_len=128),
    "stsb": LengthDistribution("stsb", mean=27.0, log_sigma=0.35, min_len=4, max_len=128),
    "imdb": LengthDistribution("imdb", mean=292.0, log_sigma=0.55, min_len=32, max_len=512),
    "xscience": LengthDistribution("xscience", mean=390.0, log_sigma=0.40, min_len=64, max_len=512),
    "news": LengthDistribution("news", mean=450.0, log_sigma=0.45, min_len=64, max_len=512),
    "alpaca": LengthDistribution("alpaca", mean=270.0, log_sigma=0.55, min_len=16, max_len=512),
    "arxiv": LengthDistribution("arxiv", mean=3100.0, log_sigma=0.45, min_len=512, max_len=4096),
    "lmd": LengthDistribution("lmd", mean=12000.0, log_sigma=0.60, min_len=1024, max_len=32768),
}

#: The GLUE subsets evaluated in Figure 11 (paper order).
GLUE_TASKS = ("mnli", "mrpc", "cola", "rte", "qqp", "sst2", "wnli", "qnli", "stsb")

#: The full Figure 11 dataset list (paper order).
BERT_DATASETS = GLUE_TASKS + ("imdb", "xscience", "news")


def get_dataset(name: str) -> LengthDistribution:
    """Look up a dataset's length distribution by name."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
