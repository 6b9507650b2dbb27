"""Pairwise record-linkage scores.

Over all unordered record pairs: precision is the fraction of hypothesized
same-entity pairs that are truly same-entity, recall the fraction of truly
same-entity pairs that were hypothesized.  Degenerate cases score 1.0 (an
empty hypothesis makes no false claims; no true pairs means nothing was
missed).
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Mapping


def _scores(predicted: int, true: int, tp: int) -> dict[str, float | int]:
    return {
        "pairs_predicted": predicted,
        "pairs_true": true,
        "true_positive": tp,
        "false_positive": predicted - tp,
        "false_negative": true - tp,
        "precision": tp / predicted if predicted else 1.0,
        "recall": tp / true if true else 1.0,
    }


def pairwise_scores(
    clusters: Iterable[Iterable[str]], labels: Mapping[str, str]
) -> dict[str, float | int]:
    """Score a clustering against true labels (label = true entity per record)."""
    true_total = sum(comb(n, 2) for n in Counter(labels.values()).values())
    predicted_total = 0
    tp = 0
    for cluster in clusters:
        members = [m for m in cluster if m in labels]
        predicted_total += comb(len(members), 2)
        per_label = Counter(labels[m] for m in members)
        tp += sum(comb(n, 2) for n in per_label.values())
    return _scores(predicted_total, true_total, tp)


def pair_set_scores(
    predicted: set[frozenset[str]], truth: set[frozenset[str]]
) -> dict[str, float | int]:
    """Score explicit pair sets (used for group hypotheses)."""
    return _scores(len(predicted), len(truth), len(predicted & truth))


def pairs_of(groups: Iterable[Iterable[str]]) -> set[frozenset[str]]:
    out: set[frozenset[str]] = set()
    for g in groups:
        members = sorted(g)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                out.add(frozenset((members[i], members[j])))
    return out
