"""Shared test fixtures: random-instance generators and independent
oracles (brute-force or rational-arithmetic re-implementations that the
library code is checked against)."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from factbeam import (
    PRF,
    Catalog,
    DecodeConfig,
    EvalPair,
    TokenTrie,
    Triplet,
    build_catalog,
    linearize,
)
from factbeam.decoder import Hypothesis, NoCompleteHypothesis, allowed_tokens
from factbeam.linearize import MentionedTriplet
from factbeam.metrics import RelationScore, ScoreReport, bucket_relations, f1_score
from factbeam.tokens import EOS, ET, OBJ, REL, SUB, Tokenizer

ALPHABET = "abcdefghijklmnopqrstuvwxyz "


# --- random instance generators --------------------------------------------


def rand_names(rng: random.Random, count: int, min_len: int = 1, max_len: int = 6,
               alphabet: str = ALPHABET) -> list[str]:
    """`count` distinct non-blank names."""
    out: set[str] = set()
    while len(out) < count:
        n = rng.randint(min_len, max_len)
        name = "".join(rng.choice(alphabet) for _ in range(n))
        if name.strip():
            out.add(name)
    return sorted(out)


SYLLABLES = [c + v for c in ("b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "th", "br")
             for v in ("a", "e", "i", "o", "u", "ai", "ou")]


def word_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct capitalized names of two or three words, about 20
    bytes each, that share little more than their first syllable: a
    catalog of people and places at scale."""
    out: dict[str, None] = {}
    while len(out) < count:
        words = ("".join(rng.choices(SYLLABLES, k=rng.randint(2, 4))).capitalize()
                 for _ in range(rng.randint(2, 3)))
        out[" ".join(words)] = None
    return list(out)


def catalog_tsv(names: Sequence[str]) -> str:
    """The catalog TSV text of names, ids 0.. in list order."""
    return "".join(f"{i}\t{name}\n" for i, name in enumerate(names))


def rand_catalog(rng: random.Random, max_entities: int, max_relations: int,
                 min_name: int = 1, max_name: int = 6) -> Catalog:
    n_e = rng.randint(1, max_entities)
    n_r = rng.randint(1, max_relations)
    names = rand_names(rng, n_e + n_r, min_name, max_name)
    rng.shuffle(names)
    return build_catalog(names[:n_e], names[n_e:])


def rand_triplet(rng: random.Random, cat: Catalog) -> Triplet:
    return Triplet(
        rng.randrange(cat.num_entities),
        rng.randrange(cat.num_relations),
        rng.randrange(cat.num_entities),
    )


def rand_triplet_set(rng: random.Random, cat: Catalog, max_size: int = 5) -> frozenset[Triplet]:
    return frozenset(rand_triplet(rng, cat) for _ in range(rng.randint(0, max_size)))


def rand_eval_pairs(rng: random.Random, cat: Catalog, n_docs: int,
                    max_size: int = 5, overlap: float = 0.5) -> list[EvalPair]:
    """Pairs whose predictions share roughly `overlap` of the gold set."""
    pairs = []
    for d in range(n_docs):
        gold = rand_triplet_set(rng, cat, max_size)
        kept = frozenset(t for t in gold if rng.random() < overlap)
        pred = kept | rand_triplet_set(rng, cat, max_size)
        pairs.append(EvalPair(f"doc{d}", pred, gold))
    return pairs


# --- trie oracles -----------------------------------------------------------


def oracle_allowed_next(
    names_with_ids: Sequence[tuple[int, str]], tok: Tokenizer, prefix: Sequence[int]
) -> tuple[set[int], int | None] | None:
    """Brute-force prefix filter over the raw name list.

    Returns None when the prefix is not a prefix of any name (it leaves
    the trie), else (continuation tokens, completed id).
    """
    prefix = list(prefix)
    continuations: set[int] = set()
    completed: int | None = None
    hit = False
    for ident, name in names_with_ids:
        enc = tok.encode(name)
        if enc[: len(prefix)] != prefix:
            continue
        hit = True
        if len(enc) > len(prefix):
            continuations.add(enc[len(prefix)])
        else:
            completed = ident
    if not hit:
        return None
    return continuations, completed


class RefTrie(NamedTuple):
    """The preorder layout that `build_trie` made before level order: node
    i's edges tokens[offsets[i]:offsets[i + 1]] lead to the nodes at the
    same positions in targets."""

    offsets: np.ndarray
    tokens: np.ndarray
    targets: np.ndarray
    terminal: np.ndarray

    def child(self, node: int, token: int) -> int | None:
        edges = self.children_of(node)
        return int(self.targets[self.offsets[node] + edges.index(token)]) if token in edges else None

    def children_of(self, node: int) -> list[int]:
        return self.tokens[self.offsets[node] : self.offsets[node + 1]].tolist()


def walk(trie: TokenTrie | RefTrie, prefix: Sequence[int]) -> int | None:
    """The node that prefix leads to from the root, or None when it leaves the trie."""
    node = 0
    for token in prefix:
        node = trie.child(node, token)
        if node is None:
            break
    return node


def ref_build_trie(names_with_ids: Sequence[tuple[int, str]], tok: Tokenizer) -> RefTrie:
    """The per-name preorder build: taken in sorted token order, each name
    adds one node per token past its common prefix with the previous name."""
    names = sorted((tok.encode(name), catalog_id) for catalog_id, name in names_with_ids)
    parents: list[int] = []  # parent of node i + 1
    edge_tokens: list[int] = []  # token on the edge into node i + 1
    terminal_nodes: list[int] = []
    path = [0]  # path[d]: node at depth d of the previous name
    prev: list[int] = []
    for tokens, _ in names:
        common = 0
        for a, b in zip(prev, tokens):
            if a != b:
                break
            common += 1
        del path[common + 1 :]
        for token in tokens[common:]:
            parents.append(path[-1])
            edge_tokens.append(token)
            path.append(len(parents))
        terminal_nodes.append(path[-1])
        prev = tokens
    n = len(parents) + 1
    parent_of = np.array(parents, dtype=np.int64)
    order = np.argsort(parent_of, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent_of, minlength=n), out=offsets[1:])
    terminal = np.full(n, -1, dtype=np.int64)
    terminal[terminal_nodes] = [catalog_id for _, catalog_id in names]
    return RefTrie(offsets, np.array(edge_tokens, dtype=np.int64)[order], order + 1, terminal)


# --- exhaustive decode oracle -------------------------------------------------


class CachingScorer:
    """Memoizes another scorer's rows per (context, prefix).

    Lets the enumeration oracle and the beam share one set of
    distributions without recomputing; determinism is preserved. A row
    put in `cache` beforehand is served in place of the inner scorer's.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.cache: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def row(self, context: str, prefix: Sequence[int]) -> np.ndarray:
        key = (context, tuple(prefix))
        row = self.cache.get(key)
        if row is None:
            row = self.cache[key] = self.inner.next_log_probs(context, [prefix])[0]
        return row

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        return np.array([self.row(context, p) for p in prefixes]).reshape(-1, self.vocab_size)

    def score_sequence(self, context: str, seq: Sequence[int]) -> float:
        total = 0.0
        for i, t in enumerate(seq):
            total += float(self.row(context, seq[:i])[t])
        return total


def all_valid_sequences(
    cat: Catalog, tok: Tokenizer, max_triplets: int, max_len: int,
    allow_empty_set: bool = True,
) -> list[tuple[int, ...]]:
    """Every linearization of at most max_triplets blocks (repeats and
    all block orders included), capped at max_len tokens."""
    blocks = []
    for s, r, o in itertools.product(
        range(cat.num_entities), range(cat.num_relations), range(cat.num_entities)
    ):
        blocks.append(tuple(linearize([Triplet(s, r, o)], cat, tok)[:-1]))  # strip <eos>
    out: list[tuple[int, ...]] = []
    if allow_empty_set:
        out.append(tuple(linearize([], cat, tok)))
    for n in range(1, max_triplets + 1):
        for combo in itertools.product(blocks, repeat=n):
            seq = tuple(itertools.chain.from_iterable(combo)) + (EOS,)
            if len(seq) <= max_len:
                out.append(seq)
    return out


def oracle_best_sequence(
    sequences: Sequence[tuple[int, ...]], scorer: CachingScorer, context: str
) -> tuple[tuple[int, ...], float]:
    """Argmax by (score, lexicographically smaller sequence)."""
    best_seq: tuple[int, ...] | None = None
    best_score = float("-inf")
    for seq in sequences:
        score = scorer.score_sequence(context, seq)
        if score > best_score or (score == best_score and (best_seq is None or seq < best_seq)):
            best_seq, best_score = seq, score
    assert best_seq is not None
    return best_seq, best_score


# --- object-based beam reference ---------------------------------------------
# The beam step as it was before it became array code: one Hypothesis per
# allowed token and a full sort of the pool. The array step must give equal
# (not merely close) hypotheses.


def _ref_extend(h: Hypothesis, token: int, lp: float, tries) -> Hypothesis:
    entity_trie, relation_trie = tries
    tokens = h.tokens + (token,)
    log_prob = h.log_prob + lp
    if token == SUB:
        return Hypothesis(tokens, log_prob, SUB, entity_trie.ROOT, h.n_triplets)
    if token == REL:
        return Hypothesis(tokens, log_prob, REL, relation_trie.ROOT, h.n_triplets)
    if token == OBJ:
        return Hypothesis(tokens, log_prob, OBJ, entity_trie.ROOT, h.n_triplets)
    if token == ET:
        return Hypothesis(tokens, log_prob, ET, None, h.n_triplets + 1)
    if token == EOS:
        return Hypothesis(tokens, log_prob, EOS, None, h.n_triplets)
    trie = relation_trie if h.marker == REL else entity_trie
    return Hypothesis(tokens, log_prob, h.marker, trie.child(h.cursor, token), h.n_triplets)


def ref_beam_search(text: str, scorer, tries, cfg: DecodeConfig) -> list[Hypothesis]:
    """Finished hypotheses, best first, by (-score, tokens)."""
    k = cfg.beam_size

    def sort_key(h: Hypothesis) -> tuple[float, tuple[int, ...]]:
        return (-h.score(cfg.length_alpha), h.tokens)

    live: list[Hypothesis] = [Hypothesis()]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_len):
        if not live:
            break
        pool = list(finished)
        for h in live:
            allowed = allowed_tokens(h, tries, cfg)
            if not allowed:
                continue
            log_probs = scorer.next_log_probs(text, [h.tokens])[0]
            for t in sorted(allowed):
                pool.append(_ref_extend(h, t, float(log_probs[t]), tries))
        pool.sort(key=sort_key)
        kept = pool[:k]
        finished = [h for h in kept if h.marker == EOS]
        live = [h for h in kept if h.marker != EOS]
    if not finished:
        best = min(live, key=sort_key) if live else None
        raise NoCompleteHypothesis(f"no sequence finished within max_len={cfg.max_len}", best)
    return sorted(finished, key=sort_key)


# --- dict-count n-gram reference ----------------------------------------------


class RefNGram:
    """The n-gram model as a dict of dense count rows, one per seen history,
    filled token by token; the array model must give bit-identical rows."""

    def __init__(self, corpus: Sequence[Sequence[int]], n: int, tok: Tokenizer) -> None:
        self.n = n
        self.tok = tok
        self.vocab_size = tok.vocab_size
        self.counts: dict[tuple[int, ...], np.ndarray] = {}
        self.totals: dict[tuple[int, ...], int] = {}
        for seq in corpus:
            for i, t in enumerate(seq):
                for m in range(min(n - 1, i) + 1):
                    hist = tuple(seq[i - m : i])
                    if hist not in self.counts:
                        self.counts[hist] = np.zeros(self.vocab_size, dtype=np.int64)
                    self.counts[hist][t] += 1
                    self.totals[hist] = self.totals.get(hist, 0) + 1

    def next_log_probs(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        out = np.empty((len(prefixes), self.vocab_size))
        for i, prefix in enumerate(prefixes):
            full = self.tok.encode(context) + list(prefix)
            m = min(self.n - 1, len(full))
            hist = tuple(full[len(full) - m :])
            counts = self.counts.get(hist, np.zeros(self.vocab_size, dtype=np.int64))
            out[i] = np.log(counts + 1.0) - math.log(self.totals.get(hist, 0) + self.vocab_size)
        return out


# --- metric oracles (exact rational arithmetic) ------------------------------


def oracle_micro(pairs: Sequence[EvalPair]) -> tuple[Fraction, Fraction, Fraction]:
    num = sum(len(p.predicted & p.gold) for p in pairs)
    n_pred = sum(len(p.predicted) for p in pairs)
    n_gold = sum(len(p.gold) for p in pairs)
    p = Fraction(num, n_pred) if n_pred else Fraction(0)
    r = Fraction(num, n_gold) if n_gold else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f1


def oracle_per_relation(pairs: Sequence[EvalPair]) -> dict[int, tuple[Fraction, Fraction, Fraction]]:
    rels = {t.relation for p in pairs for t in p.predicted | p.gold}
    out = {}
    for rel in rels:
        sub = [
            EvalPair(
                p.doc_id,
                frozenset(t for t in p.predicted if t.relation == rel),
                frozenset(t for t in p.gold if t.relation == rel),
            )
            for p in pairs
        ]
        out[rel] = oracle_micro(sub)
    return out


def oracle_macro(pairs: Sequence[EvalPair]) -> tuple[Fraction, Fraction, Fraction]:
    per_rel = oracle_per_relation(pairs)
    if not per_rel:
        return Fraction(0), Fraction(0), Fraction(0)
    p = sum(v[0] for v in per_rel.values()) / len(per_rel)
    r = sum(v[1] for v in per_rel.values()) / len(per_rel)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f1


# --- dict-loop reference for the array evaluation core ------------------------
# The per-document counts and their reductions as plain Python loops over
# ints; the array code must give equal (not merely close) results.


def ref_relation_counts(pair: EvalPair) -> tuple[tuple[int, int, int, int], ...]:
    """(relation, correct, n_pred, n_gold) per relation in the document."""
    counts: dict[int, list[int]] = {}
    for column, triplets in enumerate((pair.predicted & pair.gold, pair.predicted, pair.gold)):
        for t in triplets:
            counts.setdefault(t.relation, [0, 0, 0])[column] += 1
    return tuple((rel, *row) for rel, row in sorted(counts.items()))


def _relation_totals(pairs: Sequence[EvalPair]) -> dict[int, list[int]]:
    """relation -> [correct, n_pred, n_gold] summed over the documents."""
    totals: dict[int, list[int]] = {}
    for pair in pairs:
        for rel, correct, n_pred, n_gold in ref_relation_counts(pair):
            row = totals.setdefault(rel, [0, 0, 0])
            row[0] += correct
            row[1] += n_pred
            row[2] += n_gold
    return totals


def _prf(correct: int, n_pred: int, n_gold: int) -> PRF:
    flags = set()
    if n_pred == 0:
        flags.add("no_predictions")
    if n_gold == 0:
        flags.add("no_gold")
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    return PRF(p, r, f1_score(p, r), frozenset(flags))


def ref_micro_scores(pairs: Sequence[EvalPair]) -> PRF:
    rows = _relation_totals(pairs).values()
    return _prf(*(sum(row[i] for row in rows) for i in range(3)))


def ref_per_relation_scores(pairs: Sequence[EvalPair], cat: Catalog) -> dict[int, RelationScore]:
    out: dict[int, RelationScore] = {}
    for rel, (correct, n_pred, n_gold) in sorted(_relation_totals(pairs).items()):
        cat.relation_name(rel)  # KeyError on ungrounded relation id
        prf = _prf(correct, n_pred, n_gold)
        out[rel] = RelationScore(prf.p, prf.r, prf.f1, n_gold, prf.flags)
    return out


def _macro(per_rel: Mapping[int, RelationScore], zero_denominator: str) -> PRF:
    if not per_rel:
        return PRF(0.0, 0.0, 0.0, frozenset({"no_relations"}))
    if zero_denominator == "zero":
        ps = [s.p for s in per_rel.values()]
        rs = [s.r for s in per_rel.values()]
    else:
        ps = [s.p for s in per_rel.values() if "no_predictions" not in s.flags]
        rs = [s.r for s in per_rel.values() if "no_gold" not in s.flags]
    flags = set()
    if any("no_predictions" in s.flags for s in per_rel.values()):
        flags.add("zero_prediction_relations")
    p = sum(ps) / len(ps) if ps else 0.0
    r = sum(rs) / len(rs) if rs else 0.0
    return PRF(p, r, f1_score(p, r), frozenset(flags))


def ref_macro_scores(pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero") -> PRF:
    return _macro(ref_per_relation_scores(pairs, cat), zero_denominator)


def ref_score_report(pairs: Sequence[EvalPair], cat: Catalog, zero_denominator: str = "zero") -> ScoreReport:
    per_rel = ref_per_relation_scores(pairs, cat)
    return ScoreReport(ref_micro_scores(pairs), _macro(per_rel, zero_denominator), per_rel)


def ref_bucketed_f1(
    pairs: Sequence[EvalPair], occurrence_counts: Mapping[int, int]
) -> dict[int, tuple[float, int]]:
    bucket_of = bucket_relations(occurrence_counts)
    histogram = Counter(bucket_of.values())
    sums: dict[int, list[int]] = {}
    for rel, row in _relation_totals(pairs).items():
        acc = sums.setdefault(bucket_of.get(rel, -1), [0, 0, 0])
        for i in range(3):
            acc[i] += row[i]
    return {bucket: (_prf(*sums[bucket]).f1, histogram[bucket]) for bucket in sorted(sums)}


def ref_recall_error(pairs: Sequence[EvalPair]) -> float:
    missed = total = 0
    for pair in pairs:
        for _, correct, _, n_gold in ref_relation_counts(pair):
            missed += n_gold - correct
            total += n_gold
    return missed / total if total else 0.0


def ref_bootstrap_ci(
    pairs: Sequence[EvalPair],
    statistic: Callable[[Sequence[EvalPair]], float],
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """The bootstrap as a loop that hands the statistic a fresh list of
    the drawn pairs per resample, drawn as `bootstrap_ci` draws."""
    rng = np.random.default_rng(seed)
    n = len(pairs)
    values = np.empty(B)
    for b in range(B):
        idx = rng.integers(0, n, size=n)
        values[b] = statistic([pairs[i] for i in idx.tolist()])
    lo, hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    return float(np.quantile(values, lo)), float(np.quantile(values, hi))


# --- mention-order reference -------------------------------------------------


def ref_span_sort_key(item: Triplet | MentionedTriplet) -> tuple[int, ...]:
    """`order_triplets`' key spelled out field by field: spanned subjects
    first by start, then object span presence and start, then ids."""
    mt = item if isinstance(item, MentionedTriplet) else MentionedTriplet(item)
    sub_span, obj_span = mt.subject_span, mt.object_span
    t = mt.triplet
    return (
        0 if sub_span is not None else 1,
        sub_span[0] if sub_span is not None else 0,
        0 if obj_span is not None else 1,
        obj_span[0] if obj_span is not None else 0,
        t.subject,
        t.relation,
        t.object,
    )


# --- attribution oracles ------------------------------------------------------

# independent weight table keyed by (subject equal, object equal, relation equal)
ORACLE_WEIGHTS = {
    (True, True, True): 1,
    (True, False, True): 2,
    (False, True, True): 2,
    (True, True, False): 3,
    (True, False, False): 4,
    (False, True, False): 4,
    (False, False, True): 5,
    (False, False, False): 6,
}


def oracle_edge_weight(gold: Triplet, pred: Triplet) -> int:
    return ORACLE_WEIGHTS[
        (gold.subject == pred.subject, gold.object == pred.object, gold.relation == pred.relation)
    ]


def oracle_match(gold: frozenset[Triplet], pred: frozenset[Triplet]) -> dict[Triplet, tuple[Triplet | None, int]]:
    """Greedy matcher re-implemented with repeated linear scans."""
    key = lambda t: (t.subject, t.relation, t.object)
    remaining_gold = sorted(gold, key=key)
    remaining_pred = sorted(pred, key=key)
    out: dict[Triplet, tuple[Triplet | None, int]] = {}
    while remaining_gold and remaining_pred:
        best = None
        for g in remaining_gold:
            for p in remaining_pred:
                cand = (oracle_edge_weight(g, p), key(g), key(p), g, p)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        w, _, _, g, p = best
        out[g] = (p, w)
        remaining_gold.remove(g)
        remaining_pred.remove(p)
    for g in remaining_gold:
        out[g] = (None, 6)
    return out


def mentioned(s: int, r: int, o: int, ss=None, os_=None) -> MentionedTriplet:
    return MentionedTriplet(
        Triplet(s, r, o),
        tuple(ss) if ss is not None else None,
        tuple(os_) if os_ is not None else None,
    )


def spanned_set(rng: random.Random, cat: Catalog, max_size: int = 4,
                text_len: int = 200) -> list[MentionedTriplet]:
    """Random triplets with random non-degenerate mention spans."""
    out = []
    for _ in range(rng.randint(0, max_size)):
        t = rand_triplet(rng, cat)
        spans = []
        for _ in range(2):
            start = rng.randrange(text_len - 2)
            spans.append((start, start + rng.randint(1, 10)))
        out.append(MentionedTriplet(t, spans[0], spans[1]))
    return out


def weights_one_to_six_pairs() -> list[EvalPair]:
    """One document whose greedy matching hits each weight 1..6 exactly once.

    Disjoint id namespaces per (gold, pred) pair push every cross-pair
    edge to weight 6, so the matcher stays on the diagonal.
    """
    gold, pred = [], []
    specs = [
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b, r, b + 1)),           # 1
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b, r, b + 2)),           # 2
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b, 90 + r, b + 1)),      # 3
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b, 90 + r, b + 2)),      # 4
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b + 2, r, b + 3)),       # 5
        lambda b, r: (Triplet(b, r, b + 1), Triplet(b + 2, 90 + r, b + 3)),  # 6
    ]
    for i, spec in enumerate(specs):
        g, p = spec(10 * (i + 1), i)
        gold.append(g)
        pred.append(p)
    return [EvalPair("fixture", frozenset(pred), frozenset(gold))]
