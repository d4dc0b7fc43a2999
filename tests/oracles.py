"""Reference implementations that the tests hold the package against.

Each is plain Python written for clarity, not speed: the case-file reader
that validates a record field by field, the expert's score of every disease
in KB order and of one disease, the list softmax, a disease's clinical walk
order, the KL loss, the model's log-probabilities and ranking of one case,
and row sums added one item at a time. `float64_parameters` builds the
float64 model these float64 oracles hold the package to.
"""
import json
import math

import numpy as np

from ddxkit import expert
from ddxkit.data import CaseFormatError, CaseSet, normalize_ddx
from ddxkit.kb import KnowledgeBase, check_object, scoring_tables
from ddxkit.model import ModelInput, ModelParameters, bag, disease_log_probs, init_parameters, pooled_embedding
from ddxkit.simulate import CASE_SOURCES, ClinicalCase


def reference_case_from_dict(doc: dict, where: str) -> ClinicalCase:
    """One decoded case record: shape checks, then normalize_ddx, then the case."""
    allowed = {"id": str, "pos": list, "neg": list, "ddx": list, "source": str, "seed_disease": str}
    errors = check_object(doc, allowed, {"id", "pos", "neg", "ddx", "source"}, where)
    if not errors:
        for key in ("pos", "neg"):
            if not all(isinstance(f, str) for f in doc[key]):
                errors.append(f"{where}: {key} must contain finding ids")
            elif len(set(doc[key])) != len(doc[key]):
                dup = min(f for f in doc[key] if doc[key].count(f) > 1)
                errors.append(f"{where}: {key} repeats finding id {dup!r}")
        for i, entry in enumerate(doc["ddx"]):
            if not isinstance(entry, dict) or set(entry) != {"disease", "p"}:
                errors.append(f"{where}: ddx[{i}] must be an object with fields 'disease' and 'p'")
            elif not isinstance(entry["disease"], str) or type(entry["p"]) not in (int, float):
                errors.append(f"{where}: ddx[{i}] needs a string 'disease' and a number 'p' (not a bool)")
    if errors:
        raise CaseFormatError(errors[0])
    try:
        weights = [(entry["disease"], float(entry["p"])) for entry in doc["ddx"]]
    except OverflowError:
        raise CaseFormatError(f"{where}: a ddx 'p' is too large for a float") from None
    if doc["source"] not in CASE_SOURCES:
        raise CaseFormatError(f"{where}: source must be one of {CASE_SOURCES}")
    try:
        ddx = normalize_ddx(weights)
        return ClinicalCase(
            id=doc["id"],
            pos=frozenset(doc["pos"]),
            neg=frozenset(doc["neg"]),
            ddx=ddx,
            source=doc["source"],
            seed_disease=doc.get("seed_disease"),
        )
    except ValueError as e:
        raise CaseFormatError(f"{where}: {e}") from None


def reference_read_cases(text: str, provenance: str = "<string>") -> CaseSet:
    """A line-delimited case document, each record through reference_case_from_dict."""
    cases = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{provenance}:{lineno}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise CaseFormatError(f"{where}: parse error at column {e.colno}: {e.msg}") from None
        except ValueError as e:
            raise CaseFormatError(f"{where}: parse error: {e}") from None
        case = reference_case_from_dict(doc, where)
        first = first_line.setdefault(case.id, lineno)
        if first != lineno:
            raise CaseFormatError(f"{where}: duplicate case id {case.id!r} (first on line {first})")
        cases.append(case)
    return CaseSet(cases=tuple(cases), provenance=(provenance,))


def score_all_diseases(kb: KnowledgeBase, pos, neg) -> np.ndarray:
    """Raw expert score of every disease, in kb.diseases order.

    One table row is added per finding, sorted positives then sorted
    negatives, starting from 0.0: each entry is the same float sum the
    scoring rule in ddxkit.expert spells out. Excluded diseases score -inf.
    The row sum is expert._row_scores, looked up at each call, so a test
    that monkeypatches it feeds this reference too.
    """
    tables = scoring_tables(kb)
    column = {did: c for c, did in enumerate(tables.disease_ids.tolist())}
    return expert._row_scores(tables, pos, neg)[[column[d.id] for d in kb.diseases]]


def score_disease(kb: KnowledgeBase, disease_id: str, pos, neg) -> float:
    """Raw expert score of one disease; -inf when a demographic excludes it."""
    if not kb.has_disease(disease_id):
        raise KeyError(f"unknown disease id: {disease_id!r}")
    column = next(c for c, d in enumerate(kb.diseases) if d.id == disease_id)
    return float(score_all_diseases(kb, pos, neg)[column])


def softmax_normalize(scores: list[float]) -> list[float]:
    """Softmax with -inf mapping to probability 0; needs one finite score."""
    if not scores:
        raise ValueError("no scores to normalize")
    for s in scores:
        if math.isnan(s) or s == math.inf:
            raise ValueError(f"scores must be finite or -inf, got {s}")
    finite = [s for s in scores if s != -math.inf]
    if not finite:
        raise ValueError("all scores are -inf")
    m = max(finite)
    weights = [0.0 if s == -math.inf else math.exp(s - m) for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


def sorted_findings(kb: KnowledgeBase, disease_id: str) -> list[str]:
    """The clinical walk of a disease as compiled in the KB's scoring tables:
    finding ids with FREQ(d, f) > 0, by descending frequency, ties by id."""
    if not kb.has_disease(disease_id):
        raise KeyError(f"unknown disease id: {disease_id!r}")
    return [fid for fid, _, _ in scoring_tables(kb).walks[disease_id][1]]


def kl_loss(target: np.ndarray, logprobs: np.ndarray) -> float:
    """KL divergence from the model to the target, sum over target support.

    `target` is a dense probability vector aligned to the vocabulary's
    disease indices; zero-probability entries contribute nothing.
    """
    target = np.asarray(target, dtype=float)
    support = target > 0.0
    t = target[support]
    return float(np.sum(t * (np.log(t) - logprobs[support])))


def float64_parameters(vocab, dim: int, seed: int, kb=None) -> ModelParameters:
    """init_parameters in float64: its uniform draws before their cast to
    float32, and its demographic masks."""
    p = init_parameters(vocab, dim=dim, seed=seed, kb=kb)
    rng = np.random.default_rng(seed)
    drawn = {  # in init_parameters' draw order
        name: rng.uniform(-0.05, 0.05, size=getattr(p, name).shape)
        for name in ("finding_embeddings", "projection", "bias")
    }
    return ModelParameters(**drawn, demographic_embeddings=p.demographic_embeddings.astype(np.float64), vocab=vocab)


def reference_log_probs(p: ModelParameters, x: ModelInput) -> np.ndarray:
    """The model's log-probability vector for one case: a batch of one,
    projected with the plain (1, D) @ (D, L) product."""
    bags = bag([x])
    return disease_log_probs(p, bags, pooled_embedding(p, bags))[0]


def reference_ranking(p: ModelParameters, x: ModelInput) -> list[tuple[str, float]]:
    """Every disease of one case by descending probability, ties by ascending id."""
    probs = np.exp(reference_log_probs(p, x)).tolist()
    return sorted(zip(p.vocab.diseases, probs), key=lambda entry: (-entry[1], entry[0]))


def reference_row_sums(ids, values: np.ndarray, n: int) -> np.ndarray:
    """(n, width) sums of values[i] into row ids[i], one item after another
    from 0.0, so each row adds its terms in item order."""
    out = np.zeros((n, values.shape[1]), dtype=values.dtype)
    for i, row in enumerate(ids):
        out[row] += values[i]
    return out
