import math
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ddxkit.kb import CLINICAL, DEMOGRAPHIC, Disease, Finding, KnowledgeBase


SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env() -> dict[str, str]:
    """Environment for a `python -m ddxkit` child run from any directory.

    A relative PYTHONPATH entry such as `src` does not resolve from a test's
    tmp_path, so the absolute source path goes first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# What a parser must reject rather than crash on: JSON null, bools, floats
# (NaN and infinities too), short text, lists, and integers, including ones
# too large for a float. Text draws from a fixed alphabet: the full Unicode
# one makes Hypothesis build a character map on first use, which on a fresh
# checkout takes seconds and fails its too-slow health check.
TEXT = st.text('a1 "\\\u00e9', max_size=3)
GARBAGE = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    TEXT,
    st.lists(st.one_of(st.none(), st.integers(), TEXT), max_size=3),
    st.integers(-2, 2),
    st.integers(min_value=10**308),
)


def valid_or_garbage(valid):
    """`valid`, or about one time in eight a GARBAGE value; shrinks toward valid."""
    return st.integers(0, 7).flatmap(lambda i: GARBAGE if i == 7 else valid)


def field_key(name):
    """A `unique_by` key: an object's `name` field, or a garbage value itself."""
    return lambda obj: repr(obj.get(name) if isinstance(obj, dict) else obj)


def make_kb(diseases, findings, freqs) -> KnowledgeBase:
    """Shorthand KB builder for tests.

    diseases: list of ids; findings: list of id, (id, kind) or
    (id, kind, mutex_group) tuples; freqs: {(disease, finding): q}.
    """
    ds = [Disease(id=d, display_name=d) for d in diseases]
    fs = []
    for f in findings:
        if isinstance(f, str):
            f = (f, CLINICAL, None)
        elif len(f) == 2:
            f = (f[0], f[1], None)
        fs.append(Finding(id=f[0], display_name=f[0], kind=f[1], mutex_group=f[2]))
    return KnowledgeBase(diseases=ds, findings=fs, frequencies=dict(freqs))


@pytest.fixture
def flu_kb() -> KnowledgeBase:
    return make_kb(
        ["cold", "flu"],
        [
            "cough",
            "fatigue",
            "fever",
            "rash",
            ("female", DEMOGRAPHIC, "sex"),
            ("male", DEMOGRAPHIC, "sex"),
        ],
        {
            ("flu", "fever"): 0.8,
            ("flu", "cough"): 0.5,
            ("flu", "fatigue"): 0.5,
            ("flu", "male"): 0.5,
            ("flu", "female"): 0.5,
            ("cold", "cough"): 0.9,
            ("cold", "fatigue"): 0.3,
            ("cold", "rash"): 0.05,
            ("cold", "male"): 0.5,
            ("cold", "female"): 0.5,
        },
    )


def oracle_score(kb: KnowledgeBase, disease_id: str, pos, neg) -> float:
    """Brute-force reimplementation of the expert scoring rule."""
    eps = 1e-3
    total = 0.0
    for fid in pos:
        q = kb.frequencies.get((disease_id, fid), 0.0)
        if q == 0.0 and kb.finding(fid).kind == DEMOGRAPHIC:
            return -math.inf
        total += math.log(eps + q)
    for fid in neg:
        q = kb.frequencies.get((disease_id, fid), 0.0)
        total += math.log(eps + 1.0 - q)
    return total


def oracle_inference(kb: KnowledgeBase, pos, neg, k: int):
    """Brute-force expert differential: enumerate, keep top-k, softmax."""
    scores = {d.id: oracle_score(kb, d.id, pos, neg) for d in kb.diseases}
    finite = [(did, s) for did, s in scores.items() if s != -math.inf]
    if not finite:
        raise ValueError("all diseases excluded")
    finite.sort(key=lambda t: (-t[1], t[0]))
    kept = finite[:k]
    m = max(s for _, s in kept)
    weights = [(did, math.exp(s - m)) for did, s in kept]
    z = sum(w for _, w in weights)
    ranked = [(did, w / z) for did, w in weights if w / z > 0.0]
    ranked.sort(key=lambda t: (-t[1], t[0]))
    return ranked
