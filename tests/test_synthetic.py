import hashlib

import pytest

from ddxkit.data import write_cases
from ddxkit.kb import serialize_knowledge_base
from ddxkit.synthetic import make_novel_disease_cases, make_separable_kb

# The fixtures feed the bench and the acceptance tests: their bytes may move
# only on purpose. Each digest is the SHA-256 of the fixture's text.


@pytest.mark.parametrize(
    "n_diseases, seed, digest",
    [
        (3, 0, "6669b23ea6ac1773642535f1e25106540ed8bf9fcbd49e7907afaf67c95e240f"),
        (4, 0, "b91e13e28fe5d771f1b9f04b7a1c8a2556e29593fb2052ed84d493751ba62661"),
        (20, 0, "7026c8194de8abb010414aab2f7fce118b712636ee03e54bac399d49444b321b"),
        (20, 5, "913b23ae8f1d73e3ab53d9bdbbe161c6457c2291259e6b8da39ddad8c54184a1"),
        (200, 1, "b476beaf361d16d0d0c261ec13d06544b3cdffdb8da88c0f2231525474e3d364"),
    ],
)
def test_separable_kb_bytes_are_pinned(n_diseases, seed, digest):
    text = serialize_knowledge_base(make_separable_kb(n_diseases, seed=seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "n_diseases, kb_seed, seed, n_cases, digest",
    [
        (20, 0, 7, 20, "678df98299c287b622493a723db072a78c8dcf5f94524f473c0bdf3ac33ac360"),
        (20, 0, 11, 20, "7a223e19370ee8393d910676ff4797acaa796adfe4ac788450ed21a97f77a2f3"),
        (20, 5, 7, 80, "f67ebb28ba2916a98f82d26afcdc2e3da76ef853d047e003e5d867b9334467b7"),
        (4, 0, 3, 20, "27e74e118518e70f07a1360b90a4d0ccb427911742fa71c1f6ecd47a099fdb87"),
    ],
)
def test_novel_disease_case_bytes_are_pinned(n_diseases, kb_seed, seed, n_cases, digest):
    kb = make_separable_kb(n_diseases, seed=kb_seed)
    text = write_cases(make_novel_disease_cases(kb, n_cases=n_cases, seed=seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
