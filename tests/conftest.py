import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from retroclass.harness import synth_fixture

# property tests must be reproducible run-to-run; derandomize pins the
# example stream and deadline=None tolerates slow first-call BLAS warmup
settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

GOLDEN_FIXTURE_PARAMS = dict(seed=1, n_classes=20, dim=64,
                             queries_per_class=50, eta_p=0.6, eta_c=0.1,
                             captions_per_class=40)


@pytest.fixture(scope="session")
def small_fixture():
    """Cheap six-class problem shared by the unit tests."""
    return synth_fixture(seed=11, n_classes=6, dim=24, queries_per_class=8,
                         eta_p=0.5, eta_c=0.1, captions_per_class=15)


@pytest.fixture(scope="session")
def golden_fixture():
    """The seed-1 problem the golden reports are frozen against."""
    return synth_fixture(**GOLDEN_FIXTURE_PARAMS)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def alias_specs(small_fixture):
    """Class specs for ``small_fixture`` where classes carry 0-2 aliases."""
    from retroclass.bank import EmbeddingBank
    from retroclass.prompts import PromptTemplate, build_class_specs

    fx = small_fixture
    rng = np.random.default_rng(77)
    protos = np.asarray(fx.prototype_bank.vectors, np.float64)
    rqueries = np.asarray(fx.retrieval_query_bank.vectors, np.float64)
    classes, proto_rows, rquery_rows = [], [], []
    for c in range(fx.prototype_bank.count):
        aliases = [f"alias-{c}-{j}" for j in range(c % 3)]
        classes.append((f"class-{c:02d}", aliases))
        proto_rows.append(protos[c])
        rquery_rows.append(rqueries[c])
        for _ in aliases:
            proto_rows.append(protos[c] + 0.3 * rng.standard_normal(protos.shape[1]))
            rquery_rows.append(rqueries[c] + 0.05 * rng.standard_normal(protos.shape[1]))
    template = PromptTemplate.generic()
    return build_class_specs(
        classes, template, template,
        EmbeddingBank.from_matrix(np.vstack(proto_rows), "vlm-text"),
        EmbeddingBank.from_matrix(np.vstack(rquery_rows), "llm-text"))
