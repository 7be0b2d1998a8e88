import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from retroclass import errors
from retroclass.bank import EmbeddingBank
from retroclass.prompts import (GENERIC_PREFIX, PromptTemplate,
                                build_class_specs, expand_template,
                                load_class_config, merge_alias_prototypes,
                                parse_class_config)


def test_generic_expansion():
    t = PromptTemplate.generic()
    assert expand_template(t, "LED") == "a photo of a LED"


def test_domain_expansion_is_verbatim():
    # substitution is literal, article agreement is out of scope
    t = PromptTemplate.domain_specific("circuit diagram")
    assert expand_template(t, "amplifier") == "a circuit diagram of a amplifier"


def test_empty_class_name():
    t = PromptTemplate.generic()
    with pytest.raises(errors.EmptyClassName):
        expand_template(t, "")
    with pytest.raises(errors.EmptyClassName):
        expand_template(t, "   ")


def test_whitespace_collapsed():
    t = PromptTemplate.generic()
    assert expand_template(t, "  barn   owl ") == "a photo of a barn owl"


def test_generic_prefix_is_fixed():
    assert GENERIC_PREFIX == "a photo of a"
    with pytest.raises(errors.ValidationError):
        PromptTemplate("a picture of a", style="generic")


def test_from_prefix_routes_styles():
    assert PromptTemplate.from_prefix("a photo of a").style == "generic"
    t = PromptTemplate.from_prefix("a dermatoscopic image of a")
    assert t.style == "domain_specific"


def test_template_validation():
    with pytest.raises(errors.ValidationError):
        PromptTemplate("x", style="nonsense")
    with pytest.raises(errors.ValidationError):
        PromptTemplate("", style="domain_specific")
    with pytest.raises(errors.ValidationError):
        PromptTemplate.domain_specific("  ")


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
               min_size=1, max_size=20))
def test_expansion_contains_name_once(name):
    out = expand_template(PromptTemplate.generic(), name)
    assert out.count(name) >= 1
    assert out == " ".join(out.split())


# -- merging -----------------------------------------------------------------

def unit(v):
    v = np.asarray(v, np.float64)
    return v / np.linalg.norm(v)


def test_merge_single_vector_is_identity_direction():
    v = unit([1.0, 2.0, -1.0]).astype(np.float32)
    merged = merge_alias_prototypes(v)
    assert np.allclose(merged, v, atol=1e-6)
    assert np.linalg.norm(merged.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)


def test_merge_two_vectors_is_renormalized_mean(rng):
    a, b = unit(rng.standard_normal(8)), unit(rng.standard_normal(8))
    merged = merge_alias_prototypes(np.vstack([a, b]))
    expect = unit((a + b) / 2.0)
    assert np.allclose(merged, expect, atol=1e-6)


def test_merge_permutation_invariant(rng):
    rows = np.vstack([unit(rng.standard_normal(6)) for _ in range(4)])
    m1 = merge_alias_prototypes(rows)
    m2 = merge_alias_prototypes(rows[::-1])
    assert np.allclose(m1, m2, atol=1e-7)


def test_merge_empty_and_degenerate():
    with pytest.raises(errors.EmptyMerge):
        merge_alias_prototypes(np.empty((0, 4)))
    opposed = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(errors.DegenerateMerge):
        merge_alias_prototypes(opposed)


# -- class specs -------------------------------------------------------------

def spec_inputs(rng, classes, dim=6):
    n_rows = sum(1 + len(a) for _, a in classes)
    proto = EmbeddingBank.from_matrix(rng.standard_normal((n_rows, dim)),
                                      "vlm-text")
    rquery = EmbeddingBank.from_matrix(rng.standard_normal((n_rows, dim)),
                                       "llm-text")
    return proto, rquery


def test_specs_basic_structure(rng):
    classes = [("resistor", []), ("capacitor", [])]
    proto, rquery = spec_inputs(rng, classes)
    table = build_class_specs(classes, PromptTemplate.domain_specific("circuit diagram"),
                              PromptTemplate.generic(), proto, rquery)
    assert len(table) == 2
    assert table.names == (("resistor",), ("capacitor",))
    assert table.zeroshot_prompts[0] == "a circuit diagram of a resistor"
    assert table.retrieval_prompts[0] == "a photo of a resistor"
    assert table.zeroshot_prompts[1] == "a circuit diagram of a capacitor"
    assert table.bounds.tolist() == [0, 1, 2]
    assert table.prototype_space == "vlm-text"
    assert table.retrieval_space == "llm-text"


def test_specs_alias_rows_in_declared_order(rng):
    classes = [("lynx", ["Lynx lynx", "bobcat"]), ("owl", [])]
    proto, rquery = spec_inputs(rng, classes)
    table = build_class_specs(classes, PromptTemplate.generic(),
                              PromptTemplate.generic(), proto, rquery)
    assert table.names[0] == ("lynx", "Lynx lynx", "bobcat")
    assert table.bounds.tolist() == [0, 3, 4]
    assert table.prototypes.shape == (4, 6)
    assert np.array_equal(table.prototypes, np.asarray(proto.vectors))
    assert np.array_equal(table.retrieval_queries, np.asarray(rquery.vectors))
    assert table.zeroshot_prompts[:3] == ("a photo of a lynx",
                                          "a photo of a Lynx lynx",
                                          "a photo of a bobcat")
    assert not table.prototypes.flags.writeable


@pytest.mark.parametrize("aliases", [False, True], ids=["one-name", "aliases"])
def test_merged_rows_are_merge_alias_prototypes_bitwise(rng, aliases):
    """``merged`` has the bits of :func:`merge_alias_prototypes` per class,
    with and without aliases; the table merges its prototypes once and
    keeps them read-only."""
    n_aliases = rng.integers(0, 3, 40) if aliases else np.zeros(40, int)
    classes = [(f"class {c}", [f"alias {c}.{a}" for a in range(n)])
               for c, n in enumerate(n_aliases.tolist())]
    proto, rquery = spec_inputs(rng, classes, dim=256)
    table = build_class_specs(classes, PromptTemplate.generic(),
                              PromptTemplate.generic(), proto, rquery)
    assert (np.diff(table.bounds) > 1).any() == aliases
    for rows in (table.prototypes, table.retrieval_queries,
                 rng.standard_normal(table.prototypes.shape)):
        want = np.vstack([merge_alias_prototypes(rows[a:b]) for a, b in
                          zip(table.bounds[:-1], table.bounds[1:])])
        assert np.array_equal(table.merged(rows).view(np.uint32),
                              want.view(np.uint32))
    merged = table.merged_prototypes
    assert merged is table.merged_prototypes
    assert np.array_equal(merged, table.merged(table.prototypes))
    assert not merged.flags.writeable
    zero = np.array(table.prototypes)
    zero[table.bounds[-2]:] = 0.0
    with pytest.raises(errors.DegenerateMerge):
        table.merged(zero)


def test_specs_merged_vectors_unit(rng):
    classes = [("fox", ["Vulpes vulpes"]), ("hare", [])]
    proto, rquery = spec_inputs(rng, classes)
    table = build_class_specs(classes, PromptTemplate.generic(),
                              PromptTemplate.generic(), proto, rquery)
    for rows in (table.prototypes, table.retrieval_queries):
        merged = table.merged(rows)
        assert merged.shape == (2, 6) and merged.dtype == np.float32
        assert np.array_equal(merged[0], merge_alias_prototypes(rows[:2]))
        assert np.array_equal(merged[1], merge_alias_prototypes(rows[2:]))
        norms = np.linalg.norm(merged.astype(np.float64), axis=1)
        assert norms == pytest.approx([1.0, 1.0], abs=1e-4)


def test_specs_row_count_mismatch(rng):
    classes = [("a", []), ("b", ["c"])]
    proto = EmbeddingBank.from_matrix(rng.standard_normal((2, 6)), "vlm-text")
    rquery = EmbeddingBank.from_matrix(rng.standard_normal((3, 6)), "llm-text")
    with pytest.raises(errors.PromptBankMismatch):
        build_class_specs(classes, PromptTemplate.generic(),
                          PromptTemplate.generic(), proto, rquery)


def test_specs_reject_duplicates_and_empty(rng):
    proto, rquery = spec_inputs(rng, [("a", []), ("a", [])])
    with pytest.raises(errors.ValidationError, match="duplicate"):
        build_class_specs([("a", []), ("a", [])], PromptTemplate.generic(),
                          PromptTemplate.generic(), proto, rquery)
    with pytest.raises(errors.ValidationError):
        build_class_specs([], PromptTemplate.generic(),
                          PromptTemplate.generic(), proto, rquery)


# -- config file -------------------------------------------------------------

def test_parse_class_config_happy():
    obj = {"classes": [{"name": "ant", "aliases": ["Formicidae"]},
                       {"name": "bee"}],
           "zeroshot_prefix": "a photo of a",
           "retrieval_prefix": "a macro shot of a"}
    classes, zs, rt = parse_class_config(obj)
    assert classes == [("ant", ["Formicidae"]), ("bee", [])]
    assert zs.style == "generic"
    assert rt.style == "domain_specific"


def test_parse_class_config_errors():
    with pytest.raises(errors.ValidationError):
        parse_class_config({"classes": []})
    with pytest.raises(errors.ValidationError):
        parse_class_config({"classes": [{"name": "x"}],
                            "zeroshoot_prefix": "a photo of a"})
    with pytest.raises(errors.ValidationError):
        parse_class_config({"classes": [{"aliases": []}],
                            "zeroshot_prefix": "a photo of a",
                            "retrieval_prefix": "a photo of a"})
    with pytest.raises(errors.ValidationError):
        parse_class_config([1, 2])


def test_load_class_config(tmp_path):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({
        "classes": [{"name": "oak", "aliases": []}],
        "zeroshot_prefix": "a photo of a",
        "retrieval_prefix": "a photo of a",
    }))
    classes, zs, rt = load_class_config(path)
    assert classes == [("oak", [])]
    with pytest.raises(errors.IoError):
        load_class_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(errors.ValidationError):
        load_class_config(bad)
