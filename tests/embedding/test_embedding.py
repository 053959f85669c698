"""Tests for the tokenizer, hashing embedder, similarity, and vector store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding.embedder import CodeEmbedder, EmbedderConfig, token_overlap
from repro.embedding.similarity import cosine_similarity, cosine_similarity_matrix, top_k
from repro.embedding.tokenizer import bigrams, split_identifier, tokenize_code
from repro.embedding.vector_store import VectorStore
from repro.errors import RetrievalError


class TestTokenizer:
    def test_camel_case_identifiers_are_split(self):
        assert split_identifier("uuidDefectRateMap") == ["uuid", "defect", "rate", "map"]
        assert split_identifier("LoadStores") == ["load", "stores"]
        assert split_identifier("snake_case_name") == ["snake", "case", "name"]

    def test_racyvar_tokens_collapse(self):
        tokens = tokenize_code("racyVar1 = racyVar2 + v1")
        assert tokens.count("racyvar") == 2

    def test_concurrency_operators_are_tokens(self):
        tokens = tokenize_code("value := <-ch")
        assert "<-" in tokens and ":=" in tokens

    def test_bigrams(self):
        assert bigrams(["a", "b", "c"]) == ["a__b", "b__c"]


class TestEmbedder:
    def test_vectors_are_normalized(self):
        embedder = CodeEmbedder()
        vector = embedder.embed("go func() { mu.Lock() }")
        assert vector.shape == (384,)
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_empty_text_embeds_to_zero_vector(self):
        assert np.linalg.norm(CodeEmbedder().embed("")) == 0.0

    def test_determinism(self):
        embedder = CodeEmbedder()
        a = embedder.embed("var wg sync.WaitGroup")
        b = embedder.embed("var wg sync.WaitGroup")
        assert np.array_equal(a, b)

    def test_similar_skeletons_are_closer_than_different_ones(self):
        embedder = CodeEmbedder()
        skeleton_a = "v1.Go(func() error {\n\tv2, racyVar1 = v1.func1()\n\treturn racyVar1\n})"
        skeleton_b = "v9.Go(func() error {\n\tv8, racyVar1 = v9.func3()\n\treturn racyVar1\n})"
        unrelated = "for k := range m {\n\tdelete(m, k)\n}"
        close = cosine_similarity(embedder.embed(skeleton_a), embedder.embed(skeleton_b))
        far = cosine_similarity(embedder.embed(skeleton_a), embedder.embed(unrelated))
        assert close > far

    def test_embed_batch_shape(self):
        matrix = CodeEmbedder().embed_batch(["a := 1", "b := 2", "c := 3"])
        assert matrix.shape == (3, 384)

    def test_custom_dimensions(self):
        embedder = CodeEmbedder(EmbedderConfig(dimensions=64))
        assert embedder.embed("x := 1").shape == (64,)

    def test_token_overlap_bounds(self):
        assert token_overlap("a b c", "a b c") == 1.0
        assert token_overlap("alpha", "omega") == 0.0

    @given(st.text(alphabet="abcdefgh_ (){}.:=<-\n\t", max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_embedding_norm_is_zero_or_one(self, text):
        norm = np.linalg.norm(CodeEmbedder().embed(text))
        assert np.isclose(norm, 0.0) or np.isclose(norm, 1.0)


class TestSimilarity:
    def test_cosine_of_identical_vectors_is_one(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.isclose(cosine_similarity(v, v), 1.0)

    def test_cosine_of_orthogonal_vectors_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_similarity_is_zero(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_similarity_matrix_and_top_k(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scores = cosine_similarity_matrix(np.array([1.0, 0.0]), matrix)
        assert top_k(scores, 2) == [0, 2]

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_cosine_similarity_is_bounded(self, a, b):
        value = cosine_similarity(np.array(a), np.array(b))
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestVectorStore:
    def test_add_query_roundtrip(self):
        store = VectorStore(dimensions=3)
        store.add("a", [1.0, 0.0, 0.0], document="doc-a", metadata={"category": "x"})
        store.add("b", [0.0, 1.0, 0.0], document="doc-b", metadata={"category": "y"})
        results = store.query([0.9, 0.1, 0.0], k=1)
        assert results[0].item_id == "a"
        assert results[0].document == "doc-a"

    def test_metadata_filtering(self):
        store = VectorStore(dimensions=2)
        store.add("a", [1.0, 0.0], metadata={"category": "x"})
        store.add("b", [1.0, 0.0], metadata={"category": "y"})
        results = store.query([1.0, 0.0], k=2, where={"category": "y"})
        assert [r.item_id for r in results] == ["b"]

    def test_replacing_an_entry(self):
        store = VectorStore(dimensions=2)
        store.add("a", [1.0, 0.0])
        store.add("a", [0.0, 1.0])
        assert len(store) == 1
        assert store.query([0.0, 1.0], k=1)[0].score > 0.99

    def test_dimension_mismatch_raises(self):
        store = VectorStore(dimensions=3)
        with pytest.raises(RetrievalError):
            store.add("a", [1.0, 2.0])
        with pytest.raises(RetrievalError):
            store.query([1.0, 2.0])

    def test_invalid_dimensions_raise(self):
        with pytest.raises(RetrievalError):
            VectorStore(dimensions=0)

    def test_query_on_empty_store(self):
        assert VectorStore(dimensions=2).query([1.0, 0.0]) == []
