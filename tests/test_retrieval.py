"""Embedding retrieval and knowledge retrieval tests."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expcopilot.core import CanonicalExperience, Task
from expcopilot.errors import ValidationError
from expcopilot.retrieval import (
    BOW_DIM,
    EmbeddingVector,
    KnowledgeItem,
    PoolEntry,
    RetrievalIndex,
    cosine_similarity,
    hashed_bow_embedding,
    retrieve_experience,
    retrieve_knowledge,
)


def vec(*values, tag="test"):
    return EmbeddingVector(values=tuple(float(v) for v in values), model_tag=tag)


class TestEmbeddingVector:
    @pytest.mark.parametrize(
        "values",
        [(1.0, float("nan")), (float("inf"), 0.0), (-float("inf"), 1.0), (1e200,) * 4],
        ids=["nan", "inf", "-inf", "norm-overflow"],
    )
    def test_non_finite_values_or_norm_rejected(self, values):
        # Such a vector would score NaN or 0.0, and where it ranked would depend on pool order.
        with pytest.raises(ValidationError, match="finite"):
            vec(*values)

    def test_large_finite_norm_accepted(self):
        assert vec(1e150, 1e150).norm == pytest.approx(math.sqrt(2) * 1e150)


class TestCosine:
    def test_identity(self):
        a = vec(0.2, 0.5, 1.0)
        assert cosine_similarity(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == 0.0

    def test_forty_five_degrees(self):
        assert cosine_similarity(vec(1, 1), vec(1, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_model_tag_mismatch(self):
        with pytest.raises(ValidationError, match="model"):
            cosine_similarity(vec(1, 0, tag="a"), vec(1, 0, tag="b"))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            cosine_similarity(vec(1, 0), vec(1, 0, 0))

    def test_zero_vector(self):
        with pytest.raises(ValidationError, match="zero"):
            cosine_similarity(vec(0, 0), vec(1, 0))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = vec(*rng.normal(size=8))
            b = vec(*rng.normal(size=8))
            alpha = float(rng.uniform(0.1, 100.0))
            scaled = vec(*(alpha * v for v in a.values))
            assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=0)
            assert abs(cosine_similarity(scaled, b) - cosine_similarity(a, b)) < 1e-12


def entry(task_id, values):
    task = Task(task_id=task_id, space_id="s", description=f"desc {task_id}")
    return PoolEntry(task=task, embedding=vec(*values), experiences=())


class TestPoolEntryBlock:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_cached_block_is_the_first_n_configurations(self, n):
        # An entry built from a task's first n records shows every one of them, once cached.
        task = Task(task_id="t", space_id="s", description="desc t")
        texts = ["cost is low.", "cost is medium.", "cost is high."]
        pool_entry = PoolEntry(
            task, vec(1.0), [CanonicalExperience("t", "s", text, {}, 0.0) for text in texts[:n]]
        )
        lines = ["Dataset: desc t", *(f"Configuration {i}: {t}" for i, t in enumerate(texts, 1))]
        block = pool_entry.block
        assert block == "\n".join(lines[: n + 1])
        assert pool_entry.block is block


class TestRetrieveExperience:
    def test_ranked_with_id_tiebreak(self):
        # Similarities to the query (1, 0): two at ~0.9 and the rest lower.
        query = vec(1.0, 0.0)
        pool = [
            entry("t-e", (0.9, math.sqrt(1 - 0.81))),
            entry("t-a", (0.9, math.sqrt(1 - 0.81))),
            entry("t-c", (0.5, math.sqrt(0.75))),
            entry("t-b", (0.1, math.sqrt(0.99))),
            entry("t-d", (1e-6, 1.0)),
        ]
        top = retrieve_experience(query, pool, 3)
        assert [e.task.task_id for e, _ in top] == ["t-a", "t-e", "t-c"]
        assert top[0][1] == pytest.approx(0.9)

    def test_k_equal_to_pool(self):
        query = vec(1.0, 0.0)
        pool = [entry("a", (1.0, 0.0)), entry("b", (0.0, 1.0))]
        top = retrieve_experience(query, pool, 2)
        assert [e.task.task_id for e, _ in top] == ["a", "b"]

    def test_exact_match_first(self):
        query = vec(0.6, 0.8)
        pool = [entry("far", (1.0, 0.0)), entry("same", (0.6, 0.8))]
        top = retrieve_experience(query, pool, 1)
        assert top[0][0].task.task_id == "same"
        assert top[0][1] == pytest.approx(1.0)

    def test_empty_pool(self):
        assert retrieve_experience(vec(1.0), [], 3) == []

    def test_exclusion(self):
        query = vec(1.0, 0.0)
        pool = [entry("a", (1.0, 0.0)), entry("b", (0.9, 0.1))]
        top = retrieve_experience(query, pool, 2, exclude={"a"})
        assert [e.task.task_id for e, _ in top] == ["b"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            size = int(rng.integers(1, 12))
            pool = [entry(f"t{i:02d}", rng.normal(size=4)) for i in range(size)]
            query = vec(*rng.normal(size=4))
            k = int(rng.integers(1, size + 1))
            got = retrieve_experience(query, pool, k)
            oracle = sorted(
                ((e, cosine_similarity(query, e.embedding)) for e in pool),
                key=lambda item: (-item[1], item[0].task.task_id),
            )[:k]
            assert [(e.task.task_id, s) for e, s in got] == [
                (e.task.task_id, s) for e, s in oracle
            ]


def pairwise_oracle(query, pool, k, exclude=()):
    """The ranking of one `cosine_similarity` call per pair, then the (-sim, task_id) sort."""
    scored = [
        (e, cosine_similarity(query, e.embedding)) for e in pool if e.task.task_id not in exclude
    ]
    scored.sort(key=lambda item: (-item[1], item[0].task.task_id))
    return scored[:k]


class TestVecdotScoring:
    @pytest.mark.parametrize("dim", [3, 256, 1536])
    def test_vecdot_rows_equal_per_pair_dot_bit_for_bit(self, dim):
        # retrieve_experience relies on this: np.vecdot must run np.dot's
        # per-pair kernel. If a numpy release changes that, this fails.
        rng = np.random.default_rng(dim)
        scales = 10.0 ** rng.integers(-6, 7, size=(64, dim))
        matrix = rng.normal(size=(64, dim)) * scales
        mixed = rng.normal(size=dim) * 10.0 ** rng.integers(-6, 7, size=dim)
        for query in (rng.normal(size=dim), mixed):
            rows = np.vecdot(matrix, query)
            pairs = np.array([np.dot(row, query) for row in matrix])
            assert rows.tobytes() == pairs.tobytes()

    @given(
        data=st.data(),
        dim=st.sampled_from([3, 256]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pairwise_oracle(self, data, dim, seed, zeros):
        # Components of mixed magnitude, a share `zeros` of them signed zeros
        # (all of them: a zero vector). Few distinct vectors, so the pool holds
        # exact ties (duplicates) that only the task ids order.
        rng = np.random.default_rng(seed)
        distinct = rng.normal(size=(4, dim)) * 10.0 ** rng.integers(-3, 4, size=(4, dim))
        signed_zeros = np.where(rng.random((4, dim)) < 0.5, 0.0, -0.0)
        distinct = np.where(rng.random((4, dim)) < zeros, signed_zeros, distinct)
        picks = data.draw(st.lists(st.integers(0, 3), max_size=10))
        names = data.draw(st.permutations([f"t{i:02d}" for i in range(len(picks))]))
        pool = [entry(name, distinct[j]) for name, j in zip(names, picks)]
        # Inserted entries with another tag (t), another length (l) or a zero vector (z).
        inserts = st.lists(st.tuples(st.integers(0, len(pool)), st.sampled_from("tlz")), max_size=2)
        for pos, kind in data.draw(inserts):
            values = {"t": distinct[0], "l": (1.0,) * (dim + 1), "z": (0.0,) * dim}[kind]
            embedding = vec(*values, tag="other" if kind == "t" else "test")
            pool.insert(pos, PoolEntry(Task(f"bad{pos}{kind}", "s", "bad"), embedding, ()))
        query = vec(*distinct[data.draw(st.integers(0, 3))])
        ids = [e.task.task_id for e in pool]
        exclude = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
        k = data.draw(st.integers(1, len(pool) + 1))
        try:
            want = pairwise_oracle(query, pool, k, exclude)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                retrieve_experience(query, pool, k, exclude=exclude)
            assert str(got.value) == str(exc)
        else:
            assert retrieve_experience(query, pool, k, exclude=exclude) == want

    def test_error_names_the_first_offending_entry_in_pool_order(self):
        query = vec(1.0, 0.0)
        pool = [
            entry("ok", (1.0, 0.0)),
            PoolEntry(Task("long", "s", "d"), vec(1.0, 0.0, 0.0), ()),
            PoolEntry(Task("other", "s", "d"), vec(1.0, 0.0, tag="other"), ()),
            entry("zero", (0.0, 0.0)),
        ]
        with pytest.raises(ValidationError, match="length mismatch: 2 vs 3"):
            retrieve_experience(query, pool, 4)
        with pytest.raises(ValidationError, match="model mismatch"):
            retrieve_experience(query, pool, 4, exclude={"long"})
        with pytest.raises(ValidationError, match="zero vector"):
            retrieve_experience(query, pool, 4, exclude={"long", "other"})
        top = retrieve_experience(query, pool, 4, exclude={"long", "other", "zero"})
        assert [e.task.task_id for e, _ in top] == ["ok"]



class TestRetrievalIndex:
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_query_equals_a_full_sort(self, data, seed, size):
        # One index serves many queries, as a sweep's index serves its folds.
        # Few distinct vectors make exact ties that only the task ids order.
        rng = np.random.default_rng(seed)
        distinct = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-3, 4, size=(3, 4))
        picks = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        names = data.draw(st.permutations([f"t{i:02d}" for i in range(size)]))
        pool = [entry(name, distinct[j]) for name, j in zip(names, picks)]
        # Entries with another tag (t), another length (l) or a zero vector (z).
        for pos, kind in data.draw(st.lists(st.tuples(st.integers(0, size), st.sampled_from("tlz")), max_size=2)):
            values = {"t": distinct[0], "l": (1.0,) * 5, "z": (0.0,) * 4}[kind]
            pool.insert(pos, PoolEntry(Task(f"bad{pos}{kind}", "s", "bad"), vec(*values, tag="o" if kind == "t" else "test"), ()))
        index = RetrievalIndex(pool)
        ids = [e.task.task_id for e in pool]
        for _ in range(3):
            query = vec(*distinct[data.draw(st.integers(0, 2))])
            exclude = data.draw(st.sets(st.sampled_from(ids))) if ids else set()
            k = data.draw(st.integers(1, len(pool) + 1))
            try:
                scored = [(e, cosine_similarity(query, e.embedding)) for e in pool if e.task.task_id not in exclude]
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    index.query(query, k, exclude)
                assert str(got.value) == str(exc)
            else:
                want = sorted(scored, key=lambda item: (-item[1], item[0].task.task_id))[:k]
                assert index.query(query, k, exclude) == want

    def test_ties_at_the_kth_similarity_are_ordered_by_id(self):
        # Partitioning at k must keep every tie, or a later id could displace an earlier one.
        pool = [entry(name, (1.0, 0.0)) for name in ("e", "d", "c", "b", "a")] + [entry("z", (2.0, 0.0))]
        top = RetrievalIndex(pool).query(vec(1.0, 0.0), 3)
        assert [e.task.task_id for e, _ in top] == ["a", "b", "c"]

    def test_a_zero_query_fails_on_the_first_kept_entry(self):
        pool = [entry("zero", (0.0, 0.0)), entry("ok", (1.0, 0.0))]
        with pytest.raises(ValidationError, match="zero vector"):
            RetrievalIndex(pool).query(vec(0.0, 0.0), 1, exclude={"zero"})


def item(space_id, score, text="guideline"):
    return KnowledgeItem(space_id=space_id, text=text, validation_score=score)


class TestRetrieveKnowledge:
    def test_filters_by_space(self):
        pool = [item("A", 0.5), item("B", 0.9), item("A", 0.4)]
        got = retrieve_knowledge("A", pool)
        assert len(got) == 2
        assert all(k.space_id == "A" for k in got)

    def test_empty_for_unknown_space(self):
        assert retrieve_knowledge("Z", [item("A", 0.5)]) == []

    def test_sorted_by_score_then_insertion(self):
        pool = [item("A", 0.3, "first"), item("A", 0.8, "second"), item("A", 0.3, "third")]
        got = retrieve_knowledge("A", pool)
        assert [k.text for k in got] == ["second", "first", "third"]


class TestHashedBow:
    def test_deterministic(self):
        a = hashed_bow_embedding("the quick brown fox")
        b = hashed_bow_embedding("the quick brown fox")
        assert a == b

    def test_word_order_ignored(self):
        a = hashed_bow_embedding("alpha beta gamma")
        b = hashed_bow_embedding("gamma alpha beta")
        assert cosine_similarity(a, b) == pytest.approx(1.0)

    def test_disjoint_vocabulary_is_orthogonal(self):
        left = ["ember", "quartz", "violet"]
        right = ["saffron", "jubilee", "komodo"]

        def bucket(word):
            return int.from_bytes(hashlib.sha256(word.encode()).digest()[:8], "big") % BOW_DIM

        # The test vocabulary must be collision-free for orthogonality to hold.
        assert not {bucket(w) for w in left} & {bucket(w) for w in right}
        sim = cosine_similarity(
            hashed_bow_embedding(" ".join(left)), hashed_bow_embedding(" ".join(right))
        )
        assert sim == 0.0

    def test_matches_explicit_term_vector(self):
        text = "tune the model tune it well"
        got = hashed_bow_embedding(text)
        counts = np.zeros(BOW_DIM)
        for word in text.lower().split():
            digest = hashlib.sha256(word.encode()).digest()
            counts[int.from_bytes(digest[:8], "big") % BOW_DIM] += 1
        expected = counts / np.linalg.norm(counts)
        assert np.allclose(got.values, expected)

    def test_normalized(self):
        v = hashed_bow_embedding("some words to embed")
        assert np.linalg.norm(v.values) == pytest.approx(1.0)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            hashed_bow_embedding("")

    def test_tokenless_text_rejected(self):
        with pytest.raises(ValidationError, match="token"):
            hashed_bow_embedding("!!! --- ???")
