"""Text preprocessing, stemming, TF-IDF vectors, and precomputed embeddings."""

import numpy as np
import pytest

from cinefuse.errors import CinefuseError, DataFormatError, UnknownEntityError
from cinefuse.porter import stem
from cinefuse.textpipe import (
    PrecomputedProvider,
    PreprocessOptions,
    TfidfProvider,
    cosine_similarity,
    fit_tfidf,
    load_precomputed,
    preprocess,
    save_precomputed,
)


class TestPorterStemmer:
    # Hand-traced through the 1980 rule tables.
    CASES = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "caress": "caress",
        "cats": "cat",
        "feed": "feed",
        "agreed": "agre",
        "plastered": "plaster",
        "bled": "bled",
        "motoring": "motor",
        "sing": "sing",
        "conflated": "conflat",
        "troubled": "troubl",
        "sized": "size",
        "hopping": "hop",
        "tanned": "tan",
        "falling": "fall",
        "hissing": "hiss",
        "fizzed": "fizz",
        "failing": "fail",
        "filing": "file",
        "happy": "happi",
        "sky": "sky",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "valenci": "valenc",
        "hesitanci": "hesit",
        "digitizer": "digit",
        "conformabli": "conform",
        "radicalli": "radic",
        "differentli": "differ",
        "vileli": "vile",
        "analogousli": "analog",
        "vietnamization": "vietnam",
        "predication": "predic",
        "operator": "oper",
        "feudalism": "feudal",
        "decisiveness": "decis",
        "hopefulness": "hope",
        "callousness": "callous",
        "formaliti": "formal",
        "sensitiviti": "sensit",
        "sensibiliti": "sensibl",
        "triplicate": "triplic",
        "formative": "form",
        "formalize": "formal",
        "electriciti": "electr",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "revival": "reviv",
        "allowance": "allow",
        "inference": "infer",
        "airliner": "airlin",
        "gyroscopic": "gyroscop",
        "adjustable": "adjust",
        "defensible": "defens",
        "irritant": "irrit",
        "replacement": "replac",
        "adjustment": "adjust",
        "dependent": "depend",
        "adoption": "adopt",
        "homologou": "homolog",
        "communism": "commun",
        "activate": "activ",
        "angulariti": "angular",
        "homologous": "homolog",
        "effective": "effect",
        "bowdlerize": "bowdler",
        "probate": "probat",
        "rate": "rate",
        "cease": "ceas",
        "controll": "control",
        "roll": "roll",
    }

    def test_classic_vocabulary(self):
        for word, expect in self.CASES.items():
            assert stem(word) == expect, f"{word} -> {stem(word)} != {expect}"

    def test_short_words_pass_through(self):
        for w in ("a", "is", "be", "on", "it"):
            assert stem(w) == w

    def test_non_alpha_pass_through(self):
        assert stem("1984") == "1984"
        assert stem("r2d2") == "r2d2"

    def test_lowercases_input(self):
        assert stem("Running") == stem("running") == "run"

    def test_idempotent_on_sample(self):
        words = ["generalization", "mysteries", "happiness", "traveling", "engineered"]
        for w in words:
            once = stem(w)
            assert stem(once) == once


class TestPreprocess:
    def test_full_pipeline_order(self):
        ts = preprocess("The detectives were running through 2 cities")
        assert list(ts.tokens) == ["detect", "run", "2", "citi"]

    def test_emoji_expand_to_names(self):
        ts = preprocess("a 🎬 about a 🚀", PreprocessOptions(remove_stopwords=False, stem=False, lemmatize=False))
        assert list(ts.tokens) == ["a", "movie", "camera", "about", "a", "rocket"]

    def test_emoji_mapping_can_be_disabled(self):
        ts = preprocess("night 🎬 show", PreprocessOptions(map_emoji=False, stem=False, lemmatize=False))
        assert list(ts.tokens) == ["night", "show"]

    def test_stopwords_removed_case_insensitively(self):
        ts = preprocess("THE plot AND the twist", PreprocessOptions(stem=False, lemmatize=False))
        assert list(ts.tokens) == ["plot", "twist"]

    def test_stopword_removal_can_be_disabled(self):
        ts = preprocess("the plot", PreprocessOptions(remove_stopwords=False, stem=False, lemmatize=False))
        assert list(ts.tokens) == ["the", "plot"]

    def test_lemmas_apply_after_stemming(self):
        # "wives" stems to "wive"; the lemma table keys that post-stem form.
        ts = preprocess("wives and wolves and mice")
        assert list(ts.tokens) == ["wife", "wolf", "mouse"]

    def test_lemmatize_can_be_disabled(self):
        ts = preprocess("mice", PreprocessOptions(lemmatize=False))
        assert list(ts.tokens) == ["mice"]

    def test_lowercase_can_be_disabled(self):
        opts = PreprocessOptions(lowercase=False, remove_stopwords=False, stem=False, lemmatize=False)
        ts = preprocess("Harbor Lights", opts)
        assert list(ts.tokens) == ["Harbor", "Lights"]

    def test_digits_survive_tokenization(self):
        ts = preprocess("set in 1984", PreprocessOptions(stem=False, lemmatize=False))
        assert list(ts.tokens) == ["set", "1984"]

    def test_punctuation_splits_tokens(self):
        ts = preprocess("end-of-line; truly.", PreprocessOptions(remove_stopwords=False, stem=False, lemmatize=False))
        assert list(ts.tokens) == ["end", "of", "line", "truly"]

    def test_empty_text_gives_empty_stream(self):
        ts = preprocess("")
        assert list(ts.tokens) == []


class TestCosine:
    def test_known_value(self):
        a = np.array([1.0, 1.0])
        b = np.array([1.0, 0.0])
        assert cosine_similarity(a, b) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CinefuseError, match="dimensions"):
            cosine_similarity(np.ones(2), np.ones(3))

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=6)
            assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


class TestTfidf:
    DOCS = [
        "the astronaut repairs the station",
        "a detective hunts the astronaut",
        "the station falls silent",
    ]

    def brute_force(self, docs, max_vocab=5000):
        """Independent recomputation with plain dict arithmetic."""
        opts = PreprocessOptions()
        token_lists = [preprocess(d, opts).tokens for d in docs]
        df = {}
        for toks in token_lists:
            for t in set(toks):
                df[t] = df.get(t, 0) + 1
        vocab = sorted(df, key=lambda t: (-df[t], t))[:max_vocab]
        idf = {t: np.log(len(docs) / (1.0 + df[t])) + 1.0 for t in vocab}
        vectors = []
        for toks in token_lists:
            vec = np.zeros(len(vocab))
            for i, t in enumerate(vocab):
                vec[i] = toks.count(t) * idf[t]
            n = np.linalg.norm(vec)
            vectors.append(vec / n if n > 0 else vec)
        return vocab, vectors

    def test_matches_brute_force(self):
        provider = fit_tfidf(self.DOCS)
        vocab, vectors = self.brute_force(self.DOCS)
        assert list(provider.vocabulary) == vocab
        for doc, expect in zip(self.DOCS, vectors):
            got = provider.embed(doc)
            np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_vectors_unit_norm(self):
        provider = fit_tfidf(self.DOCS)
        for doc in self.DOCS:
            assert np.linalg.norm(provider.embed(doc)) == pytest.approx(1.0, abs=1e-12)

    def test_vocab_ranked_by_df_then_term(self):
        docs = ["alpha beta", "alpha gamma", "beta gamma", "alpha"]
        provider = fit_tfidf(docs, max_vocab=2)
        # df: alpha 3, beta 2, gamma 2; cap keeps alpha then beta (lexicographic tie).
        assert list(provider.vocabulary) == ["alpha", "beta"]

    def test_out_of_vocab_doc_embeds_to_zero(self):
        provider = fit_tfidf(self.DOCS)
        vec = provider.embed("zebra xylophone")
        assert np.all(vec == 0.0)

    def test_idf_positive(self):
        provider = fit_tfidf(self.DOCS)
        assert np.all(provider.idf > 0.0)

    def test_vector_uses_summary_or_title(self, fixture_catalog):
        provider = fit_tfidf([m.summary or m.title for m in fixture_catalog.movies.values()])
        movie = fixture_catalog.movies[1]
        np.testing.assert_array_equal(provider.vector(movie), provider.embed(movie.summary))

    def test_dimension_property(self):
        provider = fit_tfidf(self.DOCS, max_vocab=3)
        assert provider.dimension == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(CinefuseError):
            fit_tfidf([])


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        vectors = {3: np.array([0.1, 0.2, 0.3]), 1: np.array([1.0, 0.0, 0.0])}
        path = tmp_path / "emb.tsv"
        save_precomputed(path, vectors)
        provider = load_precomputed(path)
        assert provider.dimension == 3
        np.testing.assert_allclose(provider.vectors[1], vectors[1])
        np.testing.assert_allclose(provider.vectors[3], vectors[3])

    def test_vector_lookup(self, tmp_path, fixture_catalog):
        path = tmp_path / "emb.tsv"
        save_precomputed(path, {1: np.array([0.5, 0.5])})
        provider = load_precomputed(path)
        movie = fixture_catalog.movies[1]
        np.testing.assert_allclose(provider.vector(movie), [0.5, 0.5])

    def test_unknown_movie_raises(self, tmp_path, fixture_catalog):
        path = tmp_path / "emb.tsv"
        save_precomputed(path, {1: np.array([0.5, 0.5])})
        provider = load_precomputed(path)
        with pytest.raises(UnknownEntityError):
            provider.vector(fixture_catalog.movies[2])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("dim=3\n1\t0.1 0.2 0.3\n2\t0.1 0.2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_precomputed(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("dimension: 3\n1\t0.1 0.2 0.3\n")
        with pytest.raises(DataFormatError, match="header"):
            load_precomputed(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "emb.tsv"
        save_precomputed(path, {1: np.array([0.5, 0.5]), 2: np.array([0.1, bad]), 3: np.array([1.0, 0.0])})
        with pytest.raises(DataFormatError, match="line 3") as info:
            load_precomputed(path)
        assert str(path) in str(info.value) and "non-finite" in str(info.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("dim=2\n1\t0.1 0.2\n1\t0.3 0.4\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_precomputed(path)

    def test_non_numeric_component_reports_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("dim=2\n1\t0.1 oops\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_precomputed(path)
