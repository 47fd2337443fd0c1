"""Plot-summary preprocessing and pluggable text embeddings.

The preprocessing pipeline runs in a fixed order: lowercase, emoji to
name, tokenize, stopword removal, stemming, dictionary lemmatization.
Every step except tokenization can be switched off independently. The
emoji table, stopword list, and irregular-form lemma dictionary are
bundled as static data files, so the whole pipeline is deterministic and
needs no model downloads.

Embeddings come from one of two providers sharing a one-method interface,
`vector(movie)`: a TF-IDF model fitted on the corpus, or vectors
precomputed elsewhere and loaded from a text file. Neither runs any
inference at query time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .catalog import Movie
from .errors import CinefuseError, DataFormatError, UnknownEntityError
from .porter import stem as porter_stem

_DATA_DIR = Path(__file__).parent / "data"
_TOKEN_RE = re.compile(r"[0-9a-zA-Z]+")


@lru_cache(maxsize=1)
def stopword_set() -> frozenset:
    words = (_DATA_DIR / "stopwords.txt").read_text(encoding="utf-8").split()
    return frozenset(words)


@lru_cache(maxsize=1)
def _emoji_table() -> dict:
    table = {}
    for i, line in enumerate((_DATA_DIR / "emoji_map.tsv").read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        code, _, name = line.partition("\t")
        if not code.startswith("U+") or not name:
            raise DataFormatError("expected 'U+XXXX<TAB>name'", path=str(_DATA_DIR / "emoji_map.tsv"), line=i)
        table[int(code[2:], 16)] = f" {name} "
    return table


@lru_cache(maxsize=1)
def lemma_table() -> dict:
    table = {}
    for line in (_DATA_DIR / "lemmas.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            form, _, lemma = line.partition("\t")
            table[form] = lemma
    return table


@dataclass(frozen=True)
class PreprocessOptions:
    lowercase: bool = True
    map_emoji: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    lemmatize: bool = True


@dataclass(frozen=True)
class TokenStream:
    """Preprocessed tokens of one text."""

    tokens: tuple[str, ...]


def preprocess(text: str, options: PreprocessOptions | None = None) -> TokenStream:
    """Run the pipeline on one text.

    Tokens are maximal ASCII alphanumeric runs; everything else,
    including unmapped emoji, acts as a separator. Stopword matching is
    case-insensitive so it keeps working when lowercasing is off. The
    lemma pass is a plain dictionary lookup with identity fallback, keyed
    on whatever the stemming stage emitted.
    """
    opts = options or PreprocessOptions()
    work = text
    if opts.lowercase:
        work = work.lower()
    if opts.map_emoji:
        work = work.translate(_emoji_table())
    tokens = _TOKEN_RE.findall(work)
    if opts.remove_stopwords:
        stop = stopword_set()
        tokens = [t for t in tokens if t.lower() not in stop]
    if opts.stem:
        tokens = [porter_stem(t) for t in tokens]
    if opts.lemmatize:
        lemmas = lemma_table()
        tokens = [lemmas.get(t, t) for t in tokens]
    return TokenStream(tuple(tokens))


def cosine_similarity(a, b) -> float:
    """Cosine of two vectors; 0.0 whenever either norm is zero."""
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise CinefuseError(f"vector dimensions differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb / (na * nb))


@dataclass
class TfidfProvider:
    """TF-IDF embeddings over a fixed vocabulary.

    Vocabulary holds the `max_vocab` terms with the highest document
    frequency (ties broken alphabetically). idf = ln(N / (1 + df)) + 1,
    which stays positive even for terms present in every document.
    Vectors are raw term counts times idf, L2-normalized.
    """

    vocabulary: tuple[str, ...]
    idf: np.ndarray
    options: PreprocessOptions = field(default_factory=PreprocessOptions)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.vocabulary)}

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(len(self.vocabulary))
        for tok in preprocess(text, self.options).tokens:
            i = self._index.get(tok)
            if i is not None:
                vec[i] += 1.0
        vec *= self.idf
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 0 else vec

    def vector(self, movie: Movie) -> np.ndarray:
        return self.embed(movie.summary if movie.summary else movie.title)


def fit_tfidf(texts, max_vocab: int = 5000, options: PreprocessOptions | None = None) -> TfidfProvider:
    """Fit a TF-IDF provider on an iterable of documents."""
    opts = options or PreprocessOptions()
    docs = [preprocess(t, opts).tokens for t in texts]
    if not docs:
        raise CinefuseError("cannot fit tf-idf on an empty corpus")
    if max_vocab < 1:
        raise CinefuseError(f"max_vocab must be >= 1, got {max_vocab}")
    df: dict[str, int] = {}
    for tokens in docs:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    ranked = sorted(df, key=lambda t: (-df[t], t))[:max_vocab]
    vocabulary = tuple(ranked)
    n = len(docs)
    idf = np.array([np.log(n / (1 + df[t])) + 1.0 for t in vocabulary])
    return TfidfProvider(vocabulary, idf, opts)


@dataclass
class PrecomputedProvider:
    """Embeddings computed offline and loaded from a text file."""

    vectors: dict[int, np.ndarray]

    def vector(self, movie: Movie) -> np.ndarray:
        vec = self.vectors.get(movie.movie_id)
        if vec is None:
            raise UnknownEntityError(f"no precomputed embedding for movie {movie.movie_id}")
        return vec


def load_precomputed(path) -> PrecomputedProvider:
    """Read `dim=<D>` then one `movieId<TAB>f1 f2 ...` row per movie."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("dim="):
        raise DataFormatError("first line must be 'dim=<D>'", path=path, line=1)
    try:
        dim = int(lines[0][4:])
    except ValueError:
        raise DataFormatError(f"bad dimension {lines[0][4:]!r}", path=path, line=1) from None
    if dim < 1:
        raise DataFormatError(f"dimension must be >= 1, got {dim}", path=path, line=1)
    vectors: dict[int, np.ndarray] = {}
    for i, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        ident, _, rest = line.partition("\t")
        try:
            movie_id = int(ident)
            values = np.array([float(x) for x in rest.split()])
        except ValueError:
            raise DataFormatError("expected 'movieId<TAB>f1 f2 ...'", path=path, line=i) from None
        if values.size != dim:
            raise DataFormatError(f"vector of length {values.size}, expected {dim}", path=path, line=i)
        if not np.all(np.isfinite(values)):
            raise DataFormatError(f"non-finite vector entry for movie {movie_id}", path=path, line=i)
        if movie_id in vectors:
            raise DataFormatError(f"duplicate movie id {movie_id}", path=path, line=i)
        vectors[movie_id] = values
    if not vectors:
        raise DataFormatError("no embedding rows", path=path, line=1)
    return PrecomputedProvider(vectors)


def save_precomputed(path, vectors: dict[int, np.ndarray]) -> None:
    """Write embeddings in the format load_precomputed reads back."""
    if not vectors:
        raise CinefuseError("no vectors to save")
    dims = {int(np.asarray(v).size) for v in vectors.values()}
    if len(dims) != 1:
        raise CinefuseError(f"inconsistent vector dimensions: {sorted(dims)}")
    dim = dims.pop()
    lines = [f"dim={dim}"]
    for movie_id in sorted(vectors):
        row = " ".join(repr(float(x)) for x in np.asarray(vectors[movie_id]))
        lines.append(f"{movie_id}\t{row}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
