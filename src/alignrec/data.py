"""Interaction/feature ingestion, k-core filtering, and synthetic datasets.

File formats:
  interactions  UTF-8 text, one ``user<TAB>item`` per line; blank lines and
                lines starting with ``#`` are skipped, and so is a leading
                byte-order mark.
  FMAT          magic ``FMAT``, u32 version=1, u32 rows, u32 cols, then
                rows*cols little-endian float32 values, row-major.
  mapping TSV   ``token<TAB>dense_id`` per line.

Item tokens double as row indices into the feature matrices, so filtering
or remapping interactions never desynchronizes features from items.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError
from .evaluation import top_k
from .tensor import ParameterError

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
FMAT_MAX_EXTENT = 2 ** 32 - 1  # the header holds rows and cols as u32


def load_interactions(path) -> list[tuple[str, str]]:
    """The file's de-duplicated (user token, item token) pairs, in
    first-appearance order."""
    seen: dict[tuple[str, str], None] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                fields = stripped.split("\t")
                if len(fields) != 2 or not fields[0] or not fields[1]:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 'user<TAB>item', got {stripped!r}")
                seen[(fields[0], fields[1])] = None
    except UnicodeDecodeError:
        raise DataFormatError(
            f"{path}:{_first_undecodable_line(path)}: not UTF-8 text") from None
    if not seen:
        raise DataFormatError(f"{path}: no interactions")
    return list(seen)


def _first_undecodable_line(path) -> int:
    """The text reader decodes ahead of the line it yields, so the failing
    line is found again on the raw bytes."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def kcore_filter(pairs: list[tuple[str, str]], k: int = 5) -> list[tuple[str, str]]:
    """Iteratively drop users and items with fewer than k interactions."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    while True:
        user_deg = Counter(u for u, _ in pairs)
        item_deg = Counter(i for _, i in pairs)
        kept = [(u, i) for u, i in pairs if user_deg[u] >= k and item_deg[i] >= k]
        if len(kept) == len(pairs):
            break
        pairs = kept
    if not pairs:
        raise DataFormatError(f"{k}-core filtering removed every interaction")
    return pairs


def remap(pairs: list[tuple[str, str]]) -> tuple[np.ndarray, list[str], list[str]]:
    """Assign dense 0-based ids in first-appearance order.

    Returns (pairs array (n, 2), user tokens by id, item tokens by id).
    """
    user_ids: dict[str, int] = {}
    item_ids: dict[str, int] = {}
    dense = np.empty((len(pairs), 2), dtype=np.int64)
    for row, (u, i) in enumerate(pairs):
        dense[row, 0] = user_ids.setdefault(u, len(user_ids))
        dense[row, 1] = item_ids.setdefault(i, len(item_ids))
    return dense, list(user_ids), list(item_ids)


@contextmanager
def atomic_open(path, mode: str = "w", keep_partial: bool = False):
    """Write through a sibling temp file renamed over `path` on exit, so
    `path` holds either its old content or all of the new. When the body
    raises, the temp file is deleted; with `keep_partial` it is renamed into
    place all the same, for files such as a stream of whole lines that are
    valid when cut short. Text is UTF-8."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    commit = keep_partial
    try:
        with fh:
            yield fh
        commit = True
    finally:
        try:
            if commit:
                os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def save_mapping(path, tokens: list[str]) -> None:
    with atomic_open(path) as fh:
        for dense_id, token in enumerate(tokens):
            fh.write(f"{token}\t{dense_id}\n")


def fmat_values(path, values: np.ndarray) -> np.ndarray:
    """`values` as the little-endian float32 rows an FMAT file at `path`
    holds; raises NumericalError naming the first row with a finite value
    past float32's range, which the cast would turn into an infinity."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise DataFormatError(f"feature matrix must be 2-d, got shape {values.shape}")
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(values, dtype="<f4")
    bad_rows = np.flatnonzero((np.isinf(out) & np.isfinite(values)).any(axis=1))
    if bad_rows.size:
        raise NumericalError(f"{path}: row {bad_rows[0]} holds a value past "
                             f"float32's range")
    return out


def save_fmat(path, values: np.ndarray) -> None:
    """Write `values` through `fmat_values`, so a value past float32's range
    fails before the file is opened."""
    values = fmat_values(path, values)
    with atomic_open(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<III", FMAT_VERSION, *values.shape))
        fh.write(values.tobytes())


def load_fmat(path) -> np.ndarray:
    """Read a feature matrix, upcast to float64; every value must be finite."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FMAT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {FMAT_MAGIC!r}")
    if len(blob) < 16:
        raise DataFormatError(f"{path}: truncated header, {len(blob)} bytes")
    version, rows, cols = struct.unpack_from("<III", blob, 4)
    if version != FMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    expected = 16 + 4 * rows * cols
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload length mismatch, expected {expected} bytes, "
            f"have {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=16)
    with np.errstate(invalid="ignore"):  # a signalling NaN is reported below
        values = values.reshape(rows, cols).astype(np.float64)
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise DataFormatError(f"{path}: row {bad_rows[0]} holds a non-finite value")
    return values


@dataclass
class Dataset:
    """Remapped interactions plus, per loaded modality, feature rows aligned
    to dense item ids."""

    pairs: np.ndarray
    user_tokens: list[str]
    item_tokens: list[str]
    features: dict[str, np.ndarray]

    @property
    def n_users(self) -> int:
        return len(self.user_tokens)

    @property
    def n_items(self) -> int:
        return len(self.item_tokens)


def _gather_feature_rows(matrix: np.ndarray, item_tokens: list[str],
                         path) -> np.ndarray:
    rows = np.empty(len(item_tokens), dtype=np.int64)
    for dense_id, token in enumerate(item_tokens):
        try:
            row = int(token)
        except ValueError:
            raise DataFormatError(
                f"item token {token!r} is not a feature row index; feature "
                f"matrices are keyed by integer item tokens") from None
        if not (0 <= row < matrix.shape[0]):
            raise DataFormatError(
                f"{path}: item token {token!r} addresses row {row} but the "
                f"matrix has {matrix.shape[0]} rows")
        rows[dense_id] = row
    return matrix[rows]


def load_dataset(interactions_path, feature_paths: dict, kcore: int = 0) -> Dataset:
    """The interactions, k-core filtered when `kcore` > 0, with the FMAT
    rows of each `{modality: path}` in `feature_paths`."""
    pairs = load_interactions(interactions_path)
    if kcore > 0:
        pairs = kcore_filter(pairs, kcore)
    dense, user_tokens, item_tokens = remap(pairs)
    features = {m: _gather_feature_rows(load_fmat(path), item_tokens, path)
                for m, path in feature_paths.items()}
    return Dataset(dense, user_tokens, item_tokens, features)


@dataclass(frozen=True)
class SynthSpec:
    """Planted-factor dataset: interactions and both modalities derive from
    shared item latents, so modality content genuinely predicts preference.

    Each modality observes an overlapping span of the latent dimensions
    (each misses a distinct quarter), making the modalities complementary:
    together they cover every preference-driving direction, alone they do
    not. Feature rows are scaled to unit-order norms, matching the output
    scale of typical pretrained extractors."""

    users: int = 300
    items: int = 200
    latent_dim: int = 8
    interactions_per_user: int = 20
    visual_dim: int = 128
    text_dim: int = 96
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("users", "items", "latent_dim", "interactions_per_user",
                     "visual_dim", "text_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive")
        # latents.fmat stacks users over items; the other counts are columns
        for name, count in (("users + items", self.users + self.items),
                            ("latent_dim", self.latent_dim),
                            ("visual_dim", self.visual_dim),
                            ("text_dim", self.text_dim)):
            if count > FMAT_MAX_EXTENT:
                raise ParameterError(f"{name} must be <= {FMAT_MAX_EXTENT} for an "
                                     f"FMAT header, got {count}")
        if not 0 <= self.noise < np.inf:
            raise ParameterError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.interactions_per_user >= self.items:
            raise ParameterError(
                f"interactions_per_user ({self.interactions_per_user}) must be "
                f"smaller than items ({self.items})")


def synth_generate(spec: SynthSpec, out_dir) -> dict:
    """Write interactions.tsv, visual.fmat, text.fmat and latents.fmat.

    Users interact with their top items by latent dot product, ranked by
    `top_k`, which asks for the users x items affinity one block of users at
    a time, so it is never held whole. latents.fmat stacks user latents
    (first `users` rows) over item latents. Item tokens are the feature row
    indices. The three matrices are checked (`fmat_values`) before `out_dir`
    is made or any file is written.
    """
    out = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    user_latents = rng.standard_normal((spec.users, spec.latent_dim))
    item_latents = rng.standard_normal((spec.items, spec.latent_dim))

    def modality(span: slice, dim: int) -> np.ndarray:
        source = item_latents[:, span]
        mix = rng.standard_normal((source.shape[1], dim))
        mix /= np.sqrt(source.shape[1] * dim)
        # An infinity would pass `fmat_values`, which refuses only finite
        # values past float32's range.
        try:
            with np.errstate(over="raise"):
                noise = (spec.noise / np.sqrt(dim)) * rng.standard_normal((spec.items, dim))
        except FloatingPointError:
            raise NumericalError(f"noise {spec.noise} overflows a feature value") from None
        return source @ mix + noise

    ell = spec.latent_dim
    visual_span = slice(0, max(1, (3 * ell) // 4))
    text_span = slice(min(ell - 1, ell // 4), ell)
    matrices = {name: fmat_values(out / f"{name}.fmat", values) for name, values in (
        ("visual", modality(visual_span, spec.visual_dim)),
        ("text", modality(text_span, spec.text_dim)),
        ("latents", np.vstack([user_latents, item_latents])))}

    top = top_k(lambda rows, out: np.matmul(user_latents[rows], item_latents.T, out=out),
                spec.users, spec.items, spec.interactions_per_user)
    users = np.repeat(np.arange(spec.users), spec.interactions_per_user)
    out.mkdir(parents=True, exist_ok=True)
    interactions_path = out / "interactions.tsv"
    with atomic_open(interactions_path) as fh:
        fh.write("".join(map("u{}\t{}\n".format, users.tolist(), top.ravel().tolist())))

    for name, values in matrices.items():
        save_fmat(out / f"{name}.fmat", values)

    count = spec.users * spec.interactions_per_user
    return {
        "interactions": str(interactions_path),
        "visual": str(out / "visual.fmat"),
        "text": str(out / "text.fmat"),
        "latents": str(out / "latents.fmat"),
        "interaction_count": count,
        "density": count / (spec.users * spec.items),
    }
