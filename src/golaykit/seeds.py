"""Verified seed storage and the search entry points that feed it.

A seed is either a complementary pair or a quad of base sequences
(two binary sequences of length m+1 and two of length m whose four
autocorrelations sum to (4m+2) times the delta spike).  Records move
through a registry that re-verifies every entry against the
autocorrelation oracle at load time, so correctness never rests on
where a data file came from.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import MissingSeed, NotBinary, ParseError, VerificationFailed
from .search import (
    SearchStatus,
    search_base_arrays,
    search_pair_arrays,
)
from .tensor import (
    Alphabet,
    Tensor,
    alphabet_of,
    tensor_from_obj,
    tensor_to_obj,
)
from .verify import is_gca_set

__all__ = [
    "PAIR_KIND",
    "BASE_KIND",
    "SeedRecord",
    "SeedRegistry",
    "load_registry",
    "load_bundled",
    "registry_to_obj",
    "search_golay_pair",
    "search_base_sequences",
]

PAIR_KIND = "golay-pair"
BASE_KIND = "base-sequences"


def _shape_signature(shapes: tuple[tuple[int, ...], ...]) -> str:
    return ";".join("x".join(str(s) for s in shape) for shape in shapes)


@lru_cache(maxsize=1024)
def _key_shapes(key: str) -> tuple[tuple[int, ...], ...]:
    """The member shapes that end a seed key (`_shape_signature`'s
    inverse), of positive sizes and one rank, or ParseError."""
    signature = key.rpartition("/")[2]
    try:
        shapes = tuple(tuple(map(int, m.split("x"))) for m in signature.split(";"))
    except ValueError:
        shapes = ((0,),)
    if (_shape_signature(shapes) != signature or min(map(min, shapes)) < 1
            or len(set(map(len, shapes))) > 1):
        raise ParseError(f"seed key {key!r} does not end in shapes like 2;2")
    return shapes


@dataclass(frozen=True)
class SeedRecord:
    """One verified seed: a complementary pair or a base-sequence quad."""

    kind: str
    alphabet: Alphabet
    tensors: tuple[Tensor, ...]
    provenance: str = ""

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t.shape for t in self.tensors)

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.alphabet.value}/{_shape_signature(self.shapes)}"

    def verify(self) -> None:
        """Re-run the oracle; raises unless the record is what it claims."""
        if self.kind == PAIR_KIND:
            if len(self.tensors) != 2 or len(set(self.shapes)) != 1:
                raise VerificationFailed(
                    f"{self.key}: a pair record needs 2 tensors of one shape")
            if not all(self.alphabet.admits(alphabet_of(t)) for t in self.tensors):
                raise VerificationFailed(
                    f"{self.key}: entries leave the {self.alphabet.value} alphabet")
        elif self.kind == BASE_KIND:
            m = self.base_index
            if self.shapes != ((m + 1,), (m + 1,), (m,), (m,)):
                raise VerificationFailed(
                    f"{self.key}: lengths must be m+1, m+1, m, m"
                )
            if self.alphabet is not Alphabet.BINARY:
                raise VerificationFailed(f"{self.key}: base sequences are binary")
            if any(alphabet_of(t) is not Alphabet.BINARY for t in self.tensors):
                raise NotBinary(f"{self.key}: entries outside +-1")
        else:
            raise VerificationFailed(f"unknown seed kind {self.kind!r}")
        # +-1 entries at lengths m+1, m+1, m, m weigh 4m+2, so a base
        # record's sum is (4m+2) * delta exactly when it is complementary
        verdict = is_gca_set(self.tensors)
        if not verdict.is_complementary:
            raise VerificationFailed(
                f"{self.key}: autocorrelations do not cancel "
                f"(max sidelobe norm {verdict.max_sidelobe_norm})"
            )

    @property
    def base_index(self) -> int:
        """The m of a base-sequence record (lengths m+1, m+1, m, m)."""
        if self.kind != BASE_KIND or len(self.tensors) != 4:
            raise VerificationFailed(f"{self.key}: not a base-sequence record")
        if any(len(s) != 1 for s in self.shapes):
            raise VerificationFailed(f"{self.key}: base sequences must be 1-D")
        return self.shapes[2][0]


@dataclass
class SeedRegistry:
    """Keyed store of verified seeds plus the rejects from the last load."""

    records: dict[str, SeedRecord] = field(default_factory=dict)
    rejects: list[tuple[int, str]] = field(default_factory=list)

    def add(self, record: SeedRecord) -> None:
        record.verify()
        self.records[record.key] = record

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: str) -> bool:
        return key in self.records

    @staticmethod
    def pair_key(alphabet: Alphabet, length: int) -> str:
        return f"{PAIR_KIND}/{alphabet.value}/{length};{length}"

    @staticmethod
    def base_key(m: int) -> str:
        return f"{BASE_KIND}/{Alphabet.BINARY.value}/{m + 1};{m + 1};{m};{m}"

    def find_golay_pair(self, alphabet: Alphabet,
                        length: int) -> SeedRecord | None:
        """A 1-D pair of the given length, or None.

        A quaternary request is satisfied by a binary record when no
        quaternary one exists, since binary entries are quaternary.
        """
        rec = self.records.get(self.pair_key(alphabet, length))
        if rec is None and alphabet is Alphabet.QUATERNARY:
            rec = self.records.get(self.pair_key(Alphabet.BINARY, length))
        return rec

    def get_golay_pair(self, alphabet: Alphabet, length: int) -> SeedRecord:
        rec = self.find_golay_pair(alphabet, length)
        if rec is None:
            raise MissingSeed(self.pair_key(alphabet, length))
        return rec

    def find_base_sequences(self, m: int) -> SeedRecord | None:
        return self.records.get(self.base_key(m))

    def get_base_sequences(self, m: int) -> SeedRecord:
        rec = self.find_base_sequences(m)
        if rec is None:
            raise MissingSeed(self.base_key(m))
        return rec


def record_to_obj(record: SeedRecord) -> dict:
    return {
        "kind": record.kind,
        "alphabet": record.alphabet.value,
        "tensors": [tensor_to_obj(t) for t in record.tensors],
        "provenance": record.provenance,
    }


def record_from_obj(obj: dict) -> SeedRecord:
    if not isinstance(obj, dict):
        raise ParseError("seed record must be a JSON object")
    try:
        kind = obj["kind"]
        alphabet = Alphabet.from_tag(obj["alphabet"])
        tensors = obj["tensors"]
    except KeyError as exc:
        raise ParseError(f"seed record missing field {exc}") from exc
    if type(kind) is not str:
        raise ParseError("seed kind must be a string")
    if type(tensors) is not list:
        raise ParseError("seed tensors must be a list of gca-tensor/1 objects")
    tensors = tuple(tensor_from_obj(t) for t in tensors)
    provenance = obj.get("provenance", "")
    if not isinstance(provenance, str):
        raise ParseError("provenance must be a string")
    return SeedRecord(kind, alphabet, tensors, provenance)


def registry_to_obj(registry: SeedRegistry) -> list:
    """The gca-seeds/1 payload: a bare list of record objects."""
    return [record_to_obj(r) for r in registry.records.values()]


def _registry_from_text(text: str, source: str) -> SeedRegistry:
    """Parse and re-verify gca-seeds/1 text; bad records are reported
    in .rejects, not fatal.  Blank text is an empty registry."""
    if not text.strip():
        return SeedRegistry()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{source}: nests too deeply to parse") from None
    if not isinstance(payload, list):
        raise ParseError("seed file must be a JSON list of records")
    registry = SeedRegistry()
    for idx, obj in enumerate(payload):
        try:
            registry.add(record_from_obj(obj))
        except Exception as exc:  # keep loading the rest
            registry.rejects.append((idx, f"{type(exc).__name__}: {exc}"))
    return registry


def load_registry(path) -> SeedRegistry:
    """Load and re-verify a gca-seeds/1 file."""
    with open(path, "r", encoding="utf-8") as fh:
        return _registry_from_text(fh.read(), str(path))


def load_bundled() -> SeedRegistry:
    """The registry shipped with the package, re-verified at load."""
    from importlib import resources

    ref = resources.files("golaykit").joinpath("data/seeds.json")
    return _registry_from_text(ref.read_text(encoding="utf-8"),
                               "bundled seeds")


def _searched(outcome, kind: str, alphabet: Alphabet):
    """(status, record_or_None, nodes) for a search outcome; a found
    record has been verified by the oracle before it is returned."""
    if outcome.status is not SearchStatus.FOUND:
        return outcome.status, None, outcome.nodes
    record = SeedRecord(
        kind,
        alphabet,
        outcome.arrays,
        provenance=f"exhaustive search, {outcome.nodes} nodes",
    )
    record.verify()
    return outcome.status, record, outcome.nodes


def search_golay_pair(alphabet: Alphabet, shape: tuple[int, ...],
                      budget: int | None = None):
    """Search outcome for a pair over `shape`, as (status, record,
    nodes)."""
    outcome = search_pair_arrays(tuple(shape), alphabet, budget)
    return _searched(outcome, PAIR_KIND, alphabet)


def search_base_sequences(m: int, budget: int | None = None):
    """Search outcome for base sequences of index m, as (status, record,
    nodes)."""
    outcome = search_base_arrays(m, budget)
    return _searched(outcome, BASE_KIND, Alphabet.BINARY)
