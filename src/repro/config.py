"""Alignment-problem configurations (paper Sec. 7, "Sequence alignment
configurations").

A configuration binds together an alphabet, a scoring model, and the SMX
element width (EW), and derives the vector length (VL) and the shifted-
encoding parameters. The four presets evaluated in the paper are provided:

==========  ====  ===  ==========================================
name         EW   VL   model
==========  ====  ===  ==========================================
dna-edit      2   32   edit distance (0 / -1 / -1)
dna-gap       4   16   linear gap (2 / -4 / -2), minimap2-style
protein       6   10   BLOSUM50 + linear gap -10
ascii         8    8   edit distance over raw ASCII
==========  ====  ===  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding.alphabet import ASCII, DNA, DNA4, PROTEIN, Alphabet
from repro.encoding.differential import DeltaShift
from repro.encoding.packing import lanes_for
from repro.errors import ConfigurationError
from repro.scoring.model import (
    MatchMismatchModel,
    ScoringModel,
    SubstitutionMatrixModel,
    dna_gap_model,
    edit_model,
)
from repro.scoring.submat import blosum50


@dataclass(frozen=True)
class AlignmentConfig:
    """A complete sequence-alignment problem configuration.

    Attributes:
        name: Identifier used in reports (e.g. ``"dna-edit"``).
        alphabet: Character set and code width.
        model: Scoring model (gap penalties + substitution scores).
        ew: SMX element width in bits; must cover both the alphabet's
            code width and the model's ``theta`` bound.
    """

    name: str
    alphabet: Alphabet
    model: ScoringModel
    ew: int
    shift: DeltaShift = field(init=False, compare=False)

    def __post_init__(self) -> None:
        vl = lanes_for(self.ew)  # validates EW
        del vl
        if self.alphabet.bits > self.ew:
            raise ConfigurationError(
                f"{self.name}: alphabet {self.alphabet.name!r} needs "
                f"{self.alphabet.bits} bits but EW={self.ew}"
            )
        if self.model.min_element_width > self.ew:
            raise ConfigurationError(
                f"{self.name}: theta={self.model.theta} needs "
                f"{self.model.min_element_width} bits but EW={self.ew}"
            )
        self.model.validate_shiftable()
        object.__setattr__(self, "shift", DeltaShift.for_model(self.model))

    @property
    def vl(self) -> int:
        """Vector length: DP-elements per 64-bit register at this EW."""
        return lanes_for(self.ew)

    @property
    def tile_dim(self) -> int:
        """SMX-2D DP-tile edge length (VL x VL tiles, paper Sec. 5.2)."""
        return self.vl

    @property
    def uses_submat(self) -> bool:
        """Whether the configuration needs the smx_submat memory."""
        return isinstance(self.model, SubstitutionMatrixModel)

    def encode(self, sequence: str):
        """Shortcut for ``config.alphabet.encode``."""
        return self.alphabet.encode(sequence)

    def encode_pairs(self, pairs) -> list:
        """String pairs as code-array pairs through one
        :meth:`~repro.encoding.alphabet.Alphabet.encode_many` call."""
        codes = self.alphabet.encode_many(
            side for query, reference in pairs for side in (query, reference))
        return list(zip(codes[0::2], codes[1::2]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AlignmentConfig({self.name!r}, ew={self.ew}, vl={self.vl}, "
                f"theta={self.model.theta})")


def dna_edit_config() -> AlignmentConfig:
    """2-bit DNA characters with the edit-distance model."""
    return AlignmentConfig(name="dna-edit", alphabet=DNA, model=edit_model(),
                           ew=2)


def dna_gap_config(match: int = 2, mismatch: int = -4,
                   gap: int = -2) -> AlignmentConfig:
    """4-bit DNA characters with a weighted linear gap model."""
    model = dna_gap_model(match=match, mismatch=mismatch, gap=gap)
    return AlignmentConfig(name="dna-gap", alphabet=DNA4, model=model, ew=4)


def protein_config(gap: int = -10) -> AlignmentConfig:
    """6-bit protein characters scored with BLOSUM50 and a linear gap."""
    model = SubstitutionMatrixModel(blosum50(), gap_i=gap, gap_d=gap)
    return AlignmentConfig(name="protein", alphabet=PROTEIN, model=model,
                           ew=6)


def ascii_config() -> AlignmentConfig:
    """8-bit ASCII characters with the edit-distance model."""
    model = MatchMismatchModel(match=0, mismatch=-1, gap_i=-1, gap_d=-1,
                               n_codes=256)
    return AlignmentConfig(name="ascii", alphabet=ASCII, model=model, ew=8)


def standard_configs() -> dict[str, AlignmentConfig]:
    """The four configurations evaluated throughout the paper."""
    configs = (dna_edit_config(), dna_gap_config(), protein_config(),
               ascii_config())
    return {config.name: config for config in configs}
