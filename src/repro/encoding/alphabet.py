"""Sequence alphabets and character encodings.

SMX supports four element widths, each tied to an alphabet (paper Sec. 4):

- 2-bit: DNA ``ACGT`` (DNA-edit configuration);
- 4-bit: DNA with headroom for extended symbols (DNA-gap configuration);
- 6-bit: the 26-letter protein alphabet ``A``-``Z``;
- 8-bit: raw ASCII text.

An :class:`Alphabet` maps between Python strings and small integer *codes*
(numpy ``uint8`` arrays). Codes are what every DP kernel, ISA model, and
tile engine in this library operates on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import EncodingError


@dataclass(frozen=True)
class Alphabet:
    """A finite character set with a fixed-width binary code.

    Attributes:
        name: Human-readable identifier.
        bits: Width of one character code; codes are in ``[0, 2**bits)``.
        letters: The canonical letter for each code, in code order. For the
            ASCII alphabet this is empty and codes are raw byte values.
    """

    name: str
    bits: int
    letters: str = ""
    _encode_lut: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.letters and len(self.letters) > (1 << self.bits):
            raise EncodingError(
                f"{len(self.letters)} letters do not fit in {self.bits} bits"
            )
        lut = np.full(256, 255, dtype=np.uint8)
        if self.letters:
            for code, letter in enumerate(self.letters):
                lut[ord(letter)] = code
                lut[ord(letter.lower())] = code
        else:
            lut = np.arange(256, dtype=np.uint8)
        object.__setattr__(self, "_encode_lut", lut)

    @property
    def size(self) -> int:
        """Number of valid codes."""
        return len(self.letters) if self.letters else 1 << self.bits

    def encode(self, sequence: str | bytes) -> np.ndarray:
        """Translate a string into a ``uint8`` code array.

        Raises :class:`EncodingError` on any character outside the
        alphabet (mirroring the hardware, which has no escape hatch).
        """
        if isinstance(sequence, str):
            raw = np.frombuffer(sequence.encode("latin-1", "strict"),
                                dtype=np.uint8)
        else:
            raw = np.frombuffer(bytes(sequence), dtype=np.uint8)
        codes = self._encode_lut[raw]
        if self.letters and codes.size and int(codes.max(initial=0)) == 255:
            bad = chr(int(raw[codes == 255][0]))
            raise EncodingError(
                f"character {bad!r} not in alphabet {self.name!r}"
            )
        return codes

    def encode_many(self, strings) -> list[np.ndarray]:
        """:meth:`encode` every item, in vectorised passes.

        A pass of about :data:`ENCODE_PASS` characters joins its items
        (``str`` or ``bytes``), gathers them through the LUT once
        (``bytes.translate``), range-checks once and slices writable
        ``uint8`` views equal to :meth:`encode`'s arrays. Anything else
        (another type, a character outside the alphabet or latin-1)
        reruns the per-item loop, which raises the identical error.
        """
        strings = list(strings)
        table = self._encode_lut.tobytes()
        codes: list[np.ndarray] = []
        for run in _passes(strings):
            raw = _joined(run)
            buffer = None if raw is None else bytearray(raw.translate(table))
            if buffer is None or (self.letters and 255 in buffer):
                return [self.encode(item) for item in strings]
            ends = [0, *itertools.accumulate(map(len, run))]
            array = np.frombuffer(buffer, dtype=np.uint8)
            codes += [array[a:b] for a, b in zip(ends, ends[1:])]
        return codes

    def decode(self, codes: np.ndarray) -> str:
        """Inverse of :meth:`encode`."""
        codes = np.asarray(codes)
        if self.letters:
            if codes.size and int(codes.max(initial=0)) >= len(self.letters):
                raise EncodingError(
                    f"code {int(codes.max())} out of range for {self.name!r}"
                )
            return "".join(self.letters[int(c)] for c in codes)
        return bytes(int(c) for c in codes).decode("latin-1")

    def random(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random code sequence of the given length."""
        if self.letters:
            return rng.integers(0, len(self.letters), size=length,
                                dtype=np.uint8)
        # Printable ASCII only, so decoded text remains readable.
        return rng.integers(32, 127, size=length, dtype=np.uint8)


#: Characters per :meth:`Alphabet.encode_many` pass: its temporaries stay
#: under glibc's 128 KiB mmap threshold, which freeing a larger block
#: raises for good (one 2 MB pass cost +10 % peak RSS on two workers).
ENCODE_PASS = 1 << 16


def _passes(strings: list):
    """Consecutive runs of ``strings`` of about :data:`ENCODE_PASS`
    characters each (an item of another type counts as none)."""
    run, size = [], 0
    for item in strings:
        run.append(item)
        if isinstance(item, (str, bytes, bytearray)):
            size += len(item)
        if size >= ENCODE_PASS:
            yield run
            run, size = [], 0
    if run:
        yield run


def _joined(strings: list) -> bytes | None:
    """All items as one latin-1 byte string, or ``None`` when they are
    not all ``str`` (all latin-1) or all ``bytes`` / ``bytearray``."""
    if all(isinstance(item, str) for item in strings):
        try:
            return "".join(strings).encode("latin-1", "strict")
        except UnicodeEncodeError:
            return None
    if all(isinstance(item, (bytes, bytearray)) for item in strings):
        return b"".join(strings)
    return None


#: 2-bit DNA alphabet (A=0, C=1, G=2, T=3).
DNA = Alphabet(name="dna", bits=2, letters="ACGT")

#: 4-bit DNA alphabet used by the DNA-gap configuration; same four
#: letters, stored in wider fields (the paper reserves headroom for
#: extended/IUPAC symbols at 4 bits).
DNA4 = Alphabet(name="dna4", bits=4, letters="ACGT")

#: 6-bit protein alphabet covering the full A-Z range of smx_submat.
PROTEIN = Alphabet(name="protein", bits=6,
                   letters="ABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: The 20 standard amino-acid letters, used by workload generators so
#: synthetic proteins score sensibly under BLOSUM matrices.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

#: 8-bit raw ASCII alphabet (code == byte value).
ASCII = Alphabet(name="ascii", bits=8)

#: Registry keyed by name for configuration lookup.
ALPHABETS = {a.name: a for a in (DNA, DNA4, PROTEIN, ASCII)}
