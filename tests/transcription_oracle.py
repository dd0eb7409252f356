"""Test oracles: the transcribed equations of Gr(3,6) and Gr_L(3,6).

The catalog builds both varieties as charts X_f of cubic norms.  The lists
here are the Pluecker quadrics of Gr(3,6) in wedge coordinates, as written
in the source table, and the 21 quadrics of Gr_L(3,6) obtained from them by
six linear relations.  They are the same varieties in other coordinates, so
the tests whose pinned bases, pair budgets and torus vectors were recorded
in these coordinates read their input here.

Each file is sha256-pinned.  `grl36` derives its form by restricting the
wedge pairing of Gr(3,6) along the substitution, and `substituted_gr36`
is the substitution itself, for the test that it reproduces the Gr_L(3,6)
span.  The header of grl36.txt, kept byte for byte under its pin, still
places that substitution in the catalog module; it lives here now.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from legquad.catalog import CatalogEntry
from legquad.legendrian import VarietyPresentation
from legquad.poly import Polynomial, parse_poly
from legquad.symplectic import SymplecticForm, pairing_form

DATA = Path(__file__).parent / "data"
PINS = {
    "gr36.txt": "a959bd45a0b2278d942165cd3c77f317a906b1d704d844f807aa879ed6e25068",
    "grl36.txt": "b9e281e00a9805980e3f5c384db8c7035d08363066d325e21ef8d88458983a1b",
}

# Linear substitution from the wedge coordinates of Gr(3,6) to the 14
# coordinates of the Lagrangian Grassmannian: name -> (coefficient, y index).
GRL_SUBSTITUTION: Dict[str, Tuple[Fraction, int]] = {
    "123": (Fraction(1), 0), "126": (Fraction(1), 1), "135": (Fraction(1), 2),
    "243": (Fraction(1), 3), "124": (Fraction(1), 4), "263": (Fraction(-1), 4),
    "125": (Fraction(1), 5), "136": (Fraction(-1), 5), "134": (Fraction(1), 6),
    "235": (Fraction(-1), 6), "456": (Fraction(1), 7), "354": (Fraction(1), 8),
    "264": (Fraction(1), 9), "156": (Fraction(1), 10),
    "365": (Fraction(1, 2), 11), "145": (Fraction(-1, 2), 11),
    "346": (Fraction(1, 2), 12), "245": (Fraction(-1, 2), 12),
    "256": (Fraction(1, 2), 13), "146": (Fraction(-1, 2), 13),
}


def read(filename: str) -> List[str]:
    blob = (DATA / filename).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != PINS[filename]:
        raise ValueError(f"{filename}: checksum mismatch ({digest})")
    return blob.decode().splitlines()


def load_gr36() -> Tuple[List[str], List[int], List[Polynomial]]:
    """The wedge coordinate names in variable order, the signs of the
    pairing of x_i with x_{10+i}, and the 35 quadrics."""
    order: List[str] = []
    signs: List[int] = []
    eqs = []
    for line in read("gr36.txt"):
        if line.startswith("# canonical-order:"):
            order = line.split(":")[1].split()
        elif line.startswith("# pairing-signs:"):
            signs = [int(s) for s in line.split(":")[1].split()]
        elif line.strip() and not line.startswith("#"):
            eqs.append(line.strip())
    name_to_idx = {n: i for i, n in enumerate(order)}

    def convert(eq: str) -> str:
        s = re.sub(r"x<(\d{3})>", lambda m: f"x{name_to_idx[m.group(1)]}", eq)
        s = re.sub(r"(\d)\s+(?=x\d)", r"\1*", s)
        return re.sub(r"(x\d+)\s+(?=x\d)", r"\1*", s)

    return order, signs, [parse_poly(convert(e), 20) for e in eqs]


def _unit_point(nvars: int) -> List[Fraction]:
    return [Fraction(int(i == 0)) for i in range(nvars)]


def gr36() -> CatalogEntry:
    """Gr(3,6) as the 35 transcribed Pluecker quadrics, under the wedge pairing."""
    _, signs, polys = load_gr36()
    assert len(polys) == 35
    form = pairing_form(20, [(i, 10 + i, s) for i, s in enumerate(signs)])
    return CatalogEntry(
        VarietyPresentation("gr36", form, polys), "transcribed", _unit_point(20),
        "Pluecker quadrics in the verbatim coordinate names of the data "
        "file; the base point is the x123 unit vector.",
        checksum=PINS["gr36.txt"],
    )


def substituted_gr36() -> Tuple[List[Polynomial], SymplecticForm]:
    """The 35 Gr(3,6) quadrics under the substitution into the 14 Gr_L(3,6)
    coordinates, and the wedge pairing restricted along it: s on
    (x_i, x_{10+i}) becomes s c c' on (y_j, y_j') for x_i -> c y_j and
    x_{10+i} -> c' y_j'."""
    order, signs, polys = load_gr36()
    image = [GRL_SUBSTITUTION[name] for name in order]
    forms = [Polynomial.variable(14, j).scale(c) for c, j in image]
    form = pairing_form(14, [
        (image[i][1], image[10 + i][1], s * image[i][0] * image[10 + i][0]) for i, s in enumerate(signs)
    ])
    return [p.substitute(forms) for p in polys], form


def grl36() -> CatalogEntry:
    """Gr_L(3,6) as the 21 transcribed quadrics, under the restricted form."""
    polys = [parse_poly(l.strip(), 14) for l in read("grl36.txt") if l.strip() and not l.startswith("#")]
    assert len(polys) == 21
    return CatalogEntry(
        VarietyPresentation("grl36", substituted_gr36()[1], polys), "transcribed", _unit_point(14),
        "reduction of the Gr(3,6) quadrics along six linear relations; "
        "the base point is the y0 unit vector.",
        checksum=PINS["grl36.txt"],
    )
