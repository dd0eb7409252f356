"""The per-layer metrics of `perfbench` read the program through the hooks of
`perfbench/tracing.py`: each names an attribute of a module, and a counter
reads what the wrapped call returns.  A hook whose target is gone, or a
return value a counter no longer reads, makes its metric read 0 with no
error, so these tests pin both: the unresolved targets stay among the nine
known ones, and the counters still count."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from legquad import catalog
from legquad.groebner import buchberger
from legquad.liealg import close_and_present

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Targets that no module has or imports any more; each span reads 0.
KNOWN_MISSING = {
    "legquad.cli.cartan_subalgebra", "legquad.cli.root_decomposition",
    "legquad.legendrian.buchberger", "legquad.legendrian.normal_form",
    "legquad.legendrian.poisson_bracket", "legquad.linalg.rref",
    "legquad.classify.is_multiplicity_free", "legquad.classify.weyl_dimension",
    "legquad.classify.cone_orbit_dimension",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_hook_target_resolves_but_the_known_missing():
    hooks = _tracing().HOOKS
    missing = {f"{module}.{path}" for module, path, *_ in hooks if not _resolves(module, path)}
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)


def test_counters_read_a_presentation_and_a_basis():
    tracing = _tracing()
    pres = catalog.get_entry("twisted-cubic").presentation
    counts = defaultdict(int)
    algebra = close_and_present(pres.generators, pres.form)
    tracing.count_structure(counts, algebra)
    tracing.count_basis(counts, buchberger(pres.generators, pres.nvars))
    assert counts["liealg.structure_constants"] == sum(len(col) for col in algebra.structure.values()) > 0
    assert (counts["groebner.basis_size"], counts["groebner.basis_max_degree"]) == (3, 2)
