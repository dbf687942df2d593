"""Every public name of the library has a reader, or a stated reason to stay.

A public top-level function, class or constant of ``src/privfp`` must be
referenced somewhere in ``src/privfp`` or ``benchmarks/*.py`` beyond its own
definition: as a name, an attribute, an imported name, or (in
``benchmarks/``, whose tracer looks functions up by name) a string. Names
that only tests, an acceptance criterion or a planned ROADMAP direction read
are listed in ``KEPT`` with that reason; anything else is dead surface.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "privfp").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

KEPT = {
    "consensus_as_general": "criterion 7 runs the general splitting as the consensus problem",
    "general_admm_step": "criterion 7 steps the general splitting",
    "QuadraticRankOneProx": "criterion 7 builds its per-user proxes from it",
    "ZeroProx": "criterion 7's identity regularizer",
    "BernoulliPerBlock": "criterion 6 runs the engine under it",
    "dpsgd_instance": "criterion 3 builds its cyclic SGD run from it",
    "sensitivity_general": "the audit of general_admm_step's displacement reads it",
    "participation_counts": "direction 2 charges the walk its participation counts",
    "gradient_step_operator": "direction 4 reads the kind it declares (Contractive if mu > 0)",
    "utility_bound": "direction 4 logs it beside the realized error",
    "step_size_range": "direction 4 decides which utility step sizes it reads",
    "recommended_step_size": "direction 4 decides which utility step sizes it reads",
}


def _defined(stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _references(node, strings: bool) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _scan():
    """(public names of the library, names referenced outside their own definition)."""
    public, referenced = set(), set()
    for path in LIBRARY + BENCHMARKS:
        in_library = path in LIBRARY
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined(stmt) if in_library else []
            public.update(own)
            referenced |= _references(stmt, strings=not in_library) - set(own)
    return public, referenced


def test_every_public_name_has_a_reader_or_a_reason():
    public, referenced = _scan()
    unread = sorted(public - referenced - set(KEPT))
    assert unread == [], f"public names with no reader in src/privfp or benchmarks: {unread}"


def test_every_kept_name_exists_and_still_needs_its_reason():
    public, referenced = _scan()
    assert sorted(set(KEPT) - public) == []
    assert sorted(set(KEPT) & referenced) == []
