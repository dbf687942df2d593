"""Every public name of the library has a reader, or a stated reason to stay.

A public top-level function, class or constant of ``src/privfp`` must be
referenced somewhere in ``src/privfp`` or ``benchmarks/*.py`` beyond its own
definition. Only a qualified reference counts: ``module.name`` through an
imported privfp module, an import of the name from its module, the bare name
inside its own module, or (in ``benchmarks/``, whose tracer looks functions up
by name) a string. So an attribute of another object that happens to share
the name (``config.step``) reads nothing. Names that only tests, an acceptance
criterion or a planned ROADMAP direction read are listed in ``KEPT`` with that
reason; anything else is dead surface. The same scan checks that only
``fixedpoint``'s schedules draw a round's participants, and that only ``rng``
turns a noise address into rows.
"""

import ast
import importlib.util
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
    "gaussian_rdp": "the Gaussian mechanism per order; tests check the formulas built on it",
    "subsampled_rdp": "criterion 4 checks its out-of-regime guards",
    "centralized_epsilon": "criterion 4 checks the per-order formula",
    "local_epsilon": "criterion 4 checks the per-order formula",
    "federated_central_epsilon": "criterion 4 checks the per-order formula and its guard",
    "network_rdp_epsilon": "criterion 4 checks the per-order formula and its guard",
    "participation_counts": "direction 2 charges the walk its participation counts",
    "gradient_step_operator": "direction 4 reads the kind it declares (Contractive if mu > 0)",
    "utility_bound": "direction 4 logs it beside the realized error",
    "step_size_range": "direction 4 decides which utility step sizes it reads",
    "recommended_step_size": "direction 4 decides which utility step sizes it reads",
    "step": "tests step the engine once; bench's config.step is another name",
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


def _source_module(node: ast.ImportFrom) -> str | None:
    """The privfp module a ``from ... import`` reads names from (None for the package or
    a module outside privfp)."""
    if node.level == 1 and node.module:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("privfp."):
        return node.module.partition(".")[2]
    return None


def _module_aliases(tree) -> dict[str, str]:
    """Local names the file binds to privfp modules (``from . import rng``,
    ``from privfp import admm``), wherever the import stands."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and ((node.level == 1 and node.module is None)
                 or (node.level == 0 and node.module == "privfp"))
            for alias in node.names}


def _file_references(path) -> tuple[set, set]:
    """(the (module, name) pairs a library file defines as public, the (module, name)
    pairs the file references beyond their own definitions). A string s of a
    benchmark file is the pair ("*", s)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = path.stem if path in LIBRARY else None
    aliases = _module_aliases(tree)
    public, referenced = set(), set()
    for stmt in tree.body:
        own = {(module, name) for name in _defined(stmt)} if module else set()
        public |= own
        found = set()
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id in aliases):
                found.add((aliases[sub.value.id], sub.attr))
            elif isinstance(sub, ast.ImportFrom) and _source_module(sub):
                found |= {(_source_module(sub), alias.name) for alias in sub.names}
            elif module and isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                found.add((module, sub.id))
            elif not module and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(("*", sub.value))
        referenced |= found - own
    return public, referenced


def _scan():
    """(the public (module, name) pairs of the library, those referenced outside their
    own definition)."""
    public, referenced = set(), set()
    for path in LIBRARY + BENCHMARKS:
        defined, found = _file_references(path)
        public |= defined
        referenced |= found
    return public, {(module, name) for module, name in public
                    if (module, name) in referenced or ("*", name) in referenced}


def test_every_public_name_has_a_reader_or_a_reason():
    public, read = _scan()
    unread = sorted({name for _, name in public - read} - set(KEPT))
    assert unread == [], f"public names with no reader in src/privfp or benchmarks: {unread}"


def test_every_kept_name_exists_and_still_needs_its_reason():
    public, read = _scan()
    assert sorted(set(KEPT) - {name for _, name in public}) == []
    assert sorted(set(KEPT) & {name for _, name in read}) == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    """``benchmarks/tracing.py`` wraps functions it looks up by name; a rename in the
    library would otherwise show only when the benchmark's own tests run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name, _ in tracing.privfp_targets()
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_only_fixedpoint_draws_a_rounds_participants():
    """A round's participants come from a ``fixedpoint`` schedule: outside ``rng`` and
    ``simnet``, which define them, no other module reads the schedule stream's domain or
    the cohort and walk draws."""
    draws = {("rng", "SCHEDULE"), ("simnet", "sample_users"), ("simnet", "walk_next")}
    readers = sorted(path.stem for path in LIBRARY if path.stem not in ("rng", "simnet")
                     and _file_references(path)[1] & draws)
    assert readers == ["fixedpoint"]


def test_only_rng_turns_a_noise_address_into_rows():
    """A run's noise rows come from ``rng.gaussian_rows``: outside ``rng`` no module reads
    the noise stream's domain or a private ``rng`` name, so only ``rng`` knows the counter
    layout of an address. The one exception is the schedules' stream, which ``fixedpoint``
    resets through ``rng._reset_to``."""
    readers = sorted((path.stem, name) for path in LIBRARY if path.stem != "rng"
                     for module, name in _file_references(path)[1]
                     if module == "rng" and (name == "NOISE" or name.startswith("_")))
    assert readers == [("fixedpoint", "_reset_to")]
