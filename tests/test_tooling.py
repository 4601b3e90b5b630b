"""The traced benchmark rebinds package functions by name, so every
``(module, attr)`` it lists must exist: a rename or deletion in the package
would otherwise break every ``--trace 1`` run with ``AttributeError``.  Its
emission counts read the arguments and results of ``write_csv`` and
``line_chart``, so they are checked against the files a real run writes."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tcm_entangle import analysis, analytic, cli, figures, model, verify  # noqa: F401  (cli loads every traced module)
from tcm_entangle.analysis import TracePath
from tcm_entangle.config import RunConfig
from tcm_entangle.model import Family, InitialStateSpec, ModelParams

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``selftest``, ``workloads`` and ``tracer``, imported by the
    names the harness imports them by."""
    sys.path.insert(0, str(_TRACER.parent))
    try:
        return SimpleNamespace(**{name: importlib.import_module(name)
                                  for name in ("selftest", "workloads", "tracer")})
    finally:
        sys.path.remove(str(_TRACER.parent))


_ZERO_LAYERS = pytest.mark.xfail(strict=True, raises=AssertionError,
                                 reason="ROADMAP item 2(b)")


@pytest.mark.parametrize("workload", [pytest.param("fig2-both", marks=_ZERO_LAYERS),
                                      "sweep-psi-svg",
                                      pytest.param("verify", marks=_ZERO_LAYERS),
                                      "analysis-scan"])
def test_selftest_layer_metrics_above_zero(perfbench, tmp_path, workload):
    # the harness self-test's "layer metrics above zero" check, on one traced
    # command of the workload at its tiny size
    pkg = SimpleNamespace(cli=cli, analysis=analysis, model=model)
    job = perfbench.workloads.build_job(workload, pkg, 7, tmp_path, "tiny")
    job.prepare()
    tracer = perfbench.tracer.Tracer()
    tracer.install()
    try:
        raw = tracer.command(job.kind, job.run)
    finally:
        tracer.uninstall()
    problems = job.check(raw, job.collect(raw))
    if problems:   # a failed command is not the known defect
        pytest.fail(f"{workload}: {problems}")
    metrics = tracer.per_command_metrics()[0]
    assert [m for m in perfbench.selftest.EXPECTED_LAYERS[workload] if not metrics[m] > 0] == []


@pytest.mark.parametrize("module,attr", [layer[:2] for layer in _load_tracer().LAYERS])
def test_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"tcm_entangle.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


def test_emission_counts_match_written_files(tmp_path):
    # figures.csv_rows reads len(columns[0]) and figures.csv_bytes the file
    # written; svgplot.svg_bytes the length of the returned document
    tracer = _load_tracer().Tracer()
    config = RunConfig(family=Family.PHI, alpha_list=(0.3, 0.5), epsilon_list=(0.0, 2.0),
                       T_max=20.0, n_points=300, output_dir=str(tmp_path), emit_svg=True)
    tracer.install()
    try:
        tracer.command("fig2", lambda: figures.run(config))
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    csvs = list(tmp_path.glob("*.csv"))
    svgs = list(tmp_path.glob("*.svg"))
    assert len(csvs) == 5 and len(svgs) == 2
    rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in csvs)
    assert rows > 4 * 300
    assert counts["figures.csv_rows"] == rows
    assert counts["figures.csv_bytes"] == sum(p.stat().st_size for p in csvs)
    assert counts["svgplot.svg_bytes"] == sum(p.stat().st_size for p in svgs)


@pytest.mark.parametrize("path", [TracePath.ORACLE, TracePath.BOTH], ids=lambda p: p.value)
def test_evolve_points_count_every_grid_point(tmp_path, path):
    # propagator.evolve_points reads the size of evolve_grid's third
    # argument, so propagating fewer components must not change the count
    tracer = _load_tracer().Tracer()
    config = RunConfig(family=Family.PHI, alpha_list=(0.3, 0.5, 0.7), epsilon_list=(0.0, 2.0),
                       T_max=20.0, n_points=250, path=path, output_dir=str(tmp_path))
    tracer.install()
    try:
        tracer.command("fig2", lambda: figures.run(config))
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    assert counts["propagator.evolve_points"] == 250 * 3 * 2


def test_both_certificate_is_booked_to_its_trace(tmp_path):
    # the BOTH certificate runs inside analysis.concurrence_trace, so its
    # propagation is timed under the trace span, not as the command's own time
    tracer = _load_tracer().Tracer()
    config = RunConfig(family=Family.PHI, alpha_list=(0.3, 0.5), epsilon_list=(0.0, 2.0),
                       T_max=20.0, n_points=250, path=TracePath.BOTH,
                       output_dir=str(tmp_path))
    tracer.install()
    try:
        tracer.command("fig2", lambda: figures.run(config))
    finally:
        tracer.uninstall()
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = [names[parent] for _, name, _, _, parent, _ in tracer.spans
               if name == "propagator.evolve"]
    assert parents == ["analysis.trace"] * 4


@pytest.mark.parametrize("family", list(Family))
def test_max_concurrence_evaluations(family):
    # analysis.max_evals counts the closed-form calls under max_concurrence:
    # a few 33-point passes, where golden section made 52 scalar calls
    trace = analysis.concurrence_trace(InitialStateSpec(family, 0.3),
                                       ModelParams(epsilon=1.0),
                                       np.linspace(0.0, 40.0, 4000))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.command("scan", lambda: analysis.max_concurrence(trace))
    finally:
        tracer.uninstall()
    assert 1 <= tracer.per_command_metrics()[0]["analysis.max_evals"] <= 12


def test_amplitude_counts_of_a_multi_alpha_scan(monkeypatch):
    # the store of alpha-free terms must not change what
    # analytic.amplitude_calls and analytic.amplitude_points count: every
    # trace still calls the amplitudes on its whole grid, empty store or
    # filled (the counts are those of the same scan before the store
    # existed, with the window
    # edges bisected in speculated rounds and no call on an empty set of
    # brackets; the seven windows that hold only one or two grid points
    # add 9 calls on 765 points to the 143 calls on 12,088 points of a scan
    # that dropped them)
    grid = np.linspace(0.0, 40.0, 400)

    def scan():
        for family in Family:
            for alpha in (0.3, 0.7, 1.1):
                for eps in (0.5, 2.5):
                    trace = analysis.concurrence_trace(
                        InitialStateSpec(family, alpha),
                        ModelParams(epsilon=eps), grid)
                    analysis.detect_death_intervals(trace)
                    analysis.max_concurrence(trace)
                    analysis.estimate_period(trace)

    monkeypatch.setattr(analytic, "_STORE", {})
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.command("scan", scan)
        tracer.command("scan", scan)
    finally:
        tracer.uninstall()
    for metrics in tracer.per_command_metrics():
        assert metrics["analysis.trace_calls"] == 12
        assert metrics["analytic.amplitude_calls"] == 152
        assert metrics["analytic.amplitude_points"] == 12853


def test_amplitude_counts_of_batched_refinement(tmp_path):
    # figures.run refines the windows of every alpha of one epsilon in shared
    # closed-form calls: 6 whole-grid trace calls and 14 refinement calls,
    # where refining each trace alone makes 38 (with one bisection step per
    # call: 71 and 210); each bracket evaluates the same points either way
    alphas = (math.pi / 12, math.pi / 8, math.pi / 6)
    config = RunConfig(family=Family.PHI, alpha_list=alphas, epsilon_list=(0.0, 2.0),
                       T_max=20.0, n_points=300, output_dir=str(tmp_path))

    def alone():
        for eps in config.epsilon_list:
            for alpha in alphas:
                analysis.detect_death_intervals(analysis.concurrence_trace(
                    InitialStateSpec(Family.PHI, alpha), ModelParams(epsilon=eps),
                    np.linspace(0.0, 20.0, 300)))

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.command("fig2", lambda: figures.run(config))
        tracer.command("scan", alone)
    finally:
        tracer.uninstall()
    batched, one_trace = tracer.per_command_metrics()
    assert batched["analytic.amplitude_calls"] == 20
    assert one_trace["analytic.amplitude_calls"] == 44
    assert batched["analytic.amplitude_points"] == one_trace["analytic.amplitude_points"]


def test_flags_reach_write_csv_as_text(tmp_path, monkeypatch):
    # in_death_window and refined are handed over as bytes from a 0/1
    # table, so only number columns go through _number_cells: 5 in each of
    # 4 curve files and 5 in intervals.csv, where numeric flags made 30, and
    # the T column once per run, as bytes that every file copies
    calls, flags = [], []
    number_cells, write_csv = figures._number_cells, figures.write_csv

    def counted(values):
        calls.append(values.size)
        return number_cells(values)

    def recorded(path, header, columns):
        flags.extend(columns[header.index(n)] for n in ("in_death_window", "refined")
                     if n in header)
        return write_csv(path, header, columns)

    monkeypatch.setattr(figures, "_number_cells", counted)
    monkeypatch.setattr(figures, "write_csv", recorded)
    config = RunConfig(family=Family.PHI, alpha_list=(0.3, 0.5), epsilon_list=(0.0, 2.0),
                       T_max=20.0, n_points=300, output_dir=str(tmp_path))
    figures.run(config)
    assert len(calls) == 26 and len(flags) == 5
    cells = [cell for column in flags for cell in column]
    assert {column.dtype.kind for column in flags} == {"S"}
    assert set(cells) == {b"0", b"1"}


def test_sweep_encodes_T_once_and_formats_only_exponent_cells(tmp_path, monkeypatch):
    # a benchmark-shaped sweep (4 alpha x 3 epsilon, 4,000 points) encodes
    # its T column once, and every file copies those bytes; the byte kernel
    # writes every number in [1e-4, 1e15) and every zero, so only numbers
    # that %.15g writes in exponent form reach NUMBER_FORMAT
    encoded, shared, formatted = [], [], []
    number_text, write_csv = figures._number_text, figures.write_csv

    class Recorded(str):
        def __mod__(self, value):
            formatted.append(value)
            return str.__mod__(self, value)

    def counted(values):
        encoded.append(values.size)
        return number_text(values)

    def recorded(path, header, columns):
        shared.append(columns[0])
        return write_csv(path, header, columns)

    monkeypatch.setattr(figures, "NUMBER_FORMAT", Recorded(figures.NUMBER_FORMAT))
    monkeypatch.setattr(figures, "_number_text", counted)
    monkeypatch.setattr(figures, "write_csv", recorded)
    config = RunConfig(family=Family.PSI, alpha_list=(0.27, 0.52, 1.05, 1.31),
                       epsilon_list=(0.5, 1.5, 2.5), T_max=40.0, n_points=4000,
                       output_dir=str(tmp_path), emit_svg=True)
    figures.run(config)
    assert encoded == [4000] and len(shared) == 12
    assert shared[0].dtype.kind == "S" and all(column is shared[0] for column in shared)
    assert all(not (1e-4 <= abs(v) < 1e15 or v == 0) for v in formatted)


def test_verify_draws_once_and_walks_each_support_once(monkeypatch):
    # the 40 Haar unitaries of an evolution come from one stacked QR, and
    # the basis of each of verify.run_all's models walks SUPPORT_KETS once
    # per family:
    # 3 bases x (3 + 5) kets, where every state built walked them anew
    counts = {"qr": 0, "index": 0}
    qr, index = np.linalg.qr, model.Basis.index

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        return qr(*args, **kwargs)

    def counted_index(self, *args):
        counts["index"] += 1
        return index(self, *args)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(model.Basis, "index", counted_index)
    results = verify.run_all()
    assert all(r.passed for r in results)
    assert counts["qr"] <= 2
    assert counts["index"] <= 3 * (3 + 5)


@pytest.mark.parametrize("fragment", ["must lie in [0, pi/2]", "must be >= 0, got",
                                      "must be finite, got", "T_grid must be",
                                      "must be an integer", "must be complex numbers",
                                      "must be a TracePath member",
                                      "must lie within float range"])
def test_each_input_rule_is_written_once(fragment):
    # every boundary calls the rule in model, so no second copy can drift
    # from it; a message fragment found in another module is such a copy
    package = Path(model.__file__).parent
    owners = [p.name for p in sorted(package.glob("*.py"))
              if fragment in p.read_text(encoding="utf-8")]
    assert owners == ["model.py"]


@pytest.mark.parametrize("expression", ["math.sqrt(8.0 + epsilon * epsilon)",
                                        "math.sqrt(16.0 + epsilon * epsilon)"])
def test_each_rate_is_written_once(expression):
    # kappa and eta are computed in analytic._rates alone, which the closed
    # forms and estimate_period read, so no copy can drift from it
    package = Path(model.__file__).parent
    owners = [p.name for p in sorted(package.glob("*.py"))
              for _ in range(p.read_text(encoding="utf-8").count(expression))]
    assert owners == ["analytic.py"]


@pytest.mark.parametrize("module", ["hamiltonian.py", "propagator.py"])
def test_the_propagation_route_reads_no_closed_form_rate(module):
    # the two routes stay independent: exact propagation derives its
    # frequencies from H/g alone
    assert "_rates" not in (Path(model.__file__).parent / module).read_text(encoding="utf-8")


def _package_functions():
    """(qualified name, function) of every function and method defined in
    the package, properties and cached properties by their getter."""
    package = Path(model.__file__).parent
    for path in sorted(package.glob("*.py")):
        name = "tcm_entangle" if path.stem == "__init__" else f"tcm_entangle.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                member = getattr(member, "fget", getattr(member, "func", member))
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{member.__qualname__}", member


def _annotation(parameter) -> str:
    ann = parameter.annotation
    return (ann if isinstance(ann, str) else getattr(ann, "__name__", "")).rsplit(".", 1)[-1]


def test_a_model_is_handed_over_as_its_params_only():
    # a basis or decomposition passed beside the ModelParams it was built
    # from can disagree with it; each is derived from the params instead
    pairs = []
    for name, fn in _package_functions():
        parameters = inspect.signature(fn).parameters.values()
        takes_params = ".ModelParams." in name or any(
            _annotation(p) == "ModelParams" for p in parameters)
        derived = [p.name for p in parameters
                   if p.name in ("basis", "model", "decomp")
                   or _annotation(p) in ("Basis", "SpectralDecomposition")]
        if takes_params and derived:
            pairs.append((name, derived))
    assert len(list(_package_functions())) > 80
    assert pairs == []


def test_a_model_is_built_and_decomposed_in_model_only():
    # H/g and its decomposition are ModelParams.hamiltonian and
    # .decomposition; a call elsewhere would build a second copy of either
    package = Path(model.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("build_hamiltonian", "jacobi_eigh"):
                    callers.add((path.name, name))
    assert callers == {("model.py", "build_hamiltonian"), ("model.py", "jacobi_eigh")}


def test_a_state_gives_its_own_layout():
    # a state's length fixes its field dimension, so a basis passed beside a
    # parameter named psi could only disagree with it
    takes_psi, pairs = [], []
    for name, fn in _package_functions():
        parameters = inspect.signature(fn).parameters.values()
        if any(p.name == "psi" for p in parameters):
            takes_psi.append(name)
            pairs += [(name, p.name) for p in parameters
                      if p.name == "basis" or _annotation(p) == "Basis"]
    assert {"tcm_entangle.entanglement.pure_concurrence",
            "tcm_entangle.entanglement.reduce_to_atoms"} <= set(takes_psi)
    assert pairs == []


def test_a_trace_copies_no_field_of_its_spec_or_params():
    # a trace holds its InitialStateSpec and ModelParams; a copied field
    # would be a second source for the same value
    trace = {f.name for f in dataclasses.fields(analysis.ConcurrenceTrace)}
    owned = {f.name for owner in (InitialStateSpec, ModelParams)
             for f in dataclasses.fields(owner)}
    assert trace & owned == set()
    assert {"spec", "params"} <= trace


#: top-level names of the package that nothing in src/ uses, each with the
#: reason it stays; the test below keeps this list exact
_ONLY_TESTS_CALL = {
    "wootters_concurrence": "ROADMAP item 9 deletes it once item 2 drops it from "
                            "perfbench's tracer.LAYERS",
    "xstate_concurrence": "ROADMAP item 9, blocked on item 2 like wootters_concurrence",
    "evolve": "ROADMAP item 9, blocked on item 2 like wootters_concurrence",
    "detect_death_intervals": "ROADMAP item 3 gives it a caller (one findings pass)",
    "max_concurrence": "ROADMAP item 3 gives it a caller (one findings pass)",
    "estimate_period": "ROADMAP item 3 gives it a caller (one findings pass)",
}


def test_every_source_function_has_a_source_caller():
    # a top-level function or class must be used in src/ outside its own
    # definition; the imports and __all__ of __init__ do not count
    package = Path(model.__file__).parent
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            defined |= {own} - {None}
            used |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    assert len(defined) > 100
    assert defined - used == set(_ONLY_TESTS_CALL)
    assert all(reason for reason in _ONLY_TESTS_CALL.values())
