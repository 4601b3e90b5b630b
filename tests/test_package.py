import functools
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tcm_entangle
from tcm_entangle import (analytic, config, entanglement, figures, hamiltonian, model,
                          propagator, svgplot)
from tcm_entangle.analysis import TracePath
from tcm_entangle.config import ConfigError, RunConfig

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(set(tcm_entangle.__all__)) == len(tcm_entangle.__all__)
    assert [n for n in tcm_entangle.__all__ if not hasattr(tcm_entangle, n)] == []


def test_readme_entry_points_resolve():
    # the paragraph from "Key entry points:" to the next blank line
    text = _README.read_text(encoding="utf-8")
    paragraph = text[text.index("Key entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) > 10
    assert [n for n in names if not hasattr(tcm_entangle, n)] == []


def test_readme_library_example_runs(capsys):
    # the python block of the "## Library" section, run as written
    text = _README.read_text(encoding="utf-8")
    block = text[text.index("## Library"):].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out.startswith("[DeathInterval(T_start=")


def test_star_import():
    namespace = {}
    exec("from tcm_entangle import *", namespace)
    assert set(tcm_entangle.__all__) <= set(namespace)


def _trace():
    spec = tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3)
    params = tcm_entangle.ModelParams()
    return tcm_entangle.concurrence_trace(spec, params, np.linspace(0.0, 10.0, 101))


def _phi_model():
    params = tcm_entangle.ModelParams()
    spec = tcm_entangle.InitialStateSpec(tcm_entangle.Family.PHI, 0.3)
    return (tcm_entangle.initial_state(spec, params.basis),
            params.decomposition)


#: (call, exception, text the message must hold): a bad value at a public
#: boundary raises and names the argument, where it used to compute on
_BAD_INPUT = {
    "angle pi/0": (lambda: config.parse_angle("pi/0"), ConfigError, "'pi/0'"),
    "angle pi/0.0": (lambda: config.parse_angle("pi/0.0"), ConfigError, "'pi/0.0'"),
    "angle 0*pi/0": (lambda: config.parse_angle("0*pi/0"), ConfigError, "'0\\*pi/0'"),
    "family text in spec": (lambda: tcm_entangle.InitialStateSpec("PSI", 0.3),
                            TypeError, "family"),
    "family text in amplitudes": (lambda: analytic.amplitudes("PSI", 0.3, 0.0, 2.0, [1.0]),
                                  TypeError, "family"),
    "alpha True in spec": (lambda: tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, True),
                           TypeError, "alpha"),
    "alpha text in spec": (lambda: tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, "0.3"),
                           TypeError, "alpha"),
    "amplitudes alpha complex": (lambda: analytic.psi_amplitudes(1j, 0.0, [1.0]),
                                 TypeError, "alpha"),
    "path text in config": (lambda: RunConfig(path="BOTH"), TypeError, "path"),
    "path text": (lambda: tcm_entangle.concurrence_trace(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3),
        tcm_entangle.ModelParams(), [1.0, 2.0], "ANALYTIC"),
        TypeError, "path"),
    "trace params None": (lambda: tcm_entangle.concurrence_trace(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3), None, [1.0, 2.0]),
        TypeError, "^params must be a ModelParams, got None"),
    "trace spec tuple": (lambda: tcm_entangle.concurrence_trace(
        (tcm_entangle.Family.PSI, 0.3), tcm_entangle.ModelParams(), [1.0, 2.0]),
        TypeError, "^spec must be an InitialStateSpec, got "),
    "closed_form_states params None": (lambda: analytic.closed_form_states(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3), None, [1.0, 2.0]),
        TypeError, "^params must be a ModelParams"),
    "occupied_states spec tuple": (lambda: tcm_entangle.analysis.occupied_states(
        (tcm_entangle.Family.PHI, 0.3), tcm_entangle.ModelParams(), np.array([1.0, 2.0])),
        TypeError, "^spec must be an InitialStateSpec"),
    "analytic_concurrence None": (lambda: tcm_entangle.analysis.analytic_concurrence(
        None, [1.0]), TypeError, "^trace must be a ConcurrenceTrace, got None"),
    "max_concurrence None": (lambda: tcm_entangle.max_concurrence(None), TypeError,
                             "^trace must be a ConcurrenceTrace, got None"),
    "estimate_period tuple": (lambda: tcm_entangle.estimate_period(
        (np.linspace(0.0, 10.0, 101), np.zeros(101))), TypeError,
        "^trace must be a ConcurrenceTrace, got "),
    "detect_death_intervals None": (lambda: tcm_entangle.detect_death_intervals(None),
                                    TypeError, "^trace must be a ConcurrenceTrace, got None"),
    "death_windows element None": (lambda: tcm_entangle.death_windows([_trace(), None]),
                                   TypeError, "^trace must be a ConcurrenceTrace, got None"),
    "n_max 2.5": (lambda: tcm_entangle.ModelParams(n_max=2.5), TypeError, "n_max"),
    "n_max True": (lambda: tcm_entangle.Basis(True), TypeError, "n_max"),
    "n_max above cap": (lambda: tcm_entangle.ModelParams(n_max=model.MAX_N_MAX + 1),
                        ValueError, "n_max"),
    "basis above cap": (lambda: tcm_entangle.Basis(model.MAX_N_MAX + 1), ValueError, "n_max"),
    "grid nan": (lambda: tcm_entangle.evolve_grid(*_phi_model(), [0.0, math.nan]),
                 ValueError, "T_grid"),
    "grid inf": (lambda: tcm_entangle.evolve_grid(*_phi_model(), [0.0, math.inf]),
                 ValueError, "T_grid"),
    "evolve_grid psi0 length": (lambda: tcm_entangle.evolve_grid(
        np.ones(5), _phi_model()[1], [0.0, 1.0]), ValueError, "^psi0 must be a vector of length 36"),
    "initial_state spec text": (lambda: tcm_entangle.initial_state("PSI", tcm_entangle.Basis(2)),
                                TypeError, "^spec must be an InitialStateSpec, got 'PSI'"),
    "initial_state params for basis": (lambda: tcm_entangle.initial_state(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3), tcm_entangle.ModelParams()),
        TypeError, "^basis must be a Basis, got ModelParams"),
    "evolve_grid decomp None": (lambda: tcm_entangle.evolve_grid(
        _phi_model()[0], None, [0.0, 1.0]), TypeError,
        "^decomp must be a SpectralDecomposition, got None"),
    "build_hamiltonian None": (lambda: hamiltonian.build_hamiltonian(None), TypeError,
                               "^params must be a ModelParams, got None"),
    "check_conservation basis None": (lambda: hamiltonian.check_conservation(
        np.zeros((36, 36)), None), TypeError, "^basis must be a Basis, got None"),
    "check_conservation H size": (lambda: hamiltonian.check_conservation(
        np.zeros((4, 4)), tcm_entangle.Basis(2)), ValueError,
        r"^H must be basis.size = 36 square, got shape \(4, 4\)"),
    "check_conservation H not square": (lambda: hamiltonian.check_conservation(
        np.zeros((36, 4)), tcm_entangle.Basis(2)), ValueError, "^H must be basis.size = 36"),
    "evolve psi0 length": (lambda: tcm_entangle.evolve(np.ones(5), _phi_model()[1], 1.0),
                           ValueError, "^psi0 must be a vector of length 36, got \\(5,\\)"),
    "evolve T nan": (lambda: tcm_entangle.evolve(*_phi_model(), math.nan),
                     ValueError, "^T must be finite"),
    "evolve T inf": (lambda: tcm_entangle.evolve(*_phi_model(), math.inf),
                     ValueError, "^T must be finite"),
    "threshold nan": (lambda: tcm_entangle.detect_death_intervals(_trace(), math.nan),
                      ValueError, "zero_threshold"),
    "threshold -1": (lambda: tcm_entangle.detect_death_intervals(_trace(), -1.0),
                     ValueError, "zero_threshold"),
    "threshold inf": (lambda: tcm_entangle.detect_death_intervals(_trace(), math.inf),
                      ValueError, "zero_threshold"),
    "threshold True": (lambda: tcm_entangle.detect_death_intervals(_trace(), True),
                       TypeError, "zero_threshold"),
    "threshold text": (lambda: tcm_entangle.detect_death_intervals(_trace(), "1e-9"),
                       TypeError, "zero_threshold"),
    "n_points 300.0": (lambda: RunConfig(n_points=300.0), TypeError, "n_points"),
    "n_points True": (lambda: RunConfig(n_points=True), TypeError, "n_points"),
    "empty alpha_list": (lambda: RunConfig(alpha_list=()), ConfigError, "alpha_list"),
    "empty epsilon_list": (lambda: RunConfig(epsilon_list=()), ConfigError, "epsilon_list"),
    "photon number 0.5": (lambda: tcm_entangle.Basis(2).index("e", "g", 0.5, 0),
                          TypeError, "n_a"),
    "photon number True": (lambda: tcm_entangle.Basis(2).index("e", "g", True, 0),
                           TypeError, "n_a"),
    "photon number 1.0": (lambda: tcm_entangle.Basis(2).index("e", "g", 0, 1.0),
                          TypeError, "n_b"),
    "T_max True": (lambda: RunConfig(T_max=True), TypeError, "T_max"),
    "zero_threshold True": (lambda: RunConfig(zero_threshold=True), TypeError,
                            "zero_threshold"),
    "epsilon True": (lambda: tcm_entangle.ModelParams(epsilon=True), TypeError, "epsilon"),
    "epsilon text": (lambda: tcm_entangle.ModelParams(epsilon="1"), TypeError, "epsilon"),
    "lam text": (lambda: tcm_entangle.ModelParams(lam="2"), TypeError, "lam"),
    "family text in config": (lambda: RunConfig(family="PSI"), TypeError, "family"),
    "emit_svg text": (lambda: RunConfig(emit_svg="no"), TypeError, "emit_svg"),
    "output_dir number": (lambda: RunConfig(output_dir=1), TypeError, "output_dir"),
    "output_dir None": (lambda: RunConfig(output_dir=None), TypeError, "output_dir"),
    "alpha_list number": (lambda: RunConfig(alpha_list=0.3), TypeError, "alpha_list"),
    "epsilon_list number": (lambda: RunConfig(epsilon_list=2.0), TypeError, "epsilon_list"),
    "alpha_list text": (lambda: RunConfig(alpha_list="0.3"), TypeError, "alpha_list"),
    "amplitudes epsilon True": (lambda: analytic.psi_amplitudes(0.3, True, [1.0]),
                                TypeError, "epsilon"),
    "amplitudes epsilon text": (lambda: analytic.phi_amplitudes(0.3, "1", 2.0, [1.0]),
                                TypeError, "epsilon"),
    "amplitudes epsilon complex": (lambda: analytic.psi_amplitudes(0.3, 1j, [1.0]),
                                   TypeError, "epsilon"),
    "amplitudes lam True": (lambda: analytic.phi_amplitudes(0.3, 1.0, True, [1.0]),
                            TypeError, "lam"),
    "amplitudes lam text": (lambda: analytic.amplitudes(tcm_entangle.Family.PSI, 0.3, 0.0,
                                                        "2", [1.0]),
                            TypeError, "lam"),
    "figures.run None": (lambda: figures.run(None), TypeError,
                         "^config must be a RunConfig, got None"),
    "death_windows None": (lambda: tcm_entangle.death_windows(None), TypeError,
                           "^traces must be an iterable of ConcurrenceTrace, got None"),
    "parse_config None": (lambda: config.parse_config(None), TypeError,
                          "^text must be a str, got None"),
    "parse_angle None": (lambda: config.parse_angle(None), TypeError,
                         "^token must be a str, got None"),
    "require_grid text": (lambda: model.require_grid("x"), TypeError,
                          "^T_grid must be real numbers, got 'x'"),
    "trace grid text": (lambda: tcm_entangle.concurrence_trace(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3), tcm_entangle.ModelParams(),
        ["x"]), TypeError, r"^T_grid must be real numbers, got \['x'\]"),
    "evolve_grid grid object": (lambda: tcm_entangle.evolve_grid(*_phi_model(), object()),
                                TypeError, "^T_grid must be real numbers"),
    "amplitudes T text": (lambda: analytic.phi_amplitudes(0.3, 0.0, 2.0, "x"), TypeError,
                          "^T must be real numbers, got 'x'"),
    "jacobi_eigh None": (lambda: propagator.jacobi_eigh(None), ValueError,
                         r"^H must be a square matrix, got shape \(\)"),
    "require_grid None": (lambda: model.require_grid(None), TypeError,
                          "^T_grid must be real numbers, got None"),
    "amplitudes T None": (lambda: analytic.psi_amplitudes(0.3, 0.0, None), TypeError,
                          "^T must be real numbers, got None"),
    "pure_concurrence text": (lambda: entanglement.pure_concurrence("x"), TypeError,
                              "^psi must be complex numbers, got 'x'"),
    "pure_concurrence None": (lambda: entanglement.pure_concurrence(None), TypeError,
                              "^psi must be complex numbers, got None"),
    # numpy reads a None among numbers as NaN
    "amplitudes T holds None": (lambda: analytic.psi_amplitudes(0.3, 0.0, [1.0, None]),
                                TypeError, r"^T must be real numbers, got \[1.0, None\]"),
    "amplitudes T object array": (lambda: analytic.phi_amplitudes(
        0.3, 0.0, 2.0, np.array([None, 1.0])), TypeError, "^T must be real numbers"),
    "trace grid holds None": (lambda: tcm_entangle.concurrence_trace(
        tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, 0.3), tcm_entangle.ModelParams(),
        [0.0, None]), TypeError, "^T_grid must be real numbers"),
    "pure_concurrence holds None": (lambda: entanglement.pure_concurrence([1.0, None, 0, 0]),
                                    TypeError, "^psi must be complex numbers"),
    "pure_concurrence stack holds None": (lambda: entanglement.pure_concurrence(
        [[1.0, 0, 0, 0], [0, 0, None, 1.0]]), TypeError, "^psi must be complex numbers"),
    # numbers are never read from text, and a complex T is not a real one
    "amplitudes T numeric text": (lambda: analytic.psi_amplitudes(0.3, 0.0, ["1.5"]),
                                  TypeError, r"^T must be real numbers, got \['1.5'\]"),
    "amplitudes T numeric str": (lambda: analytic.psi_amplitudes(0.3, 0.0, "1.5"), TypeError,
                                 "^T must be real numbers, got '1.5'"),
    "amplitudes T complex": (lambda: analytic.psi_amplitudes(0.3, 0.0, np.array([1 + 1j])),
                             TypeError, r"^T must be real numbers, got array\(\[1.\+1.j\]\)"),
    "require_grid numeric text": (lambda: model.require_grid(["0", "1.5"]), TypeError,
                                  "^T_grid must be real numbers"),
    "pure_concurrence numeric text": (lambda: entanglement.pure_concurrence(["1", "0", "0", "0"]),
                                      TypeError, "^psi must be complex numbers"),
    "reduce_to_atoms text": (lambda: entanglement.reduce_to_atoms("x"), TypeError,
                             "^psi must be complex numbers, got 'x'"),
    "reduce_to_atoms object": (lambda: entanglement.reduce_to_atoms(object()), TypeError,
                               "^psi must be complex numbers, got <object"),
    "reduce_to_atoms numeric text": (lambda: entanglement.reduce_to_atoms(["1"] * 36), TypeError,
                                     "^psi must be complex numbers"),
    "evolve_grid psi0 numeric text": (lambda: tcm_entangle.evolve_grid(
        ["1"] * 36, _phi_model()[1], [0.0, 1.0]), TypeError, "^psi0 must be complex numbers"),
    "wootters_concurrence rho None": (lambda: entanglement.wootters_concurrence(None), TypeError,
                                      "^rho must be complex numbers, got None"),
    "wootters_concurrence rho shape": (lambda: entanglement.wootters_concurrence(np.eye(2)),
                                       ValueError, r"^rho must be a 4x4 atomic density matrix"),
    "death_windows str": (lambda: tcm_entangle.death_windows("ab"), TypeError,
                          "^traces must be an iterable of ConcurrenceTrace, got 'ab'"),
    "line_chart no curves": (lambda: svgplot.line_chart([]), ValueError,
                             "^curves must hold at least one point, got none"),
    "line_chart no points": (lambda: svgplot.line_chart([("a", [], [])]), ValueError,
                             "^curves must hold at least one point, got none"),
    "line_chart numeric text": (lambda: svgplot.line_chart([("a", ["0", "1"], [0.0, 1.0])]),
                                TypeError, r"^curves\[0\] xs must be real numbers, got \['0', '1'\]"),
    "line_chart curve lengths": (lambda: svgplot.line_chart(
        [("a", [0.0, 1.0], [0.0, 1.0]), ("b", [0.0, 1.0], [0.0, 0.5, 1.0])]), ValueError,
        r"^curves\[1\] must have xs and ys of one shape, got \(2,\) and \(3,\)"),
}


@pytest.mark.filterwarnings("error")   # e.g. a ComplexWarning as numpy drops an imaginary part
@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_bad_input_is_rejected_by_name(case):
    call, error, name = _BAD_INPUT[case]
    with pytest.raises(error, match=name):
        call()


_PSI, _PHI = tcm_entangle.Family.PSI, tcm_entangle.Family.PHI


#: exports whose parameters are not checked, and why
_UNCHECKED_EXPORTS = {
    "ConcurrenceTrace": "a record that concurrence_trace builds from checked inputs",
    "DeathInterval": "a record that detect_death_intervals builds from a checked trace",
    "SpectralDecomposition": "a record that jacobi_eigh builds; evolve_grid checks its type",
    "Family": "an enum, which reads its own text: Family('x') raises enum's ValueError",
    "TracePath": "an enum, which reads its own text: TracePath('x') raises enum's ValueError",
}

#: the wrong kinds of value every public parameter must refuse
_WRONG_KINDS = {"None": None, "str": "x", "numeric str": "1.5", "object": object()}


@functools.cache
def _valid_arguments():
    """A valid value for each public parameter, by name."""
    params = tcm_entangle.ModelParams()
    spec = tcm_entangle.InitialStateSpec(_PHI, 0.3)
    state = tcm_entangle.initial_state(spec, params.basis)
    return {"n_max": 2, "family": _PSI, "alpha": 0.3, "epsilon": 0.0, "lam": 2.0,
            "params": params, "spec": spec, "basis": params.basis, "path": TracePath.ANALYTIC,
            "T_grid": np.linspace(0.0, 10.0, 101), "T": 1.0, "trace": _trace(),
            "traces": [_trace()], "zero_threshold": 1e-9, "H": params.hamiltonian,
            "decomp": params.decomposition, "psi0": state, "psi": state,
            "rho": np.diag([0.5, 0.0, 0.0, 0.5])}


def _public_parameters():
    for name in tcm_entangle.__all__:
        export = getattr(tcm_entangle, name)
        if callable(export) and name not in _UNCHECKED_EXPORTS:
            for parameter in inspect.signature(export).parameters:
                if not parameter.startswith("_"):
                    yield name, parameter


@pytest.mark.parametrize("kind", list(_WRONG_KINDS))
@pytest.mark.parametrize("export,parameter", list(_public_parameters()))
def test_every_public_parameter_refuses_the_wrong_kind_by_name(export, parameter, kind):
    # valid values everywhere else, so the error can only come from this parameter
    fn = getattr(tcm_entangle, export)
    arguments = {p: _valid_arguments()[p] for p in inspect.signature(fn).parameters
                 if not p.startswith("_")}
    arguments[parameter] = _WRONG_KINDS[kind]
    with pytest.raises((TypeError, ValueError)) as caught:
        fn(**arguments)
    assert re.search(rf"\b{parameter}\b", str(caught.value)), str(caught.value)


#: rule -> (bad values, [(field, boundary called with the value)]): every
#: boundary that takes a quantity calls the one rule of ``model``, so each
#: message is the field name followed by the same text
_SAME_RULE = {
    "alpha": ((-0.1, 2.0, math.nan, -math.inf), [
        ("alpha", lambda v: tcm_entangle.InitialStateSpec(_PSI, v)),
        ("alpha", lambda v: analytic.psi_amplitudes(v, 0.0, [1.0])),
        ("alpha", lambda v: analytic.phi_amplitudes(v, 0.0, 2.0, [1.0])),
        ("alpha", lambda v: analytic.amplitudes(_PHI, v, 0.0, 2.0, [1.0])),
        ("alpha_list value", lambda v: RunConfig(alpha_list=(v,))),
    ]),
    "epsilon": ((-1.0, math.nan, math.inf, -math.inf), [
        ("epsilon", lambda v: tcm_entangle.ModelParams(epsilon=v)),
        ("epsilon", lambda v: analytic.psi_amplitudes(0.3, v, [1.0])),
        ("epsilon", lambda v: analytic.phi_amplitudes(0.3, v, 2.0, [1.0])),
        ("epsilon_list value", lambda v: RunConfig(epsilon_list=(v,))),
    ]),
    "lam": ((math.nan, math.inf, -math.inf), [
        ("lam", lambda v: tcm_entangle.ModelParams(lam=v)),
        ("lam", lambda v: analytic.phi_amplitudes(0.3, 0.0, v, [1.0])),
        ("lam", lambda v: analytic.amplitudes(_PSI, 0.3, 0.0, v, [1.0])),
    ]),
    "positive": ((0.0, -1.0, math.nan, math.inf), [
        ("zero_threshold", lambda v: RunConfig(zero_threshold=v)),
        ("zero_threshold", lambda v: tcm_entangle.death_windows([_trace()], v)),
        ("zero_threshold", lambda v: tcm_entangle.detect_death_intervals(_trace(), v)),
        ("T_max", lambda v: RunConfig(T_max=v)),
    ]),
    "integer": ((2.5, True, "2"), [
        ("n_max", lambda v: tcm_entangle.ModelParams(n_max=v)),
        ("n_max", lambda v: tcm_entangle.Basis(v)),
        ("n_points", lambda v: RunConfig(n_points=v)),
        ("photon number n_a", lambda v: tcm_entangle.Basis(2).index("e", "g", v, 0)),
    ]),
    "grid": (([], np.zeros((2, 2)), [0.0, math.nan], [1.0, 0.0]), [
        ("T_grid", lambda v: tcm_entangle.concurrence_trace(
            tcm_entangle.InitialStateSpec(_PHI, 0.3), tcm_entangle.ModelParams(), v)),
        ("T_grid", lambda v: tcm_entangle.evolve_grid(*_phi_model(), v)),
        ("T_grid", lambda v: tcm_entangle.closed_form_states(
            tcm_entangle.InitialStateSpec(_PHI, 0.3), tcm_entangle.ModelParams(), v)),
    ]),
}


@pytest.mark.parametrize("rule,value", [(rule, v) for rule, (values, _) in _SAME_RULE.items()
                                        for v in values],
                         ids=lambda x: x if isinstance(x, str) and x in _SAME_RULE
                         else repr(np.asarray(x).tolist()))
def test_each_rule_is_worded_alike_at_every_boundary(rule, value):
    said = set()
    for field, call in _SAME_RULE[rule][1]:
        with pytest.raises((TypeError, ValueError)) as caught:
            call(value)
        message = str(caught.value)
        assert message.startswith(f"{field} "), message
        said.add((message[len(field):], isinstance(caught.value, ValueError)))
    assert len(said) == 1, said


@pytest.mark.parametrize("alpha", [np.float64(0.3), np.float32(0.3)],
                         ids=lambda a: type(a).__name__)
def test_numpy_real_alpha_accepted(alpha):
    spec = tcm_entangle.InitialStateSpec(tcm_entangle.Family.PSI, alpha)
    assert spec.alpha == alpha
    np.testing.assert_array_equal(analytic.psi_amplitudes(alpha, 0.0, [1.0]),
                                  analytic.psi_amplitudes(float(alpha), 0.0, [1.0]))
