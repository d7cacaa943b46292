"""Command-line dispatch: records, serialization, sweeps, exit codes."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinphase import (
    DomainError,
    RunRecord,
    SweepSpec,
    dispatch,
    emit,
    evolve_coefficients,
    run_records,
    sweep,
)
from spinphase import circuits, cli
from spinphase.cli import MAX_STEPS

TWO_PI = 2.0 * math.pi


def run_json(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def json_dumps_bytes(records):
    """The JSON bytes emit pins itself to."""
    payload = [r.as_dict() for r in records]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 1.7976931348623157e308, 0.1, -1.5]
EDGE_TEXTS = ['"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\r\t", "\u00e9\u2028\ud83d\ude00",
              "\ud800", ""]
reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
texts = st.one_of(st.text(), st.sampled_from(EDGE_TEXTS))
records_strategy = st.lists(st.builds(
    RunRecord,
    command=texts,
    inputs=st.dictionaries(texts, reals),
    outputs=st.dictionaries(texts, reals, min_size=1),
    metadata=st.dictionaries(texts, texts),
), max_size=4)
# texts that are markup in str.format or %-templates, quotes and non-ASCII
TEMPLATE_TEXTS = ["%", "%s", "%%", "{", "}", "{0}", "{}", "{{}}", "{0:.12g}", '"', "'",
                  "\u00e9", "\u043a\u043b\u044e\u0447", "\u2028", "\U0001f600", "a,b", ""]
keys = st.one_of(texts, st.sampled_from(TEMPLATE_TEXTS))


@st.composite
def mixed_shape_records(draw, max_shapes=3):
    """Records drawn from a few shapes (command and key lists), each record with
    its shape's keys in a fresh order and fresh values, metadata included."""
    key_lists = st.lists(keys, unique=True, max_size=4)
    shapes = draw(st.lists(st.tuples(keys, key_lists, st.lists(keys, unique=True, min_size=1,
                                                                max_size=4), key_lists),
                           min_size=1, max_size=max_shapes))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        command, inputs, outputs, metadata = draw(st.sampled_from(shapes))
        inputs, outputs, metadata = (draw(st.permutations(k)) for k in (inputs, outputs, metadata))
        records.append(RunRecord(command, {k: draw(reals) for k in inputs},
                                 {k: draw(reals) for k in outputs},
                                 {k: draw(st.one_of(texts, st.sampled_from(TEMPLATE_TEXTS)))
                                  for k in metadata}))
    return records


def csv_reference(records):
    """The CSV bytes emit pins itself to: the first record's sorted input then
    output names, and each record's reals by name to 12 significant digits."""
    if not records:
        return b""
    in_names, out_names = sorted(records[0].inputs), sorted(records[0].outputs)
    if any(sorted(r.inputs) != in_names or sorted(r.outputs) != out_names for r in records):
        raise DomainError("csv output needs records with a common shape")
    lines = [",".join(in_names + out_names)]
    for r in records:
        lines.append(",".join([format(float(r.inputs[k]), ".12g") for k in in_names]
                              + [format(float(r.outputs[k]), ".12g") for k in out_names]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_outcome(fn, records, *args):
    """fn's bytes, or its error's type and text (a lone surrogate in a CSV name
    cannot be encoded)."""
    try:
        return fn(records, *args)
    except (DomainError, UnicodeEncodeError) as exc:
        return type(exc), str(exc)


class TestRunRecord:
    def test_as_dict_sorts_keys(self):
        r = RunRecord("x", {"b": 2.0, "a": 1.0}, {"z": 0.0, "y": 1.0}, {"n": "v"})
        d = r.as_dict()
        assert list(d["inputs"]) == ["a", "b"]
        assert list(d["outputs"]) == ["y", "z"]

    def test_outputs_required(self):
        with pytest.raises(DomainError):
            RunRecord("x", {"a": 1.0}, {})

    def test_values_must_be_finite(self):
        with pytest.raises(DomainError):
            RunRecord("x", {"a": math.inf}, {"b": 1.0})

    @pytest.mark.parametrize("group", ["inputs", "outputs"])
    @pytest.mark.parametrize("entry", [
        {"q": 3}, {"q": 2**70}, {"q": True}, {"q": False}, {3: 1.0},
        {"q": Fraction(1, 3)}, {"q": "1.0"}, {"q": 1j}, {"q": None},
    ], ids=["int", "big-int", "true", "false", "int-key", "fraction", "str", "complex", "none"])
    def test_values_must_be_str_to_float(self, group, entry):
        # json.dumps would print an int or bool as such, sort int keys apart
        # from str ones, or reject a Fraction only at emit time
        fields = {"inputs": {"x": 1.0}, "outputs": {"y": 1.0}}
        fields[group] = {**fields[group], **entry}
        with pytest.raises(DomainError, match="must be str: float"):
            RunRecord("x", **fields)

    @pytest.mark.parametrize("command", [None, 3, b"x"])
    def test_command_must_be_str(self, command):
        with pytest.raises(DomainError, match="record command"):
            RunRecord(command, {}, {"y": 1.0})

    @pytest.mark.parametrize("metadata", [
        {"k": math.nan}, {"k": 1.0}, {"k": math.inf}, {"k": None}, {"k": [1, 2.5]},
        {"k": {"b": "c"}}, {"k": 7}, {3: "c"}, {"k": Fraction(1, 3)},
    ], ids=["nan", "float", "inf", "none", "list", "dict", "int", "int-key", "fraction"])
    def test_metadata_must_be_str_to_str(self, metadata):
        # json.dumps would print NaN, which is not JSON, or fail only at emit time
        with pytest.raises(DomainError, match="must be str: str"):
            RunRecord("x", {"a": 1.0}, {"b": 1.0}, metadata)

    def test_metadata_stays_mutable_for_sweep_tags(self):
        record = RunRecord("x", {"a": 1.0}, {"b": 1.0}, {"k": "v"})
        record.metadata["swept"] = "theta"
        assert emit([record], "json") == json_dumps_bytes([record])


class TestSweepSpec:
    def test_parameter_whitelist(self):
        with pytest.raises(DomainError, match="parameter"):
            SweepSpec("gamma", 0.0, 1.0, 5)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError, match="below"):
            SweepSpec("theta", 1.0, 1.0, 5)

    def test_minimum_steps(self):
        with pytest.raises(DomainError, match="at least 2"):
            SweepSpec("theta", 0.0, 1.0, 1)
        for bad in (2.5, 3.0):
            with pytest.raises(DomainError, match="steps must be an integer"):
                SweepSpec("theta", 0.0, 1.0, bad)
        with pytest.raises(DomainError, match="steps must be an integer"):
            sweep("phase", SweepSpec("theta", 0, 1, 2.5), {"spin": "up"})
        assert len(sweep("phase", SweepSpec("theta", 0, 1, np.int64(3)), {"spin": "up"})) == 3

    def test_maximum_steps(self):
        assert SweepSpec("theta", 0.0, 1.0, MAX_STEPS).steps == 100_000
        with pytest.raises(DomainError, match="at most 100000"):
            SweepSpec("theta", 0.0, 1.0, MAX_STEPS + 1)

    def test_overflowing_span_is_rejected(self, capsys):
        # finite bounds whose width overflows would make grid points nan and inf
        with pytest.raises(DomainError, match="stop - start overflows a float"):
            sweep("phase", SweepSpec("theta", -1e308, 1e308, 5), {"spin": "up"})
        code = dispatch(["sweep", "--cmd", "phase", "--param", "theta", "--start", "-1e308",
                         "--stop", "1e308", "--steps", "5", "--spin", "up"])
        err = capsys.readouterr().err
        assert (code, err) == (2, "spinphase: stop - start overflows a float\n")


class TestEmit:
    def records(self):
        return [
            RunRecord("demo", {"x": 0.5}, {"y": 1.5}, {"k": "v"}),
            RunRecord("demo", {"x": 1.0}, {"y": 2.5}, {"k": "v"}),
        ]

    def test_json_round_trips_records(self):
        recs = self.records()
        parsed = json.loads(emit(recs, "json"))
        assert parsed == [r.as_dict() for r in recs]

    def test_json_ends_with_newline(self):
        assert emit(self.records(), "json").endswith(b"\n")

    def test_csv_header_and_layout(self):
        text = emit(self.records(), "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0.5,1.5"
        assert len(lines) == 3

    def test_csv_uses_twelve_significant_digits(self):
        rec = RunRecord("demo", {"x": math.pi}, {"y": 1.0 / 3.0})
        text = emit([rec], "csv").decode()
        assert text.splitlines()[1] == "3.14159265359,0.333333333333"

    def test_csv_empty_records(self):
        assert emit([], "csv") == b""

    def test_csv_rejects_mixed_shapes(self):
        recs = [
            RunRecord("a", {"x": 1.0}, {"y": 1.0}),
            RunRecord("b", {"x": 1.0}, {"z": 1.0}),
        ]
        with pytest.raises(DomainError, match="common shape"):
            emit(recs, "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            emit(self.records(), "yaml")

    @given(records_strategy)
    @example([])
    @example([RunRecord("", {}, {"y": 1.0})])
    @settings(max_examples=150, deadline=None)
    def test_json_is_json_dumps_bytes(self, records):
        assert emit(records, "json") == json_dumps_bytes(records)

    @given(mixed_shape_records())
    @example([RunRecord("{0}", {"%s": 1.0, "{": 2.0}, {"}": 3.0}, {"%": "{}"}),
              RunRecord("{0}", {"{": 2.5, "%s": 1.5}, {"}": 3.5}, {"%": "%s"})])
    @settings(max_examples=150, deadline=None)
    def test_json_of_mixed_shapes_is_json_dumps_bytes(self, records):
        assert emit(records, "json") == json_dumps_bytes(records)

    @given(mixed_shape_records())
    @settings(max_examples=150, deadline=None)
    def test_csv_of_mixed_shapes_matches_the_reference(self, records):
        assert emit_outcome(emit, records, "csv") == emit_outcome(csv_reference, records)

    @given(mixed_shape_records(max_shapes=1))
    @settings(max_examples=100, deadline=None)
    def test_csv_of_one_shape_in_any_key_order_matches_the_reference(self, records):
        assert emit_outcome(emit, records, "csv") == emit_outcome(csv_reference, records)

    def test_metadata_values_may_differ_within_a_shape(self):
        # rgflow's mu_clamped: one shape, its metadata values record by record
        records = sweep("rgflow", SweepSpec("separation", 0.2, 12.0, 40), {"a": 0.5, "c": 1.0})
        assert {r.metadata["mu_clamped"] for r in records} == {"true", "false"}
        assert emit(records, "json") == json_dumps_bytes(records)
        assert emit(records, "csv") == csv_reference(records)

    def test_json_edge_values(self):
        records = [
            RunRecord("edge", {f"x{k}": v for k, v in enumerate(EDGE_FLOATS)},
                      {"f64": np.float64(0.1), "neg_zero": np.float64(-0.0)},
                      {t or "empty": t for t in EDGE_TEXTS}),
            RunRecord("\u00e9\"\\", {}, {"only": 1e22}),
            RunRecord("digit-keys", {"2": 1.0, "10": 0.5}, {"1": 2.0}, {"3": "c"}),
        ]
        assert emit(records, "json") == json_dumps_bytes(records)
        assert emit([], "json") == json_dumps_bytes([]) == b"[]\n"


class TestPhaseCommand:
    def test_basic_run(self, capsys):
        code, recs = run_json(
            ["phase", "--spin", "up", "--theta", "1.0471975511965976"], capsys
        )
        assert code == 0
        out = recs[0]["outputs"]
        assert out["gamma"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert out["connection"] == pytest.approx(0.25, abs=1e-12)
        assert recs[0]["metadata"]["phase_convention"] == "raw"

    def test_degrees_flag(self, capsys):
        code, recs = run_json(
            ["phase", "--spin", "up", "--theta", "60", "--degrees"], capsys
        )
        assert code == 0
        assert recs[0]["inputs"]["theta"] == pytest.approx(math.pi / 3, abs=1e-12)
        assert recs[0]["outputs"]["gamma"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_domain_error_exit_and_message(self, capsys):
        code = dispatch(["phase", "--spin", "up", "--theta", "4.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "theta out of [0, pi]" in captured.err
        assert captured.out == ""

    def test_missing_flag_is_usage_error(self, capsys):
        assert dispatch(["phase", "--spin", "up"]) == 2

    def test_unknown_extra_flag_is_usage_error(self, capsys):
        assert dispatch(
            ["phase", "--spin", "up", "--theta", "1.0", "--bogus", "1"]
        ) == 2


class TestHolonomyCommand:
    def test_tracks_analytic_value(self, capsys):
        code, recs = run_json(
            ["holonomy", "--spin", "down", "--theta", "2.0", "--segments", "800"],
            capsys,
        )
        assert code == 0
        out = recs[0]["outputs"]
        assert out["deviation"] < 1e-4
        assert out["gamma_analytic"] == pytest.approx(
            math.pi * (1 + math.cos(2.0)), abs=1e-12
        )

    def test_phase_free_loop_prints_positive_zero(self, capsys):
        argv = ["holonomy", "--spin", "up", "--theta", "0", "--segments", "64"]
        assert dispatch(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == "segments,theta,deviation,gamma_analytic,holonomy\n" \
            "64,0,0,0,0\n"
        assert dispatch(argv) == 0
        assert '"holonomy": 0.0\n' in capsys.readouterr().out

    def test_segments_above_bound_domain_error(self, capsys):
        code = dispatch(
            ["holonomy", "--spin", "up", "--theta", "1.0", "--segments", "1000001"]
        )
        assert code == 1
        assert capsys.readouterr().err == "holonomy: a loop takes at most 1000000 segments\n"


class TestCircuitCommand:
    def test_runs_a_file(self, tmp_path, capsys):
        path = tmp_path / "prep.circ"
        path.write_text("H P(2*theta) H P(pi/2 + phi)\n")
        code, recs = run_json(
            ["circuit", "--file", str(path), "--theta", "0.7", "--phi", "1.1"], capsys
        )
        assert code == 0
        out = recs[0]["outputs"]
        target = math.cos(0.7)
        got = complex(out["amp0_re"], out["amp0_im"])
        assert abs(got) == pytest.approx(abs(target), abs=1e-12)
        assert recs[0]["metadata"]["circuit"].startswith("H P(")

    def test_missing_file_is_domain_error(self, capsys):
        code = dispatch(["circuit", "--file", "/nonexistent/x.circ"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.circ"
        path.write_text("H P(")
        code = dispatch(["circuit", "--file", str(path)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every text the CLI hands to parse_circuit, in call order."""
        texts = []
        original = circuits.parse_circuit

        def counting(text):
            texts.append(text)
            return original(text)

        monkeypatch.setattr(circuits, "parse_circuit", counting)
        return texts

    def test_file_is_parsed_once_per_invocation(self, tmp_path, parses, capsys):
        path = tmp_path / "prep.circ"
        path.write_text("H P(2*theta) H P(pi/2 + phi)\n")
        argv = ["sweep", "--cmd", "circuit", "--param", "theta", "--start", "0", "--stop",
                "3", "--steps", "1000", "--file", str(path), "--phi", "0.4"]
        assert len(run_records(argv)) == 1000
        assert len(parses) == 1
        records = sweep("circuit", SweepSpec("theta", 0.0, 3.0, 1000),
                        {"file": str(path), "phi": 0.4})
        assert len(records) == 1000 and len(parses) == 2
        assert len(run_records(["circuit", "--file", str(path), "--theta", "0.3"])) == 1
        assert len(parses) == 3
        assert dispatch(["circuit", "--file", str(path)]) == 0
        assert len(parses) == 4

    def test_file_is_read_once_per_invocation(self, tmp_path, monkeypatch):
        path = tmp_path / "prep.circ"
        path.write_text("H P(2*theta) H P(pi/2 + phi)\n")
        reads = []
        path_open = Path.open

        def counting(self, *args, **kwargs):
            reads.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting)
        argv = ["sweep", "--cmd", "circuit", "--param", "theta", "--start", "0", "--stop",
                "3", "--steps", "50", "--file", str(path), "--phi", "0.4"]
        assert len(run_records(argv)) == 50
        assert reads == [path]
        spec, fixed = SweepSpec("theta", 0.0, 3.0, 50), {"file": str(path), "phi": 0.4}
        reads.clear()
        assert len(sweep("circuit", spec, fixed)) == 50
        assert reads == [path]
        # a new invocation reads the file again
        assert len(sweep("circuit", spec, fixed)) == 50
        assert reads == [path, path]

    def test_rewritten_file_is_read_again(self, tmp_path):
        path = tmp_path / "prep.circ"
        spec = SweepSpec("theta", 0.0, 1.0, 3)
        path.write_text("H\n")
        first = sweep("circuit", spec, {"file": str(path)})
        path.write_text("H P(2*theta) H\n")
        second = sweep("circuit", spec, {"file": str(path)})
        assert {r.metadata["circuit"] for r in first} == {"H"}
        assert {r.metadata["circuit"] for r in second} == {"H P(2.0*theta) H"}
        assert [r.outputs["amp1_re"] for r in second] != [r.outputs["amp1_re"] for r in first]

    def test_sweep_file_errors_name_the_first_grid_point(self, tmp_path):
        spec = SweepSpec("theta", 0.5, 1.0, 3)
        with pytest.raises(DomainError, match=r"^at theta=0\.5: cannot read circuit file: "):
            sweep("circuit", spec, {"file": str(tmp_path / "missing.circ")})
        path = tmp_path / "bad.circ"
        path.write_text("H P(")
        with pytest.raises(DomainError, match=r"^at theta=0\.5: .*line 1"):
            sweep("circuit", spec, {"file": str(path)})
        # bytes that are not UTF-8, on the library and the argv sweep routes
        path.write_bytes(b"\xff\xfeH")
        with pytest.raises(DomainError, match=r"^at theta=0\.5: cannot read circuit file: "
                                              r"'utf-8' codec can't decode"):
            sweep("circuit", spec, {"file": str(path)})
        argv = ["sweep", "--cmd", "circuit", "--param", "theta", "--start", "0.5", "--stop",
                "1", "--steps", "3", "--file", str(path)]
        assert dispatch(argv) == 1


class TestRabiCommand:
    def test_matches_library_route(self, capsys):
        code, recs = run_json(
            ["rabi", "--omega", "1.5", "--t", "2.0", "--c0", "0.6", "--c1", "0,0.8"],
            capsys,
        )
        assert code == 0
        want = evolve_coefficients(0.6, 0.8j, 1.5, 2.0)
        out = recs[0]["outputs"]
        assert out["c0_out_re"] == pytest.approx(want[0].real, abs=1e-12)
        assert out["c0_out_im"] == pytest.approx(want[0].imag, abs=1e-12)
        assert out["c1_out_re"] == pytest.approx(want[1].real, abs=1e-12)
        assert out["c1_out_im"] == pytest.approx(want[1].imag, abs=1e-12)

    def test_bad_complex_flag_is_usage_error(self, capsys):
        assert dispatch(
            ["rabi", "--omega", "1", "--t", "1", "--c0", "a,b", "--c1", "0"]
        ) == 2

    def test_unnormalized_coefficients_domain_error(self, capsys):
        code = dispatch(["rabi", "--omega", "1", "--t", "1", "--c0", "1", "--c1", "1"])
        assert code == 1

    def test_coefficients_within_contract_renormalized(self, capsys):
        code, recs = run_json(
            ["rabi", "--omega", "1", "--t", "0", "--c0", "1.0000005", "--c1", "0"], capsys
        )
        assert code == 0
        assert recs[0]["inputs"]["c0_re"] == 1.0000005
        assert recs[0]["outputs"]["c0_out_re"] == 1.0

    def test_nan_coefficient_domain_error(self, capsys):
        code = dispatch(["rabi", "--omega", "1", "--t", "1", "--c0", "nan", "--c1", "0"])
        assert code == 1
        assert capsys.readouterr().err == "rabi: coefficients must be finite\n"


class TestEchoCommand:
    def test_matched_protocol(self, capsys):
        code, recs = run_json(["echo", "--phi", "0", "--chi", "-3.141592653589793"], capsys)
        assert code == 0
        out = recs[0]["outputs"]
        assert out["dynamical"] == pytest.approx(0.0, abs=1e-12)
        assert out["geometric_magnitude"] == pytest.approx(math.pi, abs=1e-12)


class TestEntangleCommand:
    def test_equal_weight_third_pi(self, capsys):
        code, recs = run_json(
            [
                "entangle", "--theta", str(math.pi / 3),
                "--alpha", "0.7071067811865476", "--beta", "0.7071067811865476",
            ],
            capsys,
        )
        assert code == 0
        out = recs[0]["outputs"]
        assert out["relative_phase"] == pytest.approx(math.pi, abs=1e-9)
        assert out["swap_expectation"] == pytest.approx(1.0, abs=1e-12)
        assert out["concurrence_norm"] == pytest.approx(1.0, abs=1e-12)
        assert out["entropy_bits"] == pytest.approx(1.0, abs=1e-12)
        assert out["gamma_ent"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_alpha_beta_required(self, capsys):
        assert dispatch(["entangle", "--theta", "1.0"]) == 2


class TestNoiseCommand:
    def test_single_spin_outputs(self, capsys):
        code, recs = run_json(
            ["noise", "--spin", "up", "--theta", "1.5707963267948966",
             "--delta-theta", "0.01"],
            capsys,
        )
        assert code == 0
        out = recs[0]["outputs"]
        assert out["gamma_noisy"] == pytest.approx(1.01 * math.pi, abs=1e-12)
        assert out["shift"] == pytest.approx(0.01 * math.pi, abs=1e-12)

    def test_entangled_outputs_and_metadata(self, capsys):
        code, recs = run_json(
            ["noise", "--spin", "entangled", "--theta", "0.9", "--delta-theta", "0.02"],
            capsys,
        )
        assert code == 0
        out = recs[0]["outputs"]
        assert out["entangled_shift"] == pytest.approx(
            2.0 * math.pi * math.sin(0.9) * 0.02, abs=1e-15
        )
        assert out["post_echo_shift"] == pytest.approx(
            math.pi * math.sin(0.9) * 0.02, abs=1e-15
        )
        assert recs[0]["metadata"]["post_echo_comparison"] == "qualitative"

    def test_oversized_shift_domain_error(self, capsys):
        code = dispatch(
            ["noise", "--spin", "up", "--theta", "1.0", "--delta-theta", "0.9"]
        )
        assert code == 1


class TestRgflowCommand:
    def test_clamp_metadata(self, capsys):
        code, recs = run_json(
            ["rgflow", "--a", "2.0", "--c", "0.1", "--separation", "10.0"], capsys
        )
        assert code == 0
        assert recs[0]["outputs"]["mu"] == 0.0
        assert recs[0]["metadata"]["mu_clamped"] == "true"

        code, recs = run_json(
            ["rgflow", "--a", "0.3", "--c", "1.0", "--separation", "2.0"], capsys
        )
        assert recs[0]["outputs"]["mu"] == pytest.approx(
            1.0 - 0.3 * math.log(2.0), abs=1e-12
        )
        assert recs[0]["metadata"]["mu_clamped"] == "false"

    def test_flow_exactly_at_zero_is_not_clamped(self, capsys):
        code, recs = run_json(
            ["rgflow", "--a", "1.0", "--c", repr(math.log(2.0)), "--separation", "2.0"],
            capsys,
        )
        assert code == 0
        assert recs[0]["outputs"]["mu"] == 0.0
        assert recs[0]["metadata"]["mu_clamped"] == "false"

    def test_bad_separation_domain_error(self, capsys):
        assert dispatch(["rgflow", "--a", "1", "--c", "1", "--separation", "0"]) == 1


class TestSweepCommand:
    def test_inclusive_uniform_grid(self, capsys):
        code, recs = run_json(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", str(math.pi), "--steps", "5", "--spin", "up"],
            capsys,
        )
        assert code == 0
        assert len(recs) == 5
        thetas = [r["inputs"]["theta"] for r in recs]
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi, abs=1e-15)
        diffs = [b - a for a, b in zip(thetas, thetas[1:])]
        for d in diffs:
            assert d == pytest.approx(math.pi / 4, abs=1e-12)
        assert all(r["metadata"]["swept"] == "theta" for r in recs)

    def test_omega_t_maps_to_time_flag(self, capsys):
        code, recs = run_json(
            ["sweep", "--cmd", "rabi", "--param", "omega_t", "--start", "0",
             "--stop", "1", "--steps", "3", "--omega", "2.0",
             "--c0", "1", "--c1", "0"],
            capsys,
        )
        assert code == 0
        assert [r["inputs"]["t"] for r in recs] == [0.0, 0.5, 1.0]

    def test_csv_sweep_keeps_one_header(self, capsys):
        code = dispatch(
            ["sweep", "--cmd", "rgflow", "--param", "separation", "--start", "1",
             "--stop", "2", "--steps", "4", "--a", "1.0", "--c", "0.5",
             "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,c,separation,mu"
        assert len(lines) == 5

    def test_domain_error_names_the_grid_point(self, capsys):
        code = dispatch(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "3.0",
             "--stop", "4.0", "--steps", "3", "--spin", "up"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "at theta=3.5" in err
        assert "theta out of [0, pi]" in err

    def test_unknown_target_command_usage_error(self, capsys):
        assert dispatch(
            ["sweep", "--cmd", "sweep", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "2"]
        ) == 2

    def test_bad_steps_usage_error(self, capsys):
        assert dispatch(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "1", "--spin", "up"]
        ) == 2

    def test_steps_above_bound_usage_error(self, capsys):
        assert dispatch(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "100001", "--spin", "up"]
        ) == 2
        assert capsys.readouterr().err == "spinphase: steps must be at most 100000\n"

    def test_stray_flag_usage_error(self, capsys):
        assert dispatch(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "2", "--spin", "up", "--bogus", "7"]
        ) == 2

    def test_tiny_negative_grid_value(self, capsys):
        spec = SweepSpec("delta_theta", -3e-05, 0.2, 3)
        recs = sweep("noise", spec, {"spin": "up", "theta": 1.0})
        assert [r.inputs["delta_theta"] for r in recs][::2] == [-3e-05, 0.2]
        argv_recs = run_records(
            ["sweep", "--cmd", "noise", "--param", "delta_theta", "--start=-3e-05",
             "--stop", "0.2", "--steps", "3", "--spin", "up", "--theta", "1.0"]
        )
        assert [r.as_dict() for r in argv_recs] == [r.as_dict() for r in recs]
        assert capsys.readouterr().err == ""

    def test_int_bounds_record_float_values(self):
        records = sweep("phase", SweepSpec("theta", 0, 3, 2), {"spin": "up"})
        assert [type(r.inputs["theta"]) for r in records] == [float, float]
        assert b'"theta": 3.0' in emit(records, "json")

    def test_fixed_flag_forms_agree(self):
        plain = run_records(
            ["sweep", "--cmd", "noise", "--param", "theta", "--start", "0", "--stop", "1",
             "--steps", "2", "--spin", "down", "--delta-theta=-3e-05"]
        )
        assert [r.inputs["delta_theta"] for r in plain] == [-3e-05, -3e-05]
        assert sweep("noise", SweepSpec("theta", 0, 1, 2),
                     {"--spin": "down", "delta-theta": -3e-05}) == plain
        degrees = ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
                   "--stop", "90", "--steps", "2"]
        assert run_records(degrees + ["--degrees", "--spin", "up"]) == \
            run_records(degrees + ["--spin", "up", "--degrees"])

    @pytest.mark.parametrize("fixed, message", [
        ({"spin": "left"}, "fixed flags do not fit phase: --spin left"),
        ({"spin": True}, "fixed flags do not fit phase: --spin True$"),
        ({"spin": "up", "degrees": "yes"}, "fixed flags do not fit phase: --degrees yes"),
        ({}, "fixed flags do not fit phase: missing --spin$"),
        ({"spin": "up", "segments": 3}, "unrecognized arguments: --segments 3"),
    ])
    def test_fixed_flags_are_checked_by_the_target_specs(self, fixed, message, capsys):
        with pytest.raises(DomainError, match=message):
            sweep("phase", SweepSpec("theta", 0.0, 1.0, 2), fixed)
        argv = ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0", "--stop", "1",
                "--steps", "2"]
        for name, value in fixed.items():
            argv += [f"--{name}"] if value is True else [f"--{name}", str(value)]
        assert dispatch(argv) == 2

    @pytest.mark.parametrize("cmd, param, fixed, flag", [
        ("phase", "theta", {"spin": "up", "theta": 0.5}, "--theta 0.5"),
        ("rabi", "omega_t", {"omega": 1.0, "t": 2.0, "c0": "1", "c1": "0"}, "--t 2.0"),
        # a flag with a default; the flags are read before the file is
        ("circuit", "theta", {"file": "missing.circ", "theta": 0.5}, "--theta 0.5"),
        ("noise", "delta_theta", {"spin": "up", "theta": 1.0, "delta-theta": 0.05},
         "--delta-theta 0.05"),
    ])
    def test_a_value_for_the_swept_flag_is_a_usage_error(self, cmd, param, fixed, flag, capsys):
        message = f"fixed flags do not fit {cmd}: {flag}"
        with pytest.raises(cli._UsageError, match=f"^{message}$"):
            sweep(cmd, SweepSpec(param, 0.0, 1.0, 2), fixed)
        argv = ["sweep", "--cmd", cmd, "--param", param, "--start", "0", "--stop", "1",
                "--steps", "2", "--format", "csv"]
        for name, value in fixed.items():
            argv += [f"--{name}", str(value)]
        assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", f"spinphase: {message}\n")

    def test_sweeps_parse_argv_at_most_once(self, monkeypatch, capsys):
        # every flag goes through the one reader; count its calls
        reads = []
        original = cli._read

        def counting(flags, given, context, *args):
            reads.append((context, dict(given)))
            return original(flags, given, context, *args)

        monkeypatch.setattr(cli, "_read", counting)
        sweep("phase", SweepSpec("theta", 0.0, 1.0, 50), {"spin": "up"})
        assert reads == [("fixed flags do not fit phase", {"spin": "up"})]
        reads.clear()
        assert dispatch(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "50", "--spin", "up"]
        ) == 0
        # the sweep's own flags, then the target's fixed flags, once each
        assert [context for context, _ in reads] == \
            ["invalid flags for sweep", "fixed flags do not fit phase"]
        assert reads[1][1] == {"--spin": "up"}

    def test_one_record_per_grid_point(self, monkeypatch):
        built = []
        init = RunRecord.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(RunRecord, "__init__", counting)
        records = sweep("phase", SweepSpec("theta", 0.0, 1.0, 50), {"spin": "up"})
        assert [id(r) for r in built] == [id(r) for r in records]
        assert all(r.metadata["swept"] == "theta" for r in records)

    def test_library_sweep_matches_cli_route(self, capsys):
        spec = SweepSpec("theta", 0.0, 1.0, 3)
        recs = sweep("phase", spec, {"spin": "up"})
        code, cli_recs = run_json(
            ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0",
             "--stop", "1", "--steps", "3", "--spin", "up"],
            capsys,
        )
        assert code == 0
        assert [r.as_dict() for r in recs] == cli_recs


class TestOutputHandling:
    def test_output_file_matches_stdout_bytes(self, tmp_path, capsys):
        argv = ["phase", "--spin", "down", "--theta", "0.5"]
        dispatch(argv)
        stdout_text = capsys.readouterr().out
        target = tmp_path / "out.json"
        dispatch(argv + ["--output", str(target)])
        assert target.read_bytes().decode() == stdout_text

    def test_byte_identical_reruns(self, capsys):
        argv = ["entangle", "--theta", "2.2", "--alpha", "0.6", "--beta", "0,0.8"]
        dispatch(argv)
        first = capsys.readouterr().out
        dispatch(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first.encode() == emit(run_records(argv), "json")

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert dispatch(["phase", "--help"]) == 0

    def test_unknown_command_exits_two(self, capsys):
        assert dispatch(["nope"]) == 2
        assert dispatch([]) == 2


def entangle_sweep(steps, stop):
    return ["sweep", "--cmd", "entangle", "--param", "theta", "--start", "0", "--stop",
            repr(stop), "--steps", str(steps), "--alpha", "0.6", "--beta", "0.8"]


def traced_peak(call):
    """call's result and the peak of the memory allocated while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestStreamedSweeps:
    """A CLI sweep holds one copy of its output: emit writes each record's text
    into one buffer, and the argv route builds each record as emit reads it."""

    def test_json_emit_holds_one_copy_of_the_payload(self):
        records = run_records(entangle_sweep(20000, 3.14))
        payload, peak = traced_peak(lambda: emit(records, "json"))
        assert peak <= 1.25 * len(payload) + 256 * 1024, (peak, len(payload))

    def test_dispatch_to_a_file_holds_one_copy_of_the_output(self, tmp_path):
        target = tmp_path / "sweep.json"
        argv = entangle_sweep(20000, 3.14) + ["--output", str(target)]
        assert dispatch(entangle_sweep(2, 3.14) + ["--output", str(target)]) == 0  # loads
        code, peak = traced_peak(lambda: dispatch(argv))
        assert code == 0
        assert peak <= 1.5 * target.stat().st_size, (peak, target.stat().st_size)

    def test_a_sweep_failing_at_its_last_point_writes_no_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        # only the last of the 20000 grid points lies above pi
        assert dispatch(entangle_sweep(20000, 3.1416) + ["--output", str(target)]) == 1
        assert not target.exists()
        assert capsys.readouterr() == ("", "sweep: at theta=3.1416: theta out of [0, pi]\n")

    def test_stdout_in_slices_is_the_payload(self, monkeypatch, capsys):
        argv = entangle_sweep(7, 3.0)
        payload = emit(run_records(argv), "json")
        for size in (1, 7, len(payload) - 1, len(payload), len(payload) + 1):
            monkeypatch.setattr(cli, "_SLICE", size)
            assert dispatch(argv) == 0
            assert capsys.readouterr().out.encode() == payload

    def test_argv_sweep_records_are_counted_before_any_is_built(self):
        # every grid point lies above pi: counting the records does not fail, reading them does
        argv = ["sweep", "--cmd", "phase", "--param", "theta", "--start", "3.5", "--stop", "4",
                "--steps", "5", "--spin", "up"]
        records, format, output = cli._invoke(argv)
        assert (len(records), format, output) == (5, "json", "")
        with pytest.raises(DomainError, match=r"^at theta=3\.5: theta out of \[0, pi\]$"):
            list(records)

    @given(mixed_shape_records())
    @settings(max_examples=100, deadline=None)
    def test_emit_reads_a_generator_as_it_reads_a_list(self, records):
        for format in ("json", "csv"):
            assert emit_outcome(emit, (r for r in records), format) == \
                emit_outcome(emit, records, format)

    def test_emit_of_an_empty_generator(self):
        assert emit(iter(()), "json") == emit([], "json") == b"[]\n"
        assert emit(iter(()), "csv") == emit([], "csv") == b""


class TestCommandTable:
    """Help, usage errors and flag values, all read from the command table."""

    def test_help_names_every_command_and_flag(self, capsys):
        assert dispatch(["--help"]) == 0
        top = capsys.readouterr().out
        for name, command in cli._COMMANDS.items():
            assert f"\n  {name} " in top and f" {command.help}\n" in top
            assert dispatch([name, "--help"]) == 0
            text = capsys.readouterr().out
            assert text == f"{text.splitlines()[0]}\n\n{command.help}\n"
            assert text.startswith(f"usage: spinphase {name} ")
            for flag in cli._OUTPUT_FLAGS + command.flags:
                assert f" --{flag.name} " in text or f"[--{flag.name}" in text, flag.name

    def test_help_does_not_follow_the_terminal_width(self, monkeypatch, capsys):
        texts = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in (["--help"], ["sweep", "--help"], ["rabi", "-h"], ["noise", "--help"]):
                assert dispatch(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("spaced", [
        ["noise", "--spin", "up", "--theta", "1", "--delta-theta", "-3e-05"],
        ["rabi", "--omega", "1", "--t", "1", "--c0", "-0.7,0.1", "--c1", "0.7071067811865476"],
        ["sweep", "--cmd", "noise", "--param", "delta_theta", "--start", "-3e-05", "--stop",
         "0.2", "--steps", "3", "--spin", "up", "--theta", "1.0"],
        ["sweep", "--cmd", "rabi", "--param", "omega_t", "--start", "0", "--stop", "1",
         "--steps", "3", "--omega", "1", "--c0", "-0.7,0.1", "--c1", "0.7071067811865476"],
    ], ids=["delta-theta", "c0", "start", "sweep-c0"])
    def test_a_negative_value_after_its_flag_reads_as_a_value(self, spaced, capsys):
        paired = list(spaced)
        k = next(k for k, arg in enumerate(spaced) if arg.startswith("-") and arg[1:2] != "-")
        paired[k - 1:k + 1] = [f"{spaced[k - 1]}={spaced[k]}"]
        records = run_records(spaced)
        assert records and [r.as_dict() for r in records] == \
            [r.as_dict() for r in run_records(paired)]
        assert dispatch(spaced) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["phase", "--spin", "up", "--theta"],
        ["rabi", "--omega", "1", "--t", "1", "--c0", "1", "--c1"],
        ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0", "--stop", "1",
         "--steps", "2", "--spin"],
        ["phase", "--spin", "up", "--theta", "1", "--format"],
    ], ids=["theta", "c1", "sweep-spin", "format"])
    def test_a_value_flag_at_the_end_is_a_usage_error(self, argv, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spinphase: {argv[-1]} needs a value\n"

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["-x"], ["phase", "up"], ["phase", "-t", "1"], ["phase", "--"],
        ["phase", "--spin", "sideways", "--theta", "1"], ["phase", "--spin=up", "--theta=x"],
        ["phase", "--spin", "up", "--theta", "1", "--degrees=yes"],
        ["phase", "--spin", "up", "--theta", "1", "--format", "xml"],
        ["holonomy", "--spin", "up", "--theta", "1", "--segments", "2.5"],
        ["rabi", "--omega", "1", "--t", "1", "--c0", "1,0,0", "--c1", "0"],
        ["rabi", "--omega", "1", "--t", "1", "--c0", "1", "--c1", "0", "--degrees"],
        ["sweep", "--cmd", "phase", "--param", "phi", "--start", "0", "--stop", "1",
         "--steps", "2", "--spin", "up"],
        ["sweep", "--cmd", "phase", "--param", "theta", "--start", "nan", "--stop", "1",
         "--steps", "2", "--spin", "up"],
        ["sweep", "--cmd", "phase", "--param", "theta", "--start", "0", "--stop", "1",
         "--steps", "2", "--spin", "up", "--degrees", "yes"],
    ])
    def test_a_usage_error_is_one_stderr_line(self, argv, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spinphase: ") and captured.err.count("\n") == 1

    def test_help_wins_where_a_flag_name_stands(self, capsys):
        assert dispatch(["phase", "--spin", "up", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: spinphase phase ")
        # the token after a value flag is its value, even when it reads -h
        assert dispatch(["phase", "--spin", "-h", "--theta", "1"]) == 2
        assert capsys.readouterr().err == "spinphase: invalid flags for phase: --spin -h\n"
        assert run_records(["--help"]) == []

    @pytest.mark.parametrize("argv", [
        ["rabi", "--omega", "1", "--t", "1", "--c0", "1.2e154", "--c1", "1.2e154"],
        ["entangle", "--theta", "1", "--alpha", "1.2e154", "--beta", "1.2e154"],
    ], ids=["rabi", "entangle"])
    def test_coefficients_whose_squares_overflow_are_a_domain_error(self, argv, capsys):
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{argv[0]}: coefficients norm inf not within 1e-06 of 1\n"
