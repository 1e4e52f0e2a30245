"""Config reading: the location and reason of every ConfigError."""

import json
import math

import pytest

from fuzzystab.cli import main as cli_main
from fuzzystab.errors import ConfigError
from fuzzystab.harness import EXIT_CONFIG, ExperimentConfig

BASE = {
    "seed": 7,
    "space": {"dim_x": 1, "dim_y": 1, "crisp_norm": "euclidean"},
    "function": {"quad": 1.0, "perturbations": [{"shape": "cos", "amplitude": 0.01}]},
    "control": {"family": "constant", "delta": 1.0, "alpha": 1.0},
    "theorems": ["quadratic_up"],
    "grids": {"x_count": 4, "a_points": 5, "axiom_points": 20},
}


def edited(path: str, value):
    """BASE with the key at dotted ``path`` set to ``value`` (removed if ``...``);
    a number in the path indexes a list."""
    data = json.loads(json.dumps(BASE))
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return data


def config_error(data) -> tuple[str, str]:
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data)
    return err.value.location, err.value.reason


def one_dim_coords(**entry):
    return edited("function", {"coords": [entry]})


def nested(depth: int):
    """1.0 inside ``depth`` one-item lists."""
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


# One case for each place the reader raised a ConfigError before it became
# table-driven, plus the location formats of a nested missing key and of a
# float bound.  Each input has exactly one fault.
PINNED = {
    "missing_section": (
        edited("control", ...), "config: control", "missing required key 'control'"
    ),
    "missing_nested_key": (
        edited("space.dim_x", ...), "config: space", "missing required key 'dim_x'"
    ),
    "not_an_integer": (edited("seed", "x"), "config: seed", "expected an integer, got 'x'"),
    "integer_below_minimum": (
        edited("grids.x_count", 0), "config: grids.x_count", "must be >= 1, got 0"
    ),
    "not_a_number": (
        edited("grids.x_radius", "big"),
        "config: grids.x_radius",
        "expected a number, got 'big'",
    ),
    "number_not_positive": (
        edited("control.alpha", -1), "config: control.alpha", "must be > 0, got -1.0"
    ),
    "knob_not_positive": (
        edited("grids.x_radius", 0), "config: grids.x_radius", "must be > 0, got 0.0"
    ),
    "space_rejected": (
        edited("space.crisp_norm", "manhattan"),
        "config: space",
        "unknown crisp norm kind 'manhattan'",
    ),
    "matrix_shape": (
        one_dim_coords(quad=[[1.0, 2.0]]),
        "config: function.coords[0].quad",
        "expected a 1x1 matrix, got shape (1, 2)",
    ),
    # a 1x1 matrix is read two lists deep, however deep the lists go
    "matrix_nested_too_deeply": (
        one_dim_coords(quad=nested(2000)),
        "config: function.coords[0].quad",
        "expected a 1x1 matrix, got shape (1, 1, 1)",
    ),
    "vector_shape": (
        one_dim_coords(linear=[1.0, 2.0]),
        "config: function.coords[0].linear",
        "expected a vector of length 1, got shape (2,)",
    ),
    "unknown_shape": (
        edited("function.perturbations", [{"shape": "tan"}]),
        "config: function.perturbations[0].shape",
        "unknown shape 'tan'",
    ),
    "amplitude_count": (
        edited("function.perturbations", [{"shape": "sin", "amplitude": [0.1, 0.2]}]),
        "config: function.perturbations[0].amplitude",
        "expected 1 amplitudes",
    ),
    "frequency_count": (
        edited("function.perturbations", [{"shape": "sin", "frequency": [1.0, 2.0]}]),
        "config: function.perturbations[0].frequency",
        "expected 1 frequencies",
    ),
    "perturbation_rejected": (
        edited("function.perturbations", [{"shape": "sin", "amplitude": -0.5}]),
        "config: function.perturbations[0]",
        "perturbation amplitude must be >= 0",
    ),
    "coordinate_count": (
        edited("function", {"coords": []}),
        "config: function.coords",
        "expected 1 coordinate entries",
    ),
    "scalar_shorthand": (
        edited("space.dim_x", 2),
        "config: function",
        "scalar shorthand requires dim_x == dim_y == 1 (use 'coords')",
    ),
    "unknown_family": (
        edited("control", {"family": "cubic", "alpha": 1.0}),
        "config: control.family",
        "unknown control family 'cubic'",
    ),
    "theorems_not_a_list": (
        edited("theorems", "combined"), "config: theorems", "expected a non-empty list"
    ),
    "unknown_theorem": (
        edited("theorems", ["quartic_up"]),
        "config: theorems",
        "unknown theorem id 'quartic_up'; valid: ['additive_down', 'additive_up', "
        "'combined', 'quadratic_down', 'quadratic_up']",
    ),
    "alpha_outside_interval": (
        edited("control.alpha", 5.0),
        "config: control.alpha",
        "alpha out of range (0,4) for quadratic_up",
    ),
}


@pytest.mark.parametrize("data, location, reason", PINNED.values(), ids=PINNED)
def test_error_location_and_reason(data, location, reason):
    assert config_error(data) == (location, reason)


def test_errors_name_the_source():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(edited("seed", "x"), source="run.json")
    assert err.value.location == "run.json: seed"


def test_unreadable_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(path)
    assert (err.value.location, err.value.reason) == (
        str(path),
        f"cannot read config: [Errno 2] No such file or directory: {str(path)!r}",
    )


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(path)
    assert (err.value.location, err.value.reason) == (
        f"{path}:3:3",
        "Expecting property name enclosed in double quotes",
    )


def test_top_level_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(path)
    assert (err.value.location, err.value.reason) == (
        str(path),
        "top-level config must be a JSON object",
    )


#: A key given twice in one object, where ``json.loads`` alone would keep the
#: last value: config text with one key repeated, and that key.
GIVEN_TWICE = {
    "top_level": (
        json.dumps(BASE).replace(
            '"theorems": ["quadratic_up"]', '"theorems": ["combined"], "theorems": ["quadratic_up"]'
        ),
        "theorems",
    ),
    "nested": (json.dumps(BASE).replace('"quad": 1.0', '"quad": 1.0, "quad": 5.0'), "quad"),
    "in_a_list": (
        json.dumps(BASE).replace('"shape": "cos"', '"shape": "cos", "shape": "sin"'),
        "shape",
    ),
    "equal_values": (json.dumps(BASE).replace('"seed": 7', '"seed": 7, "seed": 7'), "seed"),
    "section": (json.dumps(BASE).replace('"grids": ', '"grids": {"x_count": 9}, "grids": '), "grids"),
}


@pytest.mark.parametrize("text, key", GIVEN_TWICE.values(), ids=GIVEN_TWICE)
def test_a_key_given_twice_is_a_config_error(tmp_path, capsys, text, key):
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    assert text.count(f'"{key}"') == 2
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.load(path)
    assert (err.value.location, err.value.reason) == (str(path), f"duplicate key {key!r}")
    code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: duplicate key {key!r}\n"
    assert not (tmp_path / "out").exists()


# --- inputs the reader rejects ------------------------------------------------


def run_cli(tmp_path, data, capsys) -> tuple[int, str]:
    """Exit status and stderr of ``fuzzystab run`` on ``data``, with the
    config path in stderr replaced by ``config``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # NaN and Infinity as JSON allows
    code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err.replace(str(path), "config")


NON_FINITE = {
    "q_scale_nan": ("negative_control.q_scale", math.nan),
    "q_scale_inf": ("negative_control.q_scale", math.inf),
    "radius_inf": ("grids.x_radius", math.inf),
}


@pytest.mark.parametrize("key, value", NON_FINITE.values(), ids=NON_FINITE)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    # a NaN q_scale would make every slack NaN, an infinite one every slack -inf
    code, err = run_cli(tmp_path, edited(key, value), capsys)
    assert code == EXIT_CONFIG
    assert f"config: {key}: expected a finite number, got {value!r}" in err


FLOAT_KEYS = [
    "grids.x_radius",
    "negative_control.q_scale",
    "control.alpha",
    "control.delta",
    "function.quad",
    "function.linear",
    "function.const",
    "function.perturbations.0.amplitude",
    "function.perturbations.0.frequency",
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", [math.nan, -math.inf, 10**400], ids=["nan", "-inf", "huge_int"])
def test_every_number_must_be_finite(key, value):
    location = "config: " + key.replace(".0.", "[0].")
    assert config_error(edited(key, value)) == (location, f"expected a finite number, got {value!r}")


def two_dim(**entry):
    data = edited("space", {"dim_x": 2, "dim_y": 1})
    data["function"] = {"coords": [entry]}
    return data


MALFORMED = {
    "grids_list": (edited("grids", [1, 2]), "grids"),
    "space_number": (edited("space", 3), "space"),
    "function_number": (edited("function", 3), "function"),
    "control_number": (edited("control", 3), "control"),
    "coords_number": (edited("function", {"coords": 5}), "function.coords"),
    "coord_number": (edited("function", {"coords": [5]}), "function.coords[0]"),
    "perturbation_number": (edited("function.perturbations", [3]), "function.perturbations[0]"),
    "perturbations_number": (edited("function.perturbations", 3), "function.perturbations"),
    "perturbations_object": (edited("function.perturbations", {}), "function.perturbations"),
    "perturbations_false": (edited("function.perturbations", False), "function.perturbations"),
    "amplitude_text": (
        edited("function.perturbations", [{"shape": "sin", "amplitude": ["a"]}]),
        "function.perturbations[0].amplitude[0]",
    ),
    "amplitude_bool": (
        edited("function.perturbations", [{"shape": "sin", "amplitude": [True]}]),
        "function.perturbations[0].amplitude[0]",
    ),
    "quad_text": (one_dim_coords(quad=[["a"]]), "function.coords[0].quad[0][0]"),
    "quad_ragged": (two_dim(quad=[[1.0], [1.0, 2.0]]), "function.coords[0].quad"),
    "linear_text": (one_dim_coords(linear="a"), "function.coords[0].linear"),
    "weights_number": (
        edited("space", {"dim_x": 1, "dim_y": 1, "crisp_norm": "weighted", "weights": 2.0}),
        "space.weights",
    ),
    "weights_text": (
        edited("space", {"dim_x": 1, "dim_y": 1, "crisp_norm": "weighted", "weights": ["a"]}),
        "space.weights[0]",
    ),
    "theorem_list": (edited("theorems", [["combined"]]), "theorems"),
    "seed_negative": (edited("seed", -1), "seed"),
}


@pytest.mark.parametrize("data, key", MALFORMED.values(), ids=MALFORMED)
def test_cli_malformed_shapes_exit_two(tmp_path, capsys, data, key):
    code, err = run_cli(tmp_path, data, capsys)
    assert code == EXIT_CONFIG
    assert f"config: {key}: " in err


CONTROL_BOUNDS = {
    "constant_delta": ({"family": "constant", "delta": -1, "alpha": 1.0}, "delta"),
    "power_theta": ({"family": "power", "theta": -1, "p": 1.0, "alpha": 1.0}, "theta"),
    "product_theta": (
        {"family": "product", "theta": -1, "p1": 1.0, "p2": 1.0, "alpha": 1.0},
        "theta",
    ),
}


@pytest.mark.parametrize("control, key", CONTROL_BOUNDS.values(), ids=CONTROL_BOUNDS)
def test_control_bounds_are_checked_at_load(control, key):
    location, reason = config_error(edited("control", control))
    assert (location, reason) == (f"config: control.{key}", f"{key} must be >= 0")


def test_cli_negative_delta_exits_two(tmp_path, capsys):
    code, err = run_cli(tmp_path, edited("control.delta", -1), capsys)
    assert code == EXIT_CONFIG
    assert "config: control.delta: delta must be >= 0" in err


# The verifier's own settings are fixed for every run, and no key sets them:
# the vanishing hypothesis is decided from the control's degree with no
# probe, and a slack of 1 would pass every membership check.
UNKNOWN = {
    "top_level": (edited("sede", 1), "sede"),
    "grids": (edited("grids.x_cuont", 5), "grids.x_cuont"),
    "tolerances": (edited("tolerances", {"n_mx": 5}), "tolerances"),
    "a_min": (edited("grids.a_min", 0.001), "grids.a_min"),
    "a_max": (edited("grids.a_max", 1000.0), "grids.a_max"),
    **{
        key: (edited("tolerances", {key: value}), "tolerances")
        for key, value in [
            ("extraction_tol", 1e-9),
            ("n_max", 40),
            ("membership_slack", 1.0),
            ("fuzzy_tol", 0.01),
            ("vanishing_probe", 30),
        ]
    },
    "negative_control": (edited("negative_control", {"scale": 1.1}), "negative_control.scale"),
    "space": (edited("space.dimx", 1), "space.dimx"),
    "function": (edited("function.quadd", 1.0), "function.quadd"),
    "coords": (one_dim_coords(lin=[1.0]), "function.coords[0].lin"),
    "perturbation": (
        edited("function.perturbations", [{"shape": "sin", "amp": 0.1}]),
        "function.perturbations[0].amp",
    ),
    "control": (edited("control.alpah", 1.0), "control.alpah"),
    "other_family": (edited("control.theta", 1.0), "control.theta"),
}


@pytest.mark.parametrize("data, key", UNKNOWN.values(), ids=UNKNOWN)
def test_unknown_keys_are_rejected(tmp_path, capsys, data, key):
    assert config_error(data) == (f"config: {key}", "unknown key")
    code, err = run_cli(tmp_path, data, capsys)
    assert (code, err) == (EXIT_CONFIG, f"config error: config: {key}: unknown key\n")


UNDECODABLE = {
    "not_utf8": b"\xff",
    "nested_too_deeply": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE)
def test_cli_undecodable_config_exits_two(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {path}: cannot read config: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_cli_matrix_nested_too_deeply_exits_two(tmp_path, capsys):
    # deep enough for the JSON parser, and read only to the matrix's depth
    code, err = run_cli(tmp_path, one_dim_coords(quad=nested(900)), capsys)
    reason = "expected a 1x1 matrix, got shape (1, 1, 1)"
    assert (code, err) == (EXIT_CONFIG, f"config error: config: function.coords[0].quad: {reason}\n")


# Keys the run would otherwise drop or repeat without a word: the shorthand
# next to ``coords``, weights under a norm that reads none, a repeated theorem,
# a q_scale when no listed theorem has a quadratic component.
DROPPED_OR_REPEATED = {
    "shorthand_with_coords": (
        edited("function", {"coords": [{"quad": [[1.0]]}], "quad": 5.0, "linear": 3.0}),
        "config: function.quad",
        "scalar shorthand and 'coords' are exclusive",
    ),
    "const_with_coords": (
        edited("function", {"coords": [{"quad": [[1.0]]}], "const": 2.0}),
        "config: function.const",
        "scalar shorthand and 'coords' are exclusive",
    ),
    "weights_under_max": (
        edited("space", {"dim_x": 1, "dim_y": 1, "crisp_norm": "max", "weights": [3.0]}),
        "config: space",
        "max norm takes no weights (only weighted does)",
    ),
    "weights_under_default_norm": (
        edited("space", {"dim_x": 1, "dim_y": 1, "weights": [3.0]}),
        "config: space",
        "euclidean norm takes no weights (only weighted does)",
    ),
    "weights_on_one_side_only": (
        edited("space", {"dim_x": 2, "dim_y": 1, "crisp_norm": "weighted", "weights": [0.5, 2.0]}),
        "config: space",
        "weights length must equal dim_x and dim_y",
    ),
    "duplicate_theorem": (
        edited("theorems", ["combined", "combined"]),
        "config: theorems",
        "duplicate theorem id 'combined'",
    ),
    "q_scale_without_quadratic": (
        dict(edited("theorems", ["additive_up"]), negative_control={"q_scale": 1.5}),
        "config: negative_control.q_scale",
        "no listed theorem has a quadratic component to scale",
    ),
}


@pytest.mark.parametrize(
    "data, location, reason", DROPPED_OR_REPEATED.values(), ids=DROPPED_OR_REPEATED
)
def test_cli_rejects_dropped_or_repeated_keys(tmp_path, capsys, data, location, reason):
    assert config_error(data) == (location, reason)
    code, err = run_cli(tmp_path, data, capsys)
    assert (code, err) == (EXIT_CONFIG, f"config error: {location}: {reason}\n")


@pytest.mark.parametrize("weights", [[-1.0], []], ids=["negative", "empty"])
def test_weighted_norm_weights_are_checked_by_crisp_norm(weights):
    data = edited("space", {"dim_x": 1, "dim_y": 1, "crisp_norm": "weighted", "weights": weights})
    reason = "weights must be a non-empty vector of positive reals"
    assert config_error(data) == ("config: space", reason)
