import json
import random
from fractions import Fraction

import pytest

from hutch.circle import frac
from hutch.homeo import PLHomeo
from hutch.ifs import IFS
from hutch.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_RESOURCE,
    describe,
    main,
    parse_config,
    run,
)
from conftest import random_point

F = Fraction


def small_theorem2_config(out_dir, probes=None):
    return parse_config(
        {
            "system": "theorem2",
            "probes": probes
            if probes is not None
            else [
                {"probe": "attractor", "start": "1/3", "budget": 16, "tol": "1/16"},
                {"probe": "minimality", "start": "1/3", "depth": 6, "epsilon": "1/8"},
            ],
            "out": str(out_dir),
            "seed": 0,
        }
    )


# -- config validation -----------------------------------------------------------


def test_malformed_rational_names_field():
    with pytest.raises(ConfigError, match="probes\\[0\\].tol"):
        parse_config(
            {
                "system": "theorem2",
                "probes": [{"probe": "attractor", "tol": "0.3"}],
            }
        )


def test_unknown_system_rejected():
    with pytest.raises(ConfigError, match="'system'"):
        parse_config({"system": "theorem9"})


def test_unknown_probe_rejected():
    with pytest.raises(ConfigError, match="probes\\[0\\].probe"):
        parse_config({"system": "theorem2", "probes": [{"probe": "entropy"}]})


@pytest.mark.parametrize(
    "config, flags, field",
    [
        pytest.param(
            {"system": "theorem2", "probes": [{"probe": "attractor", "tol": "0.3"}]},
            [],
            "probes[0].tol",
            id="decimal-tol",
        ),
        pytest.param(
            {"system": "theorem2", "probes": [], "precision": 5},
            [],
            "'precision'",
            id="precision-not-object",
        ),
        pytest.param(
            {"system": "theorem2", "probes": [{"probe": "attractor"}]},
            ["--tol", "0.5"],
            "probes[0].tol",
            id="decimal-tol-flag",
        ),
        pytest.param(
            {"system": "theorem2", "probes": [{"probe": "minimality"}]},
            ["--max-iter", "0"],
            "probes[0].depth",
            id="max-iter-below-floor",
        ),
        pytest.param(
            {"system": "theorem1",
             "probes": [{"probe": "sensitivity", "lengths": ["2"]}]},
            [],
            "probes[0].lengths",
            id="length-above-one",
        ),
    ],
)
def test_cli_exit_code_on_malformed_config(tmp_path, capsys, config, flags, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err


def test_cli_exit_code_on_resource_cap(tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "theorem2",
                "probes": [{"probe": "attractor", "start": "1/3", "budget": 16,
                            "tol": "1/1024"}],
                "precision": {"arc_cap": 4},
                "out": str(tmp_path / "out"),
            }
        )
    )
    code = main(["run", "--config", str(cfg)])
    assert code == EXIT_RESOURCE
    bundle = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert bundle["partial"] is True
    assert "error" in bundle["reports"][0]


# -- run -------------------------------------------------------------------------


def test_run_writes_bundle_and_csvs(tmp_path):
    config = small_theorem2_config(tmp_path / "out")
    bundle = run(config)
    assert len(bundle.reports) == 2
    out = tmp_path / "out"
    assert (out / "bundle.json").exists()
    assert (out / "probe_00_attractor.csv").exists()
    assert (out / "probe_01_minimality.csv").exists()
    assert (out / "timings.json").exists()
    payload = json.loads((out / "bundle.json").read_text())
    assert payload["tool"]["name"] == "hutch"
    assert payload["config"]["seed"] == 0


def test_run_deterministic_bundles(tmp_path):
    a = run(small_theorem2_config(tmp_path / "a"))
    b = run(small_theorem2_config(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "bundle.json").read_bytes()
    bytes_b = (tmp_path / "b" / "bundle.json").read_bytes()
    assert bytes_a == bytes_b


def test_csv_decimal_matches_exact(tmp_path):
    run(small_theorem2_config(tmp_path / "out"))
    lines = (tmp_path / "out" / "probe_00_attractor.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["n", "gap_radius", "gap_radius_exact", "arc_count", "coarsened"]
    for line in lines[1:]:
        _, decimal, exact, _, _ = line.split(",")
        assert decimal == format(float(frac(exact)), ".12g")


# -- describe -------------------------------------------------------------------


def test_describe_theorem2():
    config = parse_config({"system": "theorem2", "probes": []})
    info = describe(config)
    assert info["generator_count"] == 4
    assert info["diagonal_containment"] is True
    assert info["diagonal_containment_inverse"] is True
    assert info["symmetric"] is False
    assert info["symmetric_part"] == []


def test_describe_theorem1_symmetric_part():
    config = parse_config({"system": "theorem1", "probes": []})
    info = describe(config)
    assert info["generator_count"] == 5
    assert info["symmetric"] is False
    # both Denjoy pairs are mutually inverse; the blowup map is not
    assert info["symmetric_part"] == [1, 2, 3, 4]


def test_describe_symmetric_rotation_pair(tmp_path):
    system = IFS(
        (PLHomeo.rotation(F(1, 3)), PLHomeo.rotation(F(2, 3))), label="pair"
    )
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(system.to_obj()))
    config = parse_config({"system": {"path": str(path)}, "probes": []})
    info = describe(config)
    assert info["symmetric"] is True
    assert info["symmetric_part"] == [1, 2]


# -- file-system round trip --------------------------------------------------------


def test_ifs_file_round_trip(tmp_path, theorem2):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(theorem2.to_obj()))
    config = parse_config({"system": {"path": str(path)}, "probes": []})
    from hutch.cli import resolve_system

    loaded = resolve_system(config).forward
    rng = random.Random(3)
    for g, g2 in zip(theorem2.generators, loaded.generators):
        for _ in range(64):
            x = random_point(rng)
            assert g(x) == g2(x)


def test_missing_system_file():
    with pytest.raises(ConfigError, match="system.path"):
        from hutch.cli import resolve_system

        resolve_system(parse_config({"system": {"path": "/nope/x.json"}, "probes": []}))


# -- CLI surface ------------------------------------------------------------------


def test_cli_describe_text(capsys):
    assert main(["describe", "--system", "theorem2"]) == 0
    out = capsys.readouterr().out
    assert "generators: 4" in out
    assert "diagonal containment: True" in out


def test_cli_iterate(tmp_path, capsys):
    code = main(
        [
            "iterate",
            "--system",
            "theorem2",
            "--start",
            "1/3",
            "--steps",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "gap_radius=" in capsys.readouterr().out
    assert (tmp_path / "probe_00_iterate.csv").exists()


def test_cli_probe_shortcut(tmp_path, capsys):
    code = main(
        [
            "probe",
            "covering",
            "--system",
            "theorem2",
            "--params",
            json.dumps({"center": "1/3", "length": "1/16", "budget": 32}),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["covering_time"] is not None


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "theorem2",
                "probes": [
                    {"probe": "attractor", "start": "1/3", "budget": 64, "tol": "1/4"}
                ],
            }
        )
    )
    code = main(
        [
            "run",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
            "--max-iter",
            "8",
            "--tol",
            "1/8",
        ]
    )
    assert code == 0
    bundle = json.loads((tmp_path / "out" / "bundle.json").read_text())
    params = bundle["reports"][0]["params"]
    assert params["budget"] == 8
    assert params["tol"] == "1/8"
