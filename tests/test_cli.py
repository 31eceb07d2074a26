import hashlib
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hutch.circle import frac
from hutch.homeo import PLHomeo
from hutch.ifs import IFS
from hutch.cli import (
    COUNT_MAX,
    ConfigError,
    EXIT_CONFIG,
    EXIT_RESOURCE,
    _json,
    describe,
    main,
    parse_config,
    run,
)
from conftest import random_point

F = Fraction

ROOT = Path(__file__).resolve().parent.parent


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


def _committed_config(system):
    return json.loads((ROOT / "results" / system / "bundle.json").read_text())["config"]


@pytest.mark.parametrize(
    "config",
    [
        *(pytest.param(_committed_config(s), id=f"committed-{s}")
          for s in ("theorem1", "theorem2")),
        *(pytest.param(
            parse_config(json.loads((ROOT / "configs" / f"acceptance_{s}.json").read_text()))
            .echo(),
            id=f"acceptance-{s}",
        ) for s in ("theorem1", "theorem2")),
    ],
)
def test_config_echo_round_trip(config):
    # an echoed config, parsed again, echoes the same object
    assert parse_config(config).echo() == config


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
        # a run config lists its probes: none are run by default
        pytest.param({"system": "theorem2"}, [], "'probes'", id="no-probes"),
        pytest.param(
            {"system": "theorem2", "probes": [{"probe": "minimality", "depth": 0}]},
            [],
            "probes[0].depth",
            id="depth-below-floor",
        ),
        pytest.param(
            {"system": "theorem1",
             "probes": [{"probe": "sensitivity", "lengths": ["2"]}]},
            [],
            "probes[0].lengths",
            id="length-above-one",
        ),
        *(
            pytest.param(
                {"system": system, "system_params": params, "probes": []},
                [],
                "'system_params'",
                id=case,
            )
            for system, params, case in [
                ("theorem1", {"alpha": "1/2"}, "theorem1-alpha-small-denominator"),
                ("theorem1", {"stage": 0}, "theorem1-stage-zero"),
                ("theorem1", {"generators": 0}, "theorem1-no-generators"),
                ("theorem1", {"gap_index": 99}, "theorem1-gap-index-out-of-range"),
                ("theorem2", {"alpha": "3/2"}, "theorem2-alpha-above-one"),
            ]
        ),
        *(
            pytest.param({"system": system, "probes": []} | extra, [], field, id=case)
            for system, extra, field, case in [
                ("theorem2", {"probes": [{"probe": "attractor", "budjet": 3}]},
                 "probes[0].budjet", "unknown-probe-field"),
                ("theorem2", {"probes": [{"probe": "attractor", "tol": "1/0"}]},
                 "probes[0].tol", "zero-denominator"),
                ("theorem2", {"probes": [{"probe": ["attractor"]}]},
                 "probes[0].probe", "kind-not-string"),
                ("theorem1", {"system_params": {"lamda": "1/3"}},
                 "system_params.lamda", "unknown-theorem1-param"),
                ("theorem2", {"system_params": {"lambda": "1/3"}},
                 "system_params.lambda", "unknown-theorem2-param"),
                ("theorem2", {"precision": {"coarsen": "1/0"}},
                 "precision.coarsen", "coarsen-zero-denominator"),
                ("theorem2", {"precision": {"denominator_limt": 64}},
                 "precision.denominator_limt", "unknown-precision-field"),
                ("theorem2", {"out": 5}, "'out'", "out-int"),
                ("theorem2", {"out": {"a": 1}}, "'out'", "out-object"),
                ("theorem2", {"sede": 3}, "'sede'", "unknown-top-level-key"),
                ("theorem2", {"probs": [], "sede": 3}, "'probs'",
                 "misspelt-probes-key"),
                # booleans are JSON's, not rationals: true must not run as 1
                ("theorem2", {"probes": [{"probe": "attractor", "tol": True}]},
                 "probes[0].tol", "tol-boolean"),
                ("theorem2", {"probes": [{"probe": "attractor", "start": False}]},
                 "probes[0].start", "start-boolean"),
                ("theorem2", {"precision": {"coarsen": True}},
                 "precision.coarsen", "coarsen-boolean"),
            ]
        ),
        pytest.param(
            {"system": "theorem1", "probes": [{"probe": "sensitivity", "centers": []}]},
            [],
            "probes[0].centers",
            id="empty-centers",
        ),
        pytest.param(
            {"system": "theorem1",
             "probes": [{"probe": "equicontinuity", "base_points": []}]},
            [],
            "probes[0].base_points",
            id="empty-base-points",
        ),
        *(
            pytest.param(
                {"system": {"path": path}, "probes": []}, [], "'system.path'", id=case
            )
            for path, case in [
                ("generators-int.json", "ifs-generator-not-object"),
                ("generators-str.json", "ifs-generators-string"),
                ("offset-zero-denominator.json", "ifs-offset-zero-denominator"),
                ("breakpoint-boolean.json", "ifs-breakpoint-boolean"),
                (5, "path-not-string"),
                (".", "path-is-directory"),
            ]
        ),
        # a misspelt key must not load as its default: the key is named
        *(
            pytest.param(
                {"system": {"path": path}, "probes": []}, [], f"system.path': {key}", id=case
            )
            for path, key, case in [
                ("generator-typo.json", "generators[0].offest", "ifs-generator-unknown-key"),
                ("label-typo.json", "lable", "ifs-unknown-key"),
                ("label-list.json", "label", "ifs-label-not-string"),
            ]
        ),
        pytest.param(
            {"system": "theorem2", "probes": [
                {"probe": "invariance", "set": [{"start": "0", "length": "1/2", "end": "1/2"}]}
            ]},
            [],
            "probes[0].set': [0].end",
            id="arcset-unknown-key",
        ),
        # --out names a file, or a path through one
        *(
            pytest.param(
                {"system": "theorem2", "probes": [{"probe": "covering", "budget": 2}]},
                ["--out", out],
                "'out'",
                id=case,
            )
            for out, case in [("bad.json", "out-is-file"), ("bad.json/sub", "out-under-file")]
        ),
        pytest.param(
            {"system": {"path": "generators-int.json", "typo": 1}, "probes": []},
            [],
            "'system.typo'",
            id="system-unknown-key",
        ),
    ],
)
def test_cli_exit_code_on_malformed_config(
    tmp_path, monkeypatch, capsys, config, flags, field
):
    # the IFS files the system.path cases name, relative to the run directory
    monkeypatch.chdir(tmp_path)
    for name, ifs in [
        ("generators-int.json", {"generators": [1]}),
        ("generators-str.json", {"generators": "ab"}),
        ("offset-zero-denominator.json", {"generators": [{"offset": "1/0", "breakpoints": []}]}),
        ("breakpoint-boolean.json",
         {"generators": [{"breakpoints": [[False, "0"], ["1/2", "1/2"]]}]}),
        ("generator-typo.json", {"generators": [{"offest": "1/3"}]}),
        ("label-typo.json", {"lable": "x", "generators": [{"offset": "1/3"}]}),
        ("label-list.json", {"label": ["x"], "generators": [{"offset": "1/3"}]}),
    ]:
        (tmp_path / name).write_text(json.dumps(ifs))
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key",
    [("sensitivity", "centers"), ("equicontinuity", "base_points"),
     ("equicontinuity", "samples_per_delta")],
)
def test_cli_rejects_counts_above_the_ceiling_before_building_them(
    tmp_path, capsys, kind, key
):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"system": "theorem1", "probes": [{"probe": kind, key: 10**12}]}))
    started = time.perf_counter()
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1
    assert code == EXIT_CONFIG
    assert f"probes[0].{key}" in capsys.readouterr().err
    # the ceiling itself is accepted
    parse_config({"system": "theorem1", "probes": [{"probe": kind, key: COUNT_MAX}]})


def test_cli_probe_params_must_be_object(tmp_path, capsys):
    code = main(
        ["probe", "covering", "--system", "theorem2", "--params", "[1]",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert "'--params'" in capsys.readouterr().err


def test_cli_probe_params_cannot_change_kind(tmp_path, capsys):
    code = main(
        ["probe", "attractor", "--system", "theorem2", "--params",
         '{"probe": "covering"}', "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert "'--params'" in capsys.readouterr().err
    assert not (tmp_path / "bundle.json").exists()


@pytest.mark.parametrize(
    "content",
    [None, b'{"system": "th\xe9orem2"}'],
    ids=["directory", "not-utf8"],
)
def test_cli_unreadable_config_names_field(tmp_path, capsys, content):
    cfg = tmp_path / "cfg"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "'--config'" in capsys.readouterr().err


def test_cli_invariance_without_set_fails_before_any_probe(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "theorem2",
        "probes": [{"probe": "attractor", "budget": 2}, {"probe": "invariance"}],
    }))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "probes[1].set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", ["[1]", '"abc"', '[["system", "theorem2"]]'],
                         ids=["list-of-int", "string", "list-of-pairs"])
@pytest.mark.parametrize("command", [["describe"], ["run"], ["probe", "covering"]],
                         ids=["describe", "run", "probe"])
def test_cli_config_not_object_names_config(tmp_path, capsys, command, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    extra = [] if command == ["describe"] else ["--out", str(tmp_path / "out")]
    assert main([*command, "--config", str(cfg), *extra]) == EXIT_CONFIG
    assert "'--config'" in capsys.readouterr().err


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
    assert "arc count" in capsys.readouterr().err
    bundle = json.loads((tmp_path / "out" / "bundle.json").read_text())
    assert bundle["partial"] is True
    assert "error" in bundle["reports"][0]
    # run returns the partial bundle it writes
    assert run(parse_config(json.loads(cfg.read_text()))) == bundle


@pytest.mark.parametrize("name", ["probe_00_covering.csv.tmp", "bundle.json"])
def test_cli_unwritable_output_names_out(tmp_path, capsys, name):
    # a directory where run writes a file: the CSV's temporary file, or the
    # bundle itself once every probe has run
    (tmp_path / name).mkdir()
    code = main(["probe", "covering", "--system", "theorem2", "--params", '{"budget": 2}',
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'out'" in err and name.removesuffix(".tmp") in err
    # run removes the temporary file it wrote, and only that
    left = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert left == ([name] if name.endswith(".tmp") else [])


# -- run -------------------------------------------------------------------------


def test_run_writes_bundle_and_csvs(tmp_path):
    config = small_theorem2_config(tmp_path / "out")
    bundle = run(config)
    assert len(bundle["reports"]) == 2
    out = tmp_path / "out"
    assert (out / "bundle.json").exists()
    assert (out / "probe_00_attractor.csv").exists()
    assert (out / "probe_01_minimality.csv").exists()
    assert (out / "timings.json").exists()
    payload = json.loads((out / "bundle.json").read_text())
    assert bundle == payload
    assert payload["tool"]["name"] == "hutch"
    assert payload["config"]["seed"] == 0


# Between them the two configs run every probe kind, invariance both with and
# without a set; the digests pin bundle.json and every CSV byte for byte.
GOLDEN = {
    "theorem1": (
        [
            {"probe": "sensitivity", "direction": "backward", "lengths": ["1/64"],
             "centers": 2, "truncation": 8},
            {"probe": "equicontinuity", "base_points": 1, "deltas": ["1/16"],
             "truncation": 4, "samples_per_delta": 2},
            {"probe": "invariance"},
            {"probe": "minimality", "start": "1/3", "depth": 4, "epsilon": "1/8"},
        ],
        {
            "bundle.json": "b248c5c02d69e8775bb444b5a810acaf5a4315491dfcf35c75191b684c6e36c6",
            "probe_00_sensitivity.csv":
                "ee4c6b12aa8fe84451279834608228472c4a9da7d70d2ca42ce6e56a3aec6705",
            "probe_01_equicontinuity.csv":
                "09aab44e0c44c9da96cce153e7624dd9779830983cfac6a4dc0207f4a5d1099b",
            "probe_02_invariance.csv":
                "d7476a182ce4a16a2031c5dacecf5bcc09ac457065f5fde2e46ea882247aea8a",
            "probe_03_minimality.csv":
                "68d6e1b1244aaae3679f68c4edaa61ee8af2822e919a6d3d135225bc552e22ed",
        },
    ),
    "theorem2": (
        [
            {"probe": "attractor", "start": "1/3", "budget": 8, "tol": "1/16"},
            {"probe": "iterate", "direction": "backward", "start": "1/5", "steps": 3},
            {"probe": "covering", "center": "1/3", "length": "1/16", "budget": 16},
            {"probe": "invariance", "set": [{"start": "0", "length": "1"}]},
        ],
        {
            "bundle.json": "4d15008eb57b2715e1bcd3f27e3457171ab54aa2ed584da76075cce0b3107492",
            "probe_00_attractor.csv":
                "52d182b55e5f0d439b2bb734e444d606c21dee57dda55107a14baec8de120130",
            "probe_01_iterate.csv":
                "7484c599499d4470e83c132d59c88c6808d0678fd10d4ad4ed54f7927b3f136c",
            "probe_02_covering.csv":
                "09640fd659e4517d3cb69a18377bf99eeab755cb7888b9c2540bbf702a64839d",
            "probe_03_invariance.csv":
                "0d1293b5863da0522d8dbaad14a405fbfb231012d621de928eaaa4a664a693a7",
        },
    ),
}


def test_golden_configs_cover_every_kind():
    kinds = {p["probe"] for probes, _ in GOLDEN.values() for p in probes}
    assert kinds == {"attractor", "covering", "equicontinuity", "invariance",
                     "iterate", "minimality", "sensitivity"}


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_golden_bundle_and_csv_bytes(tmp_path, system):
    probes, digests = GOLDEN[system]
    run(parse_config({"system": system, "probes": probes, "out": str(tmp_path)}))
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "timings.json")
    assert written == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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
    path.write_text(json.dumps(_json(system)))
    config = parse_config({"system": {"path": str(path)}, "probes": []})
    info = describe(config)
    assert info["symmetric"] is True
    assert info["symmetric_part"] == [1, 2]


# -- file-system round trip --------------------------------------------------------


def test_ifs_file_round_trip(tmp_path, theorem2):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(_json(theorem2)))
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


@pytest.mark.parametrize(
    "system, flags, digest",
    [
        ("theorem1", [], "254d3cdfd453ae0e49552f1980c202dcbabfabf9a84ffc16b105c7fa2a415f96"),
        ("theorem1", ["--json"],
         "89d8b0a671021c9795e8f11df2858d7104ccee49020ca318e311cf013e5cdcba"),
        ("theorem2", [], "0709bcc61c0ef578cd1b66120fcfdb9995d23e912e805c79f747e257e75768f8"),
        ("theorem2", ["--json"],
         "b68325b7224bd3557fcb5cd4765ccdaffe3ace6da15af4d0960dc18d68a31484"),
    ],
)
def test_cli_describe_bytes(capsys, system, flags, digest):
    # the digests pin describe's whole output, generators and fixed sets included
    assert main(["describe", "--system", system, *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_iterate(tmp_path, capsys):
    # a trajectory is the iterate probe
    code = main(["probe", "iterate", "--system", "theorem2",
                 "--params", '{"start": "1/3", "steps": 5}', "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [step["n"] for step in report["steps"]] == list(range(6))
    assert (tmp_path / "probe_00_iterate.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "--system", "theorem2", "--tol", "1/0"],
        ["describe", "--system", "theorem2", "--out", "x"],
        ["iterate", "--system", "theorem2"],
        # nothing is random: there is no seed flag (a config may still carry one)
        ["run", "--system", "theorem2", "--seed", "1", "--tol", "abc"],
        # probe fields and precision are set in a config or --params only
        ["run", "--system", "theorem2", "--max-iter", "2"],
        ["run", "--system", "theorem2", "--denominator-limit", "64"],
        ["run", "--system", "theorem2", "--coarsen", "1/64"],
        ["probe", "iterate", "--system", "theorem2", "--start", "1/3"],
    ],
)
def test_cli_rejects_unknown_arguments(argv, capsys):
    # describe reads only --config, --system and --json; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


@pytest.mark.parametrize("command", ["describe", "run", "probe"])
def test_readme_names_every_flag(command, capsys):
    # the README's sentence "`COMMAND ...` takes ..." names exactly the
    # flags of the subcommand's --help
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(rf"`{command}[^`]*` takes ([^.]*)\.", readme)
    assert sentence, command
    assert set(re.findall(r"`(--[a-z][a-z-]*)", sentence.group(1))) == flags


def test_theorem2_config_reproduces_committed_results(tmp_path, monkeypatch):
    # bundle.json and the CSVs are deterministic; timings.json is wall clock
    monkeypatch.chdir(ROOT)
    config = json.loads(Path("configs/theorem2.json").read_text())
    assert config["out"] == "results/theorem2"
    assert main(["run", "--config", "configs/theorem2.json", "--out", str(tmp_path)]) == 0
    committed = ROOT / "results" / "theorem2"
    names = ["bundle.json"] + sorted(p.name for p in committed.glob("*.csv"))
    assert len(names) == 5
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_theorem1_config_is_the_committed_one():
    # the full run is too slow for this suite; its config is pinned instead
    config = json.loads((ROOT / "configs" / "theorem1.json").read_text())
    assert config["out"] == "results/theorem1"
    assert parse_config(config).echo() == _committed_config("theorem1")


@pytest.mark.parametrize(
    "kind, key, point, entries",
    [("sensitivity", "centers", "3/16", "entries"),
     ("equicontinuity", "base_points", "3/8", "base_points")],
)
def test_theorem1_results_hold_the_entries_of_one_point(tmp_path, kind, key, point, entries):
    # entries are per point, so a run of the committed config's probe at one
    # of its points reproduces them verbatim: a stale results/theorem1 fails
    # here without the full run
    config = json.loads((ROOT / "configs" / "theorem1.json").read_text())
    index, probe = next((i, p) for i, p in enumerate(config["probes"]) if p["probe"] == kind)
    run(parse_config({**config, "probes": [{**probe, key: [point]}], "out": str(tmp_path)}))
    fresh = json.loads((tmp_path / "bundle.json").read_text())["reports"][0]["report"]
    committed = json.loads((ROOT / "results" / "theorem1" / "bundle.json").read_text())
    produced = fresh[entries]
    assert produced and all(
        entry in committed["reports"][index]["report"][entries] for entry in produced
    )
