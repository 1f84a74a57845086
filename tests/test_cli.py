import argparse
import base64
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from mobman import cli
from mobman.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from mobman.diffusion import (
    ACTION_DIM,
    CHECKPOINT_DIMS,
    COND_DIM,
    DEFAULT_HORIZON,
    ActionChunkTensor,
    ToyDenoiser,
    TrainingDivergedError,
    cosine_schedule,
    ddim_sample,
    load_checkpoint,
    model_eps_fn,
    obs_to_condition,
    save_checkpoint,
)
from mobman.executor import NonFiniteChunkError
from mobman.geometry import Pose3, quat_canonical, quat_mul, rot_z
from mobman.jsonl import finite_float64, float64_text, read_json
from mobman.manifest import RunManifest, file_sha256
from mobman.pipeline import DemoDataset
from mobman.sim import make_scenario, save_expert_session, scripted_expert
from test_unreferenced import _assert_finite_file


@pytest.fixture(scope="module")
def raw_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    expert = scripted_expert(make_scenario("nav_reach"), seed=5)
    save_expert_session(root, expert)
    return root, expert


@pytest.fixture(scope="module")
def anchored(raw_session, tmp_path_factory):
    raw, expert = raw_session
    out = tmp_path_factory.mktemp("anchor") / "anchors.json"
    rc = main(
        [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(out),
        ]
    )
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def processed(raw_session, anchored, tmp_path_factory):
    raw, _ = raw_session
    out = tmp_path_factory.mktemp("proc")
    rc = main(
        ["process", "--raw", str(raw), "--anchor", str(anchored), "--output", str(out)]
    )
    assert rc == EXIT_OK
    return out


class TestAnchorCommand:
    def test_noiseless_residual_zero(self, anchored, raw_session):
        _, expert = raw_session
        doc = read_json(anchored)
        for node in ("chest", "hand"):
            assert doc["anchors"][node]["position_rms_m"] < 1e-9
        got = np.array(doc["cross_node"])
        truth = np.array(expert.cross_node_true.to_list())
        # rotation sign may differ; compare positions and |dot| of quats
        assert np.max(np.abs(got[:3] - truth[:3])) < 1e-9
        assert abs(abs(np.dot(got[3:], truth[3:])) - 1.0) < 1e-9

    def test_missing_extrinsics_is_usage_error(self, raw_session, tmp_path):
        raw, _ = raw_session
        rc = main(
            [
                "anchor",
                "--trajectories", str(raw / "trajectories.jsonl"),
                "--detections", str(raw / "detections.jsonl"),
                "--extrinsics", str(tmp_path / "nope.json"),
                "--output", str(tmp_path / "a.json"),
            ]
        )
        assert rc == EXIT_USAGE

    def test_writes_manifest(self, anchored):
        man = RunManifest.load(anchored.with_suffix(".manifest.json"))
        assert man.command == "anchor"
        assert man.outputs == {str(anchored): file_sha256(anchored)}


class TestManifest:
    # the bytes RunManifest.save wrote for this content before it used dataclasses.asdict
    PINNED_SHA256 = "5b630acc08b0beee60fa5d1ed89a6812f5b0bcefd67bab0bf9d011cdd15789e4"

    def test_saved_bytes_pinned(self, tmp_path):
        man = RunManifest(
            "process",
            {"raw": "r", "anchor": "a.json", "calib": None, "output": "out", "smoothing": True},
            seed=7,
            inputs={
                "raw": {"markers.jsonl": "0" * 64, "trajectories.jsonl": "f" * 64},
                "anchor": {"a.json": "ab" * 32},
            },
            outputs={"out/dataset.jsonl": "cd" * 32, "out/filter_report.json": "ef" * 32},
        )
        man.save(tmp_path / "m.json")
        assert file_sha256(tmp_path / "m.json") == self.PINNED_SHA256
        assert RunManifest.load(tmp_path / "m.json") == man


class TestProcessCommand:
    def test_writes_dataset_and_manifest_only(self, processed):
        # a rejected session writes nothing, so no file reports the filter's verdict
        assert sorted(p.name for p in processed.iterdir()) == ["dataset.jsonl", "manifest.json"]

    @pytest.mark.parametrize("markers", ["recorded", "empty"])
    def test_covariance_spike_rejected(self, raw_session, anchored, tmp_path, capsys, markers):
        # every reason is named, and the filter runs before the streams are
        # resampled, so an empty marker stream does not hide them
        raw, _ = raw_session
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "markers.jsonl").write_text((raw / "markers.jsonl").read_text() if markers == "recorded" else "")
        lines = []
        for line in (raw / "trajectories.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec["cov_trace"] = 0.5
            lines.append(json.dumps(rec))
        (bad / "trajectories.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(
            ["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(tmp_path / "o")]
        )
        assert rc == EXIT_REJECTED
        assert capsys.readouterr().err.strip().splitlines() == [
            "rejected: session rejected: covariance: chest trace exceeds 0.01 m^2; "
            "covariance: hand trace exceeds 0.01 m^2"
        ]
        assert not (tmp_path / "o").exists()

    def test_vertical_chest_rejected(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "markers.jsonl").write_text((raw / "markers.jsonl").read_text())
        # pitched -90 deg about y: the chest's forward axis points straight up
        up = [math.sqrt(0.5), 0.0, -math.sqrt(0.5), 0.0]
        lines = []
        for line in (raw / "trajectories.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if rec["node"] == "chest":
                rec["pose"][3:7] = up
            lines.append(json.dumps(rec))
        (bad / "trajectories.jsonl").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(
            ["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(tmp_path / "o")]
        )
        assert rc == EXIT_REJECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("rejected: ")
        assert "vertical" in err[0]

    def test_calib_recorded_as_input(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        calib = tmp_path / "calib.json"
        calib.write_text(json.dumps({"d_closed": 0.01, "d_open": 0.09}))
        out = tmp_path / "p"
        argv = ["process", "--raw", str(raw), "--anchor", str(anchored), "--calib", str(calib)]
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        man = RunManifest.load(out / "manifest.json")
        assert man.inputs["calib"] == {"calib.json": file_sha256(calib)}
        # a calibration edited after the run makes its replay fail
        calib.write_text(json.dumps({"d_closed": 0.02, "d_open": 0.09}))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(out / "manifest.json")]) == EXIT_REJECTED
        assert "rejected: replay inputs differ from manifest: calib" in capsys.readouterr().err

    def test_missing_markers_usage_error(self, anchored, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["process", "--raw", str(empty), "--anchor", str(anchored), "--output", str(tmp_path / "o2")]
        )
        assert rc == EXIT_USAGE

    def _process_markers(self, raw, anchored, tmp_path, lines):
        bad = tmp_path / "raw"
        bad.mkdir()
        (bad / "trajectories.jsonl").write_text((raw / "trajectories.jsonl").read_text())
        (bad / "markers.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        return main(["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(out)]), out

    def test_empty_markers_rejected(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        capsys.readouterr()
        rc, out = self._process_markers(raw, anchored, tmp_path, [])
        assert rc == EXIT_REJECTED
        assert capsys.readouterr().err.strip().splitlines() == ["rejected: marker stream is empty"]
        assert not out.exists()

    @pytest.mark.parametrize("keep", [1, 5])
    def test_overlap_under_two_steps_rejected(self, raw_session, anchored, tmp_path, capsys, keep):
        # markers for 0.08 s or less leave one 10 Hz step, which forms no label
        raw, _ = raw_session
        lines = (raw / "markers.jsonl").read_text().splitlines()[:keep]
        capsys.readouterr()
        rc, out = self._process_markers(raw, anchored, tmp_path, lines)
        assert rc == EXIT_REJECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["rejected: streams overlap for fewer than two 10 Hz steps"]
        assert not out.exists()

    def test_out_of_order_markers_sorted(self, raw_session, anchored, processed, tmp_path):
        raw, _ = raw_session
        lines = (raw / "markers.jsonl").read_text().splitlines()
        np.random.default_rng(0).shuffle(lines)
        rc, out = self._process_markers(raw, anchored, tmp_path, lines)
        assert rc == EXIT_OK
        # the same bytes as the file in time order
        assert file_sha256(out / "dataset.jsonl") == file_sha256(processed / "dataset.jsonl")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ("repeat", "repeated marker timestamp t=0.06"),
            pytest.param("nan", "non-finite marker t value nan", id="nan"),
        ],
    )
    def test_unordered_marker_usage_error(self, edit, reason, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        lines = (raw / "markers.jsonl").read_text().splitlines()
        if edit == "repeat":
            lines.insert(7, lines[3])  # t = 0.06 twice
        else:
            rec = json.loads(lines[3])
            rec["t"] = math.nan
            lines[3] = json.dumps(rec)
        capsys.readouterr()
        rc, out = self._process_markers(raw, anchored, tmp_path, lines)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: {tmp_path / 'raw' / 'markers.jsonl'}: {reason}"]
        assert not (out / "dataset.jsonl").exists()


    def test_non_finite_marker_distance_usage_error(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        lines = (raw / "markers.jsonl").read_text().splitlines()
        rec = json.loads(lines[3])
        rec["distance_m"] = math.nan
        lines[3] = json.dumps(rec)
        capsys.readouterr()
        rc, out = self._process_markers(raw, anchored, tmp_path, lines)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"usage error: {tmp_path / 'raw' / 'markers.jsonl'}: non-finite marker distance_m value nan"
        ]
        assert not (out / "dataset.jsonl").exists()

    def test_negative_marker_distance_usage_error(self, raw_session, anchored, tmp_path, capsys):
        # finite but outside the domain of a distance; the grip map would clamp it to 0
        raw, _ = raw_session
        lines = []
        for line in (raw / "markers.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec["distance_m"] = -0.5
            lines.append(json.dumps(rec))
        capsys.readouterr()
        rc, out = self._process_markers(raw, anchored, tmp_path, lines)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"usage error: {tmp_path / 'raw' / 'markers.jsonl'}: negative marker distance_m value -0.5"
        ]
        assert not (out / "dataset.jsonl").exists()


def _set_t(rec, value):
    rec["t"] = value


def _set_position(rec, value):
    rec["pose"][1] = value


def _set_quaternion(rec, value):
    rec["pose"][4] = value


def _set_cov_trace(rec, value):
    rec["cov_trace"] = value


class TestNonFiniteTrajectory:
    """A non-finite trajectory value is a usage error naming the file, for
    anchor and for process, instead of a traceback or a silent acceptance."""

    @pytest.mark.parametrize("command", ["anchor", "process"])
    @pytest.mark.parametrize(
        "edit, value, reason",
        [
            (_set_t, math.nan, "non-finite trajectory timestamp value nan"),
            (_set_position, math.inf, "non-finite trajectory position value inf"),
            (_set_quaternion, math.nan, "non-finite trajectory quaternion value nan"),
            (_set_cov_trace, math.nan, "non-finite trajectory covariance trace value nan"),
        ],
        ids=["t", "position", "quaternion", "cov_trace"],
    )
    def test_usage_error_names_file(
        self, command, edit, value, reason, raw_session, anchored, tmp_path, capsys
    ):
        raw, _ = raw_session
        bad = tmp_path / "raw"
        bad.mkdir()
        (bad / "markers.jsonl").write_text((raw / "markers.jsonl").read_text())
        lines = (raw / "trajectories.jsonl").read_text().splitlines()
        rec = json.loads(lines[5])
        edit(rec, value)
        lines[5] = json.dumps(rec)
        traj = bad / "trajectories.jsonl"
        traj.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "anchor":
            argv = [
                "anchor",
                "--trajectories", str(traj),
                "--detections", str(raw / "detections.jsonl"),
                "--extrinsics", str(raw / "extrinsics.json"),
                "--output", str(out / "anchors.json"),
            ]
        else:
            argv = ["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(out)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: {traj}: {reason}"]
        assert not out.exists()


class TestProcessDigests:
    # SHA-256 of anchors.json, then of dataset.jsonl from `process` and from
    # `process --no-smoothing`, for the scripted_expert session of seed 13,
    # noiseless or at 1 mm / 1e-3 rad; a digest that moves means the dataset
    # bytes changed. (The anchors.json digests moved when its per-node
    # ill_conditioned field, always false when written, was dropped.)
    DIGESTS = {
        ("nav_reach", False): (
            "d0183bdb3105c078518747b1eb778e217df787266d0558d0ae1e24027126368e",
            "b5748b07985a876d390c68e9f7ae3b8599defb8fcdef583dc01663acaadb5c82",
            "002df02344e2d832ca90864c8baa885ccd5fcbe07617912595ba7a0a57173e6b",
        ),
        ("nav_reach", True): (
            "218ed7f496a68c6d19bd4c966fb2d2ac6220912b159fede07bd3af447d4c6ed1",
            "dc95721cd759874ed8e209408fbc641a105259345ae54963a7b0cd56094f426b",
            "fb4674d2475cf50a18482a597c5e8bba00c21a906209e97fff4bc3b449852507",
        ),
        ("nav_turn_place", False): (
            "3aa5ad0a544b5f5c555d1e3681e8e9b46ed2f2613e8a702709cc5a7f5bb816b8",
            "a351ae651df2c336964762d377ea65d48796854fcbc295e3ce79f6f1600a75d5",
            "f2d84e8bcb3ecad6b292d63e63ebc04687bb7bd699b7950857458b061b2cfd8a",
        ),
        ("nav_turn_place", True): (
            "e665a97d41afa75b2e1eb178437dbfa9d33f4fe3d29faa8c81f16e8bbf329f40",
            "4e784d35fa0c1cf392d40cc315d485cc8501bcadfb8f809ce3a63b10f450f145",
            "7dd2e5129bdc5de1feab603fe9327c4d967b9f511be037053e8fca1372016cb4",
        ),
        ("long_horizon", False): (
            "0899b69c94657e5ac803526f8b3259c7bf39ad78a3f29b0c0a4261ffc1904643",
            "552e80b2c9ff8e3a8b0328def205d4ec68edc113e4b324fa18a4acc57b791ed2",
            "728cc7f5a4311776db887a2e0cd579c4690d47b76495f8b329a0d41cd8dc5a1d",
        ),
        ("long_horizon", True): (
            "9bca0cadf5541dcf2fa7ed75347a59cbfc7385b2c6972d641fd903f6355759b5",
            "e477420416241979d563c3cb9af0b055c17187423df3ff2b0e2f4c4be07f21da",
            "caeed0eb166e09ed5ec064e66b0397de952a01894ef6678e8a96d831afe5370e",
        ),
        ("cruise", False): (
            "307d135d052383710420266f092039e2c42e70728a9af060cda50f5c08c3d2a4",
            "f6fffbf33bc462c141d9e9c507314b22524edfbbd35c1d5786e0e8f126746f9a",
            "bf36d0cdff57c7e21ad6b7da2337702f0522517c66e895bdb701e64ebc5af691",
        ),
        ("cruise", True): (
            "b16618a0de4ed9130a43ac11b443328885b27edafe62ab285c7c3bf8a5db150d",
            "5fe79ff61f9bfb466ba9659cda25f9bc07e9a778fcc926dc8430932ded9d7c51",
            "d6283bb55428397535fd758f8ee5d080b7657958e4743a3e5df4841b30f0ecaf",
        ),
    }

    @pytest.mark.parametrize("scenario, noisy", sorted(DIGESTS))
    def test_anchor_and_process_bytes_pinned(self, scenario, noisy, tmp_path):
        sigma = 1e-3 if noisy else 0.0
        expert = scripted_expert(make_scenario(scenario), seed=13, sigma_pos=sigma, sigma_rot=sigma)
        raw = tmp_path / "raw"
        save_expert_session(raw, expert)
        anchors = tmp_path / "anchors.json"
        argv = [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(anchors),
        ]
        assert main(argv) == EXIT_OK
        digests = [file_sha256(anchors)]
        for name, extra in (("smooth", []), ("unsmoothed", ["--no-smoothing"])):
            out = tmp_path / name
            argv = ["process", "--raw", str(raw), "--anchor", str(anchors), "--output", str(out)]
            assert main([*argv, *extra]) == EXIT_OK
            digests.append(file_sha256(out / "dataset.jsonl"))
        assert tuple(digests) == self.DIGESTS[(scenario, noisy)]


class TestTrainCommand:
    def test_seed_repeat_identical_checkpoint(self, processed, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            rc = main(
                [
                    "train-toy",
                    "--dataset", str(processed / "dataset.jsonl"),
                    "--output", str(out),
                    "--steps", "40",
                    "--seed", "3",
                ]
            )
            assert rc == EXIT_OK
            outs.append(file_sha256(out / "model.json"))
        assert outs[0] == outs[1]

    def test_empty_dataset_usage_error(self, tmp_path):
        ds = tmp_path / "empty.jsonl"
        ds.write_text("")
        rc = main(["train-toy", "--dataset", str(ds), "--output", str(tmp_path / "m")])
        assert rc == EXIT_USAGE

    def test_divergence_message(self, processed, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergedError(7)

        monkeypatch.setattr(cli, "train_toy", diverge)
        rc = main(
            [
                "train-toy",
                "--dataset", str(processed / "dataset.jsonl"),
                "--output", str(tmp_path / "m"),
            ]
        )
        assert rc == EXIT_REJECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["rejected: training diverged: loss became non-finite at step 7"]


class TestSimulateCommand:
    def _run(self, out, *extra):
        return main(
            [
                "simulate",
                "--scenario", "nav_reach",
                "--trials", "2",
                "--seed", "7",
                "--output", str(out),
                *extra,
            ]
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        h = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert self._run(out) == EXIT_OK
            h.append(file_sha256(out / "metrics.csv"))
        assert h[0] == h[1]

    def test_zero_latency_matching_identical(self, tmp_path):
        aggs = []
        for name, flag in (("on", "on"), ("off", "off")):
            out = tmp_path / name
            assert self._run(out, "--latency-ms", "0", "--matching", flag) == EXIT_OK
            agg = read_json(out / "aggregate.json")
            aggs.append(next(iter(agg.values())))
        assert aggs[0] == aggs[1]

    def test_matching_off_reports_rollbacks(self, tmp_path):
        out = tmp_path / "off142"
        assert self._run(out, "--matching", "off") == EXIT_OK
        agg = next(iter(read_json(out / "aggregate.json").values()))
        assert agg["mean_rollbacks"] > 0

    def test_unknown_scenario_usage_error(self, tmp_path):
        rc = main(
            ["simulate", "--scenario", "bogus", "--output", str(tmp_path / "x")]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [("--trials", "0"), ("--latency-ms", "-5"), ("--jitter-ms", "-3")],
    )
    def test_bad_numeric_flag_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        rc = main(["simulate", "--trials", "1", flag, value, "--output", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: {flag}")
        assert not out.exists()

    # SHA-256 of (metrics.csv, aggregate.json) of `simulate --trials 2 --seed 3`
    # with the extra flags of each run; a digest that moves means fixed-seed
    # outputs changed.
    GOLDEN_DIGESTS = {
        ("replay", "on", "relative"): (
            "0ad1e9c457e3812ad6ce860c3b86b23d811fac6df3c26abded52e23e5af4ba04",
            "40c1fd52493e6a8d7b623a7f01d6e70a0689a7e72df91fb50bc17c8d36ab24b1",
        ),
        ("replay", "on", "global"): (
            "ea9bb79c2f4cefa47efc3ee1b79f6c194903a7364cba04165d4237681858b3af",
            "67566b87fc21b7d97479eb4163a49b7f6ddaa1cfa43840f9b761f0c4c6dccfa0",
        ),
        ("replay", "off", "relative"): (
            "ec67b3702d99719babb2840cc84307544b0836832b7eebf8588bdf82827da10d",
            "56246a585c2f10bb3f097c6f6a9d10bb31ee91444190ad3fcd2327c88e4178f0",
        ),
        ("replay", "off", "global"): (
            "9895e2e90e6fcd6079c453aa47ee5e2020b49dab2f1d70b1fa547f3bdab770d1",
            "14f03af7c5336d4ede06e625df26552dad5c730dbf931339b73fb1fab5a24810",
        ),
        ("cruise", "on", "relative"): (
            "e75b0a7cd3de5ec123f4c7924f5e8448ea8aedd2208e4f559122719da9949ff2",
            "1e129d42df90b1cf089e52f74956b4276fe3423529e10ad4a19abc106e9b97eb",
        ),
        ("cruise", "on", "global"): (
            "baac30e0bc024d21e2da0b7e0d0a82c5ab20a49e6e21ecda2c344a21aec7a09c",
            "57c7f6930e0ae8a5616f81338b41ad67bc071cec584399023cc8605811bcf84a",
        ),
        ("cruise", "off", "relative"): (
            "bcb109cf80dceb49a4665a72026cd786cf532dc056bd59bbb8730df587b81376",
            "268a4de30c236ffe136ea56bbe090b40d2b3a05352cec74b6adb7814dace00b9",
        ),
        ("cruise", "off", "global"): (
            "966ed04d96bac0da2d6d1c286a98cec4c6300199ecae6a4ba545c6acba0477d2",
            "b26608553b6fcda8a6c6c7d03ee7a77b16b5dc9e1704f0f05c6eaab28dac4aa5",
        ),
    }
    KINEMATIC_DIGESTS = (
        "0162b6b042b8f42799ad2599f531d0d07d59ed694d59bd66545b8715563c350e",
        "0314a31dd1a7352d94e82c02874b2d8bbf21fb2e15e2da1d9a6a95c9f35ce30e",
    )

    @staticmethod
    def _digests(out):
        return (file_sha256(out / "metrics.csv"), file_sha256(out / "aggregate.json"))

    def _run_golden(self, out, *extra):
        return main(["simulate", "--trials", "2", "--seed", "3", "--output", str(out), *extra])

    @pytest.mark.parametrize("policy, matching, label", sorted(GOLDEN_DIGESTS))
    def test_golden_outputs(self, tmp_path, policy, matching, label):
        rc = self._run_golden(
            tmp_path,
            "--policy", policy,
            "--matching", matching,
            "--label", label,
            "--variation",
            "--jitter-ms", "18",
        )
        assert rc == EXIT_OK
        assert self._digests(tmp_path) == self.GOLDEN_DIGESTS[(policy, matching, label)]

    def test_golden_outputs_kinematic(self, tmp_path):
        assert self._run_golden(tmp_path, "--kinematic") == EXIT_OK
        assert self._digests(tmp_path) == self.KINEMATIC_DIGESTS

    # SHA-256 of (model.json, curve.csv) of `train-toy --steps 40 --seed 3` on
    # the processed nav_reach demo, and of (metrics.csv, aggregate.json) of
    # `simulate --trials 2 --seed 3 --policy` on that checkpoint.
    CHECKPOINT_DIGESTS = (
        "97ad1323893740ace6f23e94f24ea20c4a27f85b8a0f13417e0c1eb019445405",
        "012f44fe301eddbb43bcc8a4e0f54c6144243ab3985c1c471c58f13ed21736c5",
    )
    CHECKPOINT_POLICY_DIGESTS = (
        "e779298802c681aafeacf997a099fcdc7bb0fe105c0bc6e89e155e4da1845922",
        "7fb25bcf1d757327123611c8561cf79a4261cea2260a414f4f6d73f82abd6c29",
    )

    def test_golden_outputs_checkpoint_policy(self, processed, tmp_path):
        ckpt_dir = tmp_path / "m"
        dataset = str(processed / "dataset.jsonl")
        argv = ["train-toy", "--dataset", dataset, "--output", str(ckpt_dir)]
        assert main([*argv, "--steps", "40", "--seed", "3"]) == EXIT_OK
        ckpt = ckpt_dir / "model.json"
        assert (file_sha256(ckpt), file_sha256(ckpt_dir / "curve.csv")) == self.CHECKPOINT_DIGESTS
        out = tmp_path / "s"
        assert self._run_golden(out, "--policy", str(ckpt)) == EXIT_OK
        assert self._digests(out) == self.CHECKPOINT_POLICY_DIGESTS

    def test_checkpoint_loaded_once_per_call(self, processed, tmp_path, monkeypatch):
        ckpt_dir = tmp_path / "m"
        dataset = str(processed / "dataset.jsonl")
        argv = ["train-toy", "--dataset", dataset, "--output", str(ckpt_dir)]
        assert main([*argv, "--steps", "5"]) == EXIT_OK
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", counting_load)
        out = tmp_path / "s"
        assert self._run_golden(out, "--policy", str(ckpt_dir / "model.json")) == EXIT_OK
        assert len(loads) == 1


# an observation: base at the origin, hand ahead and below the chest, grip open
OBS = (0.0, 0.0, 0.0, 0.3, 0.0, -0.2, 1.0, 0.0, 0.0, 0.0, 1.0)


class TestDiffusionReplayPolicy:
    def test_chunk_matches_condition_rebuilt_per_row(self):
        rng = np.random.default_rng(30)
        model = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=COND_DIM)
        model.init_params(rng)
        model.ema = {n: v + rng.normal(0.0, 0.05, size=v.shape) for n, v in model.params.items()}
        sched = cosine_schedule()
        policy = cli.DiffusionReplayPolicy(model, sched, seed=7)
        eps_fn = model_eps_fn(model)
        for call in range(2):
            obs = (0.2 * call, 0.1, 0.3, 0.3, 0.0, -0.2, 1.0, 0.0, 0.0, 0.0, 0.4)
            got = policy(obs, 0.1 * call).rows
            # the adapter's rows, each sampled under a condition built afresh
            row_rng = np.random.default_rng([7, 0xD1, call])
            rows, prev = [], np.zeros(ACTION_DIM)
            hand = Pose3(np.array(obs[6:10]), np.array(obs[3:6]))
            state = (*obs[:3], *hand.to_list(), obs[10])
            for _ in range(DEFAULT_HORIZON):
                cond = obs_to_condition(state, prev, np.zeros(0))
                prev = ddim_sample(eps_fn, cond, sched, rng=row_rng, sample_dim=ACTION_DIM)[0]
                rows.append(prev)
            # then each row's quaternion-increment block made canonical
            want = [(*r[:6], *quat_canonical(r[6:10]), r[10]) for r in rows]
            assert got == tuple(tuple(map(float, r)) for r in want)
            assert all(type(v) is float for row in got for v in row)

    @staticmethod
    def _policy_sampling(monkeypatch, rows):
        """A DiffusionReplayPolicy whose sampler returns the rows of rows, one
        per call, in turn."""
        model = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=COND_DIM)
        model.init_params(np.random.default_rng(31))
        sampled = iter(rows)
        monkeypatch.setattr(cli, "ddim_sample", lambda *args, **kwargs: next(sampled)[None].copy())
        return cli.DiffusionReplayPolicy(model, cosine_schedule(), seed=3)

    def test_sampled_quaternion_blocks_become_canonical(self, monkeypatch):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(DEFAULT_HORIZON, ACTION_DIM))
        chunk = self._policy_sampling(monkeypatch, rows)(OBS, 0.0)
        for row in chunk.rows:
            assert row[6] >= 0.0
            assert abs(math.sqrt(sum(v * v for v in row[6:10])) - 1.0) < 1e-12

    def test_canonicalisation_matches_per_row_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(DEFAULT_HORIZON, ACTION_DIM))
        rows[1, 6:10] = (0.0, -0.3, 0.4, 0.0)  # w == 0: the first nonzero component decides
        rows[2, 6:10] = (-0.0, 0.0, 0.0, 2.0)
        rows[3, 6:10] = (0.0, 0.0, -0.0, -1e-3)
        rows[4, 6:10] = (-1e-150, 5e-151, 0.0, 0.0)
        rows[5, 6:10] = (1e150, -1e150, 3e149, 0.0)
        expected = rows.copy()
        for i in range(len(expected)):
            expected[i, 6:10] = quat_canonical(expected[i, 6:10])
        got = np.array(self._policy_sampling(monkeypatch, rows)(OBS, 0.0).rows)
        assert got.tobytes() == expected.tobytes()
        assert got[1, 7] > 0.0 and got[3, 9] > 0.0

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, 1e200])
    def test_degenerate_quaternion_block_is_non_finite_chunk(self, monkeypatch, bad):
        # 1e200 is finite, but the block's norm overflows: the chunk is
        # rejected, and no RuntimeWarning reaches the caller
        rows = np.tile([0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], (DEFAULT_HORIZON, 1))
        rows[2, 6:10] = (bad, 0.0, 0.0, 0.0)
        policy = self._policy_sampling(monkeypatch, rows)
        with pytest.raises(NonFiniteChunkError, match="cannot be normalised .trial seed 3."):
            policy(OBS, 0.0)

    def test_saved_and_reloaded_checkpoint_samples_same_chunk_bytes(self, tmp_path):
        rng = np.random.default_rng(32)
        model = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=COND_DIM)
        model.init_params(rng)
        model.ema = {n: v + rng.normal(0.0, 0.05, size=v.shape) for n, v in model.params.items()}
        sched = cosine_schedule()
        save_checkpoint(tmp_path / "m.json", model, sched)
        want = cli.DiffusionReplayPolicy(model, sched, seed=7)
        got = cli.DiffusionReplayPolicy(*load_checkpoint(tmp_path / "m.json"), seed=7)
        for call in range(2):
            obs = (0.2 * call, 0.1, 0.3, 0.3, 0.0, -0.2, 1.0, 0.0, 0.0, 0.0, 0.4)
            chunks = got(obs, 0.1 * call), want(obs, 0.1 * call)
            assert np.array(chunks[0].rows).tobytes() == np.array(chunks[1].rows).tobytes()


class TestReportCommand:
    def test_single_condition_table(self, tmp_path):
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate", "--trials", "2", "--seed", "1",
                    "--output", str(out),
                ]
            )
            == EXIT_OK
        )
        rep = tmp_path / "rep"
        assert main(["report", "--metrics", str(out / "metrics.csv"), "--output", str(rep)]) == EXIT_OK
        md = (rep / "report.md").read_text()
        assert "match_on_label_relative" in md
        assert (rep / "i_star_hist.svg").exists()
        assert (rep / "event_counts.svg").exists()

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--trials", "2", "--seed", "1", "--output", str(out)])
        hashes = []
        for name in ("r1", "r2"):
            rep = tmp_path / name
            main(["report", "--metrics", str(out / "metrics.csv"), "--output", str(rep)])
            hashes.append(
                (file_sha256(rep / "report.md"), file_sha256(rep / "i_star_hist.svg"))
            )
        assert hashes[0] == hashes[1]

    def test_empty_metrics_rejected(self, tmp_path):
        empty = tmp_path / "m.csv"
        empty.write_text(
            "condition,scenario,trial,success,completion_time_s,rollbacks,jitter,"
            "i_star_mean,i_star_std,tracking_rms_m,stages_done,reason\n"
        )
        rc = main(["report", "--metrics", str(empty), "--output", str(tmp_path / "rep")])
        assert rc == EXIT_REJECTED


def _replay_case(**config):
    """A FIELD_CASES entry: replay of a simulate manifest whose default config
    has config's entries replaced."""
    args = cli.build_parser().parse_args(["simulate", "--output", "unused"])
    recorded = {**cli._args_to_config(args), **config}
    text = json.dumps({"command": "simulate", "config": recorded, "seed": 0})
    return "replay", "manifest.json", lambda _: text


def _manifest_case(**fields):
    """A FIELD_CASES entry: replay of a one-trial simulate manifest, with no
    outputs unless fields sets them, whose fields are replaced by fields'
    values. A manifest that load passes reruns."""
    args = cli.build_parser().parse_args(["simulate", "--trials", "1", "--output", "sim"])
    doc = {"command": "simulate", "config": cli._args_to_config(args), "seed": 0, **fields}
    return "replay", "manifest.json", lambda _: json.dumps(doc)


def _corrupt_line(path, line_number):
    """Replace one line of a text file with a truncated JSON record."""
    lines = path.read_text().splitlines()
    lines[line_number - 1] = '{"t": 0.1, '
    path.write_text("\n".join(lines) + "\n")


def _eighth_pose_value(text):
    """trajectories.jsonl text whose fourth record's pose holds an 8th value."""
    lines = text.splitlines()
    rec = json.loads(lines[3])
    lines[3] = json.dumps({**rec, "pose": [*rec["pose"], 0.0]})
    return "\n".join(lines) + "\n"


def _edit_record(edit, middle=False):
    """A FIELD_CASES rewrite of a JSONL file: its first record, or its middle
    one, replaced by edit(record)."""

    def rewrite(text):
        lines = text.splitlines()
        i = len(lines) // 2 if middle else 0
        lines[i] = json.dumps(edit(json.loads(lines[i])))
        return "\n".join(lines) + "\n"

    return rewrite


def _pose_quaternion(q):
    """The record with the quaternion of its pose replaced by q(old quaternion)."""
    return lambda rec: {**rec, "pose": [*rec["pose"][:3], *q(rec["pose"][3:])]}


# one simulate metrics row, as cmd_simulate writes it
METRICS_CSV = (
    "condition,scenario,trial,success,completion_time_s,rollbacks,jitter,"
    "i_star_mean,i_star_std,tracking_rms_m,stages_done,reason\n"
    "match_on_label_relative,nav_reach,0,1,9.9,0,0,1.2308,0.6966,0.02631,3,\n"
)


def _edit_metric(field, value):
    """A FIELD_CASES rewrite of a metrics CSV: field of its first row set to value."""

    def rewrite(text):
        header, row, *rest = text.splitlines()
        cells = row.split(",")
        cells[header.split(",").index(field)] = value
        return "\n".join([header, ",".join(cells), *rest]) + "\n"

    return rewrite


# the values that the sweep puts in each numeric leaf: not finite, or not a number
BAD_NUMBERS = {
    "nan": math.nan,
    "inf": math.inf,
    "minus_inf": -math.inf,
    "str": "1",
    "true": True,
    "null": None,
    "list": [1.0],
}

# (command, input file, field, index or None) of numeric leaves that each
# command reads, at least one per field
NUMERIC_LEAVES = [
    *[
        (command, "trajectories.jsonl", field, index)
        for command in ("anchor", "process")
        for field, index in (("t", None), ("pose", 0), ("pose", 3), ("cov_trace", None))
    ],
    ("anchor", "detections.jsonl", "t", None),
    ("anchor", "detections.jsonl", "tag_pose", 0),
    ("anchor", "detections.jsonl", "tag_pose", 4),
    ("anchor", "extrinsics.json", "chest", 1),
    ("anchor", "extrinsics.json", "hand", 5),
    ("process", "anchors.json", "cross_node", 2),
    ("process", "anchors.json", "cross_node", 6),
    ("process", "calib.json", "d_closed", None),
    ("process", "calib.json", "d_open", None),
    ("process", "markers.jsonl", "t", None),
    ("process", "markers.jsonl", "distance_m", None),
    ("train-toy", "dataset.jsonl", "t", None),
    ("train-toy", "dataset.jsonl", "grip", None),
    ("train-toy", "dataset.jsonl", "base", 2),
    ("train-toy", "dataset.jsonl", "hand_rel", 1),
    ("train-toy", "dataset.jsonl", "hand_rel", 5),
]


def _set_leaf(name, field, index, value):
    """A FIELD_CASES rewrite that sets field, or its item at index, to value:
    in the middle record of a JSONL file, or in the document of a JSON file."""

    def edit(rec):
        if index is None:
            return {**rec, field: value}
        return {**rec, field: [*rec[field][:index], value, *rec[field][index + 1 :]]}

    if name.endswith(".jsonl"):
        return _edit_record(edit, middle=True)
    return lambda text: json.dumps(edit(json.loads(text)))


class TestMalformedInput:
    """Malformed JSON/JSONL input is a usage error naming the file and line."""

    def _anchor(self, raw_session, anchored, processed, tmp_path):
        raw, _ = raw_session
        traj = tmp_path / "trajectories.jsonl"
        traj.write_text((raw / "trajectories.jsonl").read_text())
        _corrupt_line(traj, 3)
        argv = [
            "anchor",
            "--trajectories", str(traj),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(tmp_path / "a.json"),
        ]
        return argv, traj, 3

    def _train_toy(self, raw_session, anchored, processed, tmp_path):
        ds = tmp_path / "dataset.jsonl"
        ds.write_text((processed / "dataset.jsonl").read_text())
        _corrupt_line(ds, 5)
        return ["train-toy", "--dataset", str(ds), "--output", str(tmp_path / "m")], ds, 5

    def _replay(self, raw_session, anchored, processed, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "1", "--output", str(out)]) == EXIT_OK
        man = out / "manifest.json"
        text = man.read_text()
        man.write_text(text[: len(text) // 2])
        line = text[: len(text) // 2].count("\n") + 1
        return ["replay", "--manifest", str(man)], man, line

    def _simulate(self, raw_session, anchored, processed, tmp_path):
        ckpt = tmp_path / "model.json"
        ckpt.write_text('{"version": 1,\n"K": ')
        argv = ["simulate", "--policy", str(ckpt), "--trials", "1", "--output", str(tmp_path / "s")]
        return argv, ckpt, 2

    @pytest.mark.parametrize("command", ["anchor", "train_toy", "replay", "simulate"])
    def test_usage_error_with_path_and_line(
        self, command, raw_session, anchored, processed, tmp_path, capsys
    ):
        argv, path, line = getattr(self, f"_{command}")(
            raw_session, anchored, processed, tmp_path
        )
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: {path}:{line}: ")


    def _replay_schema(self, tmp_path):
        man = tmp_path / "manifest.json"
        man.write_text("{}\n")
        return ["replay", "--manifest", str(man)], man

    def _train_toy_schema(self, tmp_path):
        ds = tmp_path / "dataset.jsonl"
        ds.write_text('{"t": 0.0}\n')
        return ["train-toy", "--dataset", str(ds), "--output", str(tmp_path / "m")], ds

    def _report_schema(self, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        csv_path.write_text(
            "condition,scenario,trial,completion_time_s,rollbacks,jitter,i_star_mean\n"
            "c,nav_reach,0,1.0,0,0,0.0\n"
        )
        return ["report", "--metrics", str(csv_path), "--output", str(tmp_path / "r")], csv_path

    def _simulate_schema(self, tmp_path):
        ckpt = tmp_path / "model.json"
        ckpt.write_text('{"version": 7}\n')
        argv = ["simulate", "--policy", str(ckpt), "--trials", "1", "--output", str(tmp_path / "s")]
        return argv, ckpt

    @pytest.mark.parametrize("command", ["replay", "train_toy", "report", "simulate"])
    def test_schema_violation_is_usage_error_with_path(self, command, tmp_path, capsys):
        # well-formed JSON/CSV that lacks a field or holds another version
        argv, path = getattr(self, f"_{command}_schema")(tmp_path)
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: {path}: ")

    # a JSON array nested deeper than json's recursion limit
    DEEP = "[" * 100000 + "]" * 100000 + "\n"

    @pytest.mark.parametrize("name, line", [("trajectories.jsonl", 1), ("extrinsics.json", None)])
    def test_anchor_input_nested_too_deep_is_usage_error(self, name, line, raw_session, tmp_path, capsys):
        raw, _ = raw_session
        inputs = {n: raw / n for n in ("trajectories.jsonl", "detections.jsonl", "extrinsics.json")}
        inputs[name] = tmp_path / name
        inputs[name].write_text(self.DEEP if line is None else self.DEEP + (raw / name).read_text())
        argv = [
            "anchor",
            "--trajectories", str(inputs["trajectories.jsonl"]),
            "--detections", str(inputs["detections.jsonl"]),
            "--extrinsics", str(inputs["extrinsics.json"]),
            "--output", str(tmp_path / "a.json"),
        ]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        where = inputs[name] if line is None else f"{inputs[name]}:{line}"
        assert capsys.readouterr().err.strip().splitlines() == [
            f"usage error: {where}: maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        ]

    def test_replay_manifest_nested_too_deep_is_usage_error(self, tmp_path, capsys):
        man = tmp_path / "manifest.json"
        man.write_text(self.DEEP)
        assert main(["replay", "--manifest", str(man)]) == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == [
            f"usage error: {man}: maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        ]

    # case -> (command, input file, its new text as a function of the old)
    FIELD_CASES = {
        "anchor_node_missing": ("anchor", "trajectories.jsonl", lambda _: '{"t": 0.0}\n'),
        "anchor_repeated_t": (
            "anchor", "trajectories.jsonl", lambda text: text + text.splitlines()[-1] + "\n"
        ),
        "anchor_pose_6_values": (
            "anchor",
            "trajectories.jsonl",
            lambda text: "".join(
                json.dumps({**rec, "pose": rec["pose"][:6]}) + "\n"
                for rec in map(json.loads, text.splitlines())
            ),
        ),
        "anchor_pose_8_values": ("anchor", "trajectories.jsonl", _eighth_pose_value),
        "process_pose_8_values": ("process", "trajectories.jsonl", _eighth_pose_value),
        "anchor_extrinsic_6_values": (
            "anchor",
            "extrinsics.json",
            lambda text: json.dumps({k: v[:6] for k, v in json.loads(text).items()}),
        ),
        "anchor_tag_position_nan": (
            "anchor",
            "detections.jsonl",
            lambda text: "".join(
                json.dumps({**rec, "tag_pose": [math.nan, *rec["tag_pose"][1:]]} if i == 0 else rec)
                + "\n"
                for i, rec in enumerate(map(json.loads, text.splitlines()))
            ),
        ),
        **{
            f"anchor_detection_t_{name}": (
                "anchor", "detections.jsonl", _edit_record(lambda rec, v=v: {**rec, "t": v})
            )
            for name, v in (("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf))
        },
        # a pose with a value too few or too many
        "anchor_tag_pose_6_values": (
            "anchor",
            "detections.jsonl",
            _edit_record(lambda rec: {**rec, "tag_pose": rec["tag_pose"][:6]}, middle=True),
        ),
        "train-toy_dataset_base_2_values": (
            "train-toy", "dataset.jsonl", _edit_record(lambda rec: {**rec, "base": rec["base"][:2]})
        ),
        "train-toy_dataset_hand_rel_8_values": (
            "train-toy",
            "dataset.jsonl",
            _edit_record(lambda rec: {**rec, "hand_rel": [*rec["hand_rel"], 0.0]}, middle=True),
        ),
        "anchor_detection_node_int": (
            "anchor", "detections.jsonl", _edit_record(lambda rec: {**rec, "node": 5})
        ),
        **{
            f"{command}_trajectory_node_int": (
                command, "trajectories.jsonl", _edit_record(lambda rec: {**rec, "node": 5}, middle=True)
            )
            for command in ("anchor", "process")
        },
        **{
            f"{command}_quaternion_{name}": (
                command, "trajectories.jsonl", _edit_record(_pose_quaternion(q), middle=True)
            )
            for command in ("anchor", "process")
            for name, q in (
                ("1e308", lambda q: [1e308, *q[1:]]),
                ("zero", lambda q: [0.0, 0.0, 0.0, 0.0]),
            )
        },
        # strings and booleans where a number belongs, which float() would take
        **{
            f"{command}_trajectory_{name}": (
                command, "trajectories.jsonl", _edit_record(edit, middle=True)
            )
            for command in ("anchor", "process")
            for name, edit in (
                ("t_str", lambda rec: {**rec, "t": str(rec["t"])}),
                ("pose_true", lambda rec: {**rec, "pose": [True, *rec["pose"][1:]]}),
                ("cov_trace_str", lambda rec: {**rec, "cov_trace": str(rec["cov_trace"])}),
            )
        },
        "anchor_detection_t_str": (
            "anchor", "detections.jsonl", _edit_record(lambda rec: {**rec, "t": str(rec["t"])})
        ),
        "anchor_tag_pose_false": (
            "anchor",
            "detections.jsonl",
            _edit_record(lambda rec: {**rec, "tag_pose": [False, *rec["tag_pose"][1:]]}),
        ),
        "anchor_extrinsic_str": (
            "anchor",
            "extrinsics.json",
            lambda text: json.dumps({k: [str(v[0]), *v[1:]] for k, v in json.loads(text).items()}),
        ),
        "process_cross_node_str": (
            "process",
            "anchors.json",
            lambda text: json.dumps(
                {**json.loads(text), "cross_node": ["0", *json.loads(text)["cross_node"][1:]]}
            ),
        ),
        "process_calib_open_str": (
            "process", "calib.json", lambda _: json.dumps({"d_closed": 0.01, "d_open": "0.09"})
        ),
        "process_marker_distance_str": (
            "process",
            "markers.jsonl",
            _edit_record(lambda rec: {**rec, "distance_m": str(rec["distance_m"])}, middle=True),
        ),
        "process_marker_t_str": (
            "process", "markers.jsonl", _edit_record(lambda rec: {**rec, "t": str(rec["t"])}, middle=True)
        ),
        # an integer too large for a float
        "process_marker_distance_401_digits": (
            "process", "markers.jsonl", _edit_record(lambda rec: {**rec, "distance_m": 10**400})
        ),
        "process_cross_node_missing": ("process", "anchors.json", lambda _: "{}"),
        "process_cross_node_position_nan": (
            "process",
            "anchors.json",
            lambda text: json.dumps(
                {**json.loads(text), "cross_node": [math.nan, *json.loads(text)["cross_node"][1:]]}
            ),
        ),
        "process_cross_node_5_values": (
            "process", "anchors.json", lambda _: json.dumps({"cross_node": [0, 0, 0, 1, 0]})
        ),
        "process_calib_empty": ("process", "calib.json", lambda _: "{}"),
        "process_calib_open_below_closed": (
            "process", "calib.json", lambda _: json.dumps({"d_closed": 0.09, "d_open": 0.01})
        ),
        "process_calib_closed_minus_inf": (
            "process", "calib.json", lambda _: json.dumps({"d_closed": -math.inf, "d_open": 0.09})
        ),
        "process_calib_open_inf": (
            "process", "calib.json", lambda _: json.dumps({"d_closed": 0.01, "d_open": math.inf})
        ),
        "process_marker_distance_missing": ("process", "markers.jsonl", lambda _: '{"t": 0.0}\n'),
        # every manifest field of the wrong type, and versions other than the current one
        **{
            f"replay_{case}": _manifest_case(**{field: value})
            for case, field, value in (
                ("config_empty", "config", {}),
                ("config_list", "config", []),
                ("command_list", "command", ["simulate"]),
                ("seed_float", "seed", 1.5),
                ("seed_bool", "seed", True),
                ("seed_str", "seed", "0"),
                ("inputs_str", "inputs", "abc"),
                ("inputs_list", "inputs", []),
                ("inputs_hash_int", "inputs", {"policy": {"model.json": 7}}),
                ("outputs_list", "outputs", []),
                ("outputs_hash_null", "outputs", {"sim/metrics.csv": None}),
                ("version_older", "version", "0.0.9"),
                ("version_empty", "version", ""),
                ("version_list", "version", ["not", "a", "version"]),
                ("version_number", "version", 0.1),
                ("version_null", "version", None),
            )
        },
        "replay_trials_str": _replay_case(trials="x"),
        "replay_trials_float": _replay_case(trials=2.5),
        "replay_matching_str": _replay_case(matching="on"),
        "replay_kinematic_int": _replay_case(kinematic=1),
        "replay_label_unknown": _replay_case(label="both"),
        "replay_latency_str": _replay_case(latency_ms="0"),
        **{
            f"report_{field}_{name}": ("report", "metrics.csv", _edit_metric(field, value))
            for field, name, value in (
                ("completion_time_s", "nan", "nan"),
                ("completion_time_s", "1e400", "1e400"),
                ("i_star_mean", "nan", "nan"),
                ("i_star_mean", "inf", "inf"),
                ("success", "7", "7"),
                ("rollbacks", "minus_3", "-3"),
                ("jitter", "minus_1", "-1"),
            )
        },
        # every bad value in each of NUMERIC_LEAVES
        **{
            f"{command}_{name.split('.')[0]}_{field}{'' if i is None else i}_{vname}": (
                command, name, _set_leaf(name, field, i, value)
            )
            for command, name, field, i in NUMERIC_LEAVES
            for vname, value in BAD_NUMBERS.items()
        },
    }

    @pytest.mark.parametrize("case", list(FIELD_CASES))
    def test_bad_field_is_usage_error_with_path(
        self, case, raw_session, anchored, processed, tmp_path, capsys, monkeypatch
    ):
        # well-formed JSON/JSONL whose fields are missing, misshapen or inconsistent
        monkeypatch.chdir(tmp_path)  # a replay that wrongly runs writes its relative output here
        command, name, rewrite = self.FIELD_CASES[case]
        raw, _ = raw_session
        d = tmp_path / "in"
        shutil.copytree(raw, d)
        shutil.copy(anchored, d / "anchors.json")
        shutil.copy(processed / "dataset.jsonl", d / "dataset.jsonl")
        (d / "calib.json").write_text(json.dumps({"d_closed": 0.01, "d_open": 0.09}))
        (d / "manifest.json").write_text("")
        (d / "metrics.csv").write_text(METRICS_CSV)
        path = d / name
        path.write_text(rewrite(path.read_text()))
        argv = {
            "anchor": [
                "anchor",
                "--trajectories", str(d / "trajectories.jsonl"),
                "--detections", str(d / "detections.jsonl"),
                "--extrinsics", str(d / "extrinsics.json"),
                "--output", str(tmp_path / "a.json"),
            ],
            "process": [
                "process",
                "--raw", str(d),
                "--anchor", str(d / "anchors.json"),
                "--calib", str(d / "calib.json"),
                "--output", str(tmp_path / "p"),
            ],
            "train-toy": [
                "train-toy", "--dataset", str(path), "--steps", "1", "--output", str(tmp_path / "m"),
            ],
            "replay": ["replay", "--manifest", str(path)],
            "report": ["report", "--metrics", str(path), "--output", str(tmp_path / "r")],
        }[command]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: {path}: ")


    @pytest.mark.parametrize(
        "field, value",
        [("t", "0.3"), ("grip", True), ("base", [0.0, "0.0", 0.0]), ("hand_rel", [False] * 7)],
    )
    def test_non_numeric_dataset_field_is_usage_error(
        self, field, value, processed, tmp_path, capsys
    ):
        lines = (processed / "dataset.jsonl").read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), field: value})
        ds = tmp_path / "dataset.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m"
        capsys.readouterr()
        argv = ["train-toy", "--dataset", str(ds), "--steps", "5", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: {ds}: non-numeric ")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["t", "grip"])
    def test_non_finite_dataset_field_is_usage_error(self, field, processed, tmp_path, capsys):
        lines = (processed / "dataset.jsonl").read_text().splitlines()
        rec = json.loads(lines[3])
        rec[field] = math.nan
        lines[3] = json.dumps(rec)
        ds = tmp_path / "dataset.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m"
        capsys.readouterr()
        argv = ["train-toy", "--dataset", str(ds), "--steps", "5", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: {ds}: non-finite dataset {field} value nan"]
        assert not out.exists()

    @pytest.mark.parametrize("grip", [1.5, -0.25, 1e300])
    def test_grip_outside_unit_interval_is_usage_error(self, grip, processed, tmp_path, capsys):
        # process clamps grip to [0, 1]; a dataset outside it was written elsewhere
        lines = (processed / "dataset.jsonl").read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "grip": grip})
        ds = tmp_path / "dataset.jsonl"
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m"
        capsys.readouterr()
        argv = ["train-toy", "--dataset", str(ds), "--steps", "3", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: {ds}: dataset grip value {grip!r} is outside [0, 1]"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, index, value, what",
        [
            ("base", 0, 1e50, "base[0] value 1e+50 is outside the workspace [-100, 100] m"),
            ("base", 1, -150.0, "base[1] value -150.0 is outside the workspace [-100, 100] m"),
            ("base", 2, 1e40, "base[2] value 1e+40 is outside [-pi, pi]"),
            ("base", 2, -3.2, "base[2] value -3.2 is outside [-pi, pi]"),
            ("hand_rel", 0, 1e30, "hand_rel distance from the chest 1e+30 is outside [0, 2] m"),
            ("hand_rel", 2, -2.5, "hand_rel distance from the chest"),
        ],
    )
    def test_dataset_column_outside_its_domain_is_usage_error(
        self, field, index, value, what, processed, tmp_path, capsys
    ):
        # every line, as a dataset shifted or scaled outside what process
        # writes; training on it used to exit 0 with a loss of 1e90
        recs = [json.loads(line) for line in (processed / "dataset.jsonl").read_text().splitlines()]
        for rec in recs:
            rec[field][index] = value
        ds = tmp_path / "dataset.jsonl"
        ds.write_text("\n".join(json.dumps(rec) for rec in recs) + "\n")
        out = tmp_path / "m"
        capsys.readouterr()
        argv = ["train-toy", "--dataset", str(ds), "--steps", "20", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: {ds}: dataset {what}")
        assert not out.exists()

    @pytest.mark.parametrize("x", [1e300, 1e200, 1e155, 1e100])
    def test_overflowing_adam_moment_is_rejected(self, x, processed, tmp_path, capsys, monkeypatch):
        # the loss stays finite, but Adam's second moment overflows and its
        # weights stop moving: the run must not write a checkpoint, and its
        # verdict is the only thing it reports (no numpy RuntimeWarning).
        # load_dataset refuses such bases (the test above), so they are set
        # after loading, as a loader without the workspace bound read them
        load = cli.load_dataset

        def far_bases(path):
            dataset = load(path)
            states = dataset.states.copy()
            states[:, 0] = x
            return DemoDataset(dataset.t, states)

        monkeypatch.setattr(cli, "load_dataset", far_bases)
        ds = processed / "dataset.jsonl"
        out = tmp_path / "m"
        capsys.readouterr()
        argv = ["train-toy", "--dataset", str(ds), "--steps", "20", "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_REJECTED
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["rejected: training diverged: Adam's second moment overflowed by step 19"]
        assert not out.exists()


class TestParserReuse:
    """cli.main builds its parser once per process; every call still parses
    its own arguments, whatever an earlier call passed or got wrong."""

    def test_calls_do_not_share_flags(self, raw_session, anchored, processed, tmp_path):
        raw, _ = raw_session

        def process(out, *flags):
            argv = ["process", "--raw", str(raw), "--anchor", str(anchored), "--output", str(out)]
            return main([*argv, *flags])

        assert process(tmp_path / "off", "--no-smoothing") == EXIT_OK
        assert process(tmp_path / "bad", "--no-smoothing", "--smoothing") == EXIT_USAGE
        assert process(tmp_path / "on") == EXIT_OK
        assert read_json(tmp_path / "off" / "manifest.json")["config"]["smoothing"] is False
        assert read_json(tmp_path / "on" / "manifest.json")["config"]["smoothing"] is True
        assert not (tmp_path / "bad").exists()
        dataset = (processed / "dataset.jsonl").read_bytes()
        assert (tmp_path / "on" / "dataset.jsonl").read_bytes() == dataset
        assert (tmp_path / "off" / "dataset.jsonl").read_bytes() != dataset
        assert cli.build_parser() is cli.build_parser()


def _leaf_edit(keys, vname):
    """A TestBadCheckpoint edit that sets the checkpoint's leaf at keys to BAD_NUMBERS[vname]."""

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = BAD_NUMBERS[vname]

    edit.__name__ = "_" + "_".join(map(str, keys)) + f"_{vname}"
    return edit


def _deleted(key):
    """A TestBadCheckpoint edit that deletes the checkpoint's top-level key."""

    def edit(doc):
        del doc[key]

    edit.__name__ = f"_{key}_missing"
    return edit


def _weights(doc, name):
    """The unedited checkpoint doc's weight array `name`, shaped as its dims say."""
    shape = ToyDenoiser(**{n: doc[n] for n in CHECKPOINT_DIMS}).param_shapes()[name]
    return finite_float64(doc["ema"][name], shape, name)


def _set_weight(doc, name, index, value):
    """Set the checkpoint doc's weight array `name` at index to value."""
    w = _weights(doc, name)
    w[index] = value
    doc["ema"][name] = float64_text(w)


class TestBadCheckpoint:
    """A checkpoint whose weights or schedule are bad is a usage error naming it."""

    @pytest.fixture
    def checkpoint_doc(self, tmp_path):
        model = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=22, hidden=8, kemb_dim=8, temb_dim=8)
        model.init_params(np.random.default_rng(0))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, cosine_schedule())
        return path, read_json(path)

    def _ema_w2_nan(doc):
        _set_weight(doc, "W2", (0, 0), math.nan)

    def _ema_w2_1x3(doc):
        doc["ema"]["W2"] = float64_text(np.zeros(3))

    def _ema_b1_inf(doc):
        _set_weight(doc, "b1", 2, math.inf)

    def _ema_w2_minus_inf(doc):
        _set_weight(doc, "W2", (0, 0), -math.inf)

    def _ema_b1_minus_inf(doc):
        _set_weight(doc, "b1", 2, -math.inf)

    def _ema_wf_ragged(doc):
        # a byte count that is not a multiple of 8
        doc["ema"]["Wf"] = base64.b64encode(base64.b64decode(doc["ema"]["Wf"])[:-3]).decode()

    def _ema_w1_v2_list(doc):
        # the weights as version 2 held them, a list of rows of numbers
        doc["ema"]["W1"] = _weights(doc, "W1").tolist()

    def _ema_bf_true(doc):
        doc["ema"]["bf"] = True

    def _ema_w2_not_base64(doc):
        doc["ema"]["W2"] = "*" + doc["ema"]["W2"][1:]

    def _alpha_bar_str(doc):
        doc["alpha_bar"][5] = str(doc["alpha_bar"][5])

    def _alpha_bar_true(doc):
        doc["alpha_bar"][0] = True

    def _version_float(doc):
        doc["version"] = 2.0

    def _version_1(doc):
        # the format before version 2: the training weights and a meta block beside the EMA
        doc.update(version=1, params=doc["ema"], meta={"seed": 0, "steps": 1})

    def _version_2(doc):
        # the format before version 3: each weight array as lists of decimal numbers
        doc.update(version=2, ema={n: _weights(doc, n).tolist() for n in doc["ema"]})

    def _ema_bk2_missing(doc):
        del doc["ema"]["bk2"]

    def _hidden_float(doc):
        doc["hidden"] = 8.0

    def _alpha_bar_short(doc):
        doc["alpha_bar"] = doc["alpha_bar"][:-1]

    def _alpha_bar_nan(doc):
        doc["alpha_bar"][5] = math.nan

    def _alpha_bar_rising(doc):
        ab = doc["alpha_bar"]
        ab[50], ab[51] = ab[51], ab[50]

    def _k_str(doc):
        doc["K"] = "100"

    CASES = [
        _ema_w2_nan,
        _ema_w2_1x3,
        _ema_b1_inf,
        _ema_w2_minus_inf,
        _ema_b1_minus_inf,
        _ema_wf_ragged,
        _ema_bk2_missing,
        _ema_w1_v2_list,
        _ema_bf_true,
        _ema_w2_not_base64,
        _hidden_float,
        _alpha_bar_short,
        _alpha_bar_nan,
        _alpha_bar_rising,
        _alpha_bar_str,
        _alpha_bar_true,
        _k_str,
        _version_float,
        _version_1,
        _version_2,
        # the sweep's bad values that the cases above leave out, as a weight
        # array, a bias array and a schedule entry
        *[
            _leaf_edit(keys, vname)
            for keys, vnames in (
                (("ema", "W2"), ("str", "true", "null", "list")),
                (("ema", "b1"), ("null", "list")),
                (("alpha_bar", 5), ("inf", "minus_inf", "null", "list")),
            )
            for vname in vnames
        ],
        # every top-level key that the loader reads, deleted
        *[_deleted(key) for key in ("version", *CHECKPOINT_DIMS, "K", "alpha_bar", "ema")],
    ]

    def test_unedited_checkpoint_runs(self, checkpoint_doc, tmp_path):
        path, _ = checkpoint_doc
        argv = ["simulate", "--policy", str(path), "--trials", "1", "--output", str(tmp_path / "s")]
        assert main(argv) == EXIT_OK

    @staticmethod
    def _assert_usage_error(path, tmp_path, capsys):
        out = tmp_path / "s"
        capsys.readouterr()
        argv = ["simulate", "--policy", str(path), "--trials", "1", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"usage error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("edit", CASES, ids=[f.__name__[1:] for f in CASES])
    def test_usage_error_names_checkpoint(self, edit, checkpoint_doc, tmp_path, capsys):
        path, doc = checkpoint_doc
        edit(doc)
        path.write_text(json.dumps(doc))
        self._assert_usage_error(path, tmp_path, capsys)

    @pytest.mark.parametrize(
        "input_dim, cond_dim, K",
        [(ACTION_DIM, 22, 5), (3, 22, 100), (ACTION_DIM, 5, 100)],
        ids=["schedule_K_5", "input_dim_3", "cond_dim_5"],
    )
    def test_well_formed_but_unusable(self, input_dim, cond_dim, K, tmp_path, capsys):
        # the file is a valid checkpoint, but the CLI's row sampler cannot run it
        model = ToyDenoiser(input_dim, cond_dim, hidden=8, kemb_dim=8, temb_dim=8)
        model.init_params(np.random.default_rng(0))
        path = tmp_path / "model.json"
        save_checkpoint(path, model, cosine_schedule(K))
        self._assert_usage_error(path, tmp_path, capsys)


class TestBadFlags:
    """Out-of-range numeric flags are one-line usage errors that write nothing."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--seed", "-1"),
            ("train-toy", "--seed", "-1"),
            ("train-toy", "--steps", "0"),
            ("anchor", "--cov-threshold", "nan"),
        ],
    )
    def test_usage_error(self, command, flag, value, raw_session, processed, tmp_path, capsys):
        raw, _ = raw_session
        inputs = {
            "simulate": ["--trials", "1"],
            "train-toy": ["--dataset", str(processed / "dataset.jsonl")],
            "anchor": [
                "--trajectories", str(raw / "trajectories.jsonl"),
                "--detections", str(raw / "detections.jsonl"),
                "--extrinsics", str(raw / "extrinsics.json"),
            ],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *inputs, flag, value, "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"usage error: {flag} ")
        assert not out.exists()


def _path_flags() -> list[tuple[str, str, str]]:
    """(command, flag, metavar) of every flag that build_parser marks as a
    file (FILE) or directory (DIR) path; the flag named --output is written,
    the others are read."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, a.option_strings[0], a.metavar)
        for command in sub.choices
        for a in cli._flag_actions(command)
        if a.metavar in ("FILE", "DIR")
    ]


class TestPathKinds:
    """A path flag given a path of the wrong kind is a one-line usage error
    naming that path: a directory for a file, a file for a directory, and an
    output under a file."""

    @pytest.fixture
    def argvs(self, raw_session, anchored, processed, tmp_path):
        raw, _ = raw_session
        calib = tmp_path / "calib.json"
        calib.write_text(json.dumps({"d_closed": 0.01, "d_open": 0.09}))
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(METRICS_CSV)
        out = tmp_path / "out"
        return {
            "anchor": [
                "anchor",
                "--trajectories", str(raw / "trajectories.jsonl"),
                "--detections", str(raw / "detections.jsonl"),
                "--extrinsics", str(raw / "extrinsics.json"),
                "--output", str(out / "a.json"),
            ],
            "process": [
                "process", "--raw", str(raw), "--anchor", str(anchored), "--calib", str(calib),
                "--output", str(out),
            ],
            "train-toy": [
                "train-toy", "--dataset", str(processed / "dataset.jsonl"), "--steps", "1",
                "--output", str(out),
            ],
            "simulate": ["simulate", "--trials", "1", "--output", str(out)],
            "report": ["report", "--metrics", str(metrics), "--output", str(out)],
            "replay": ["replay", "--manifest", str(tmp_path / "manifest.json")],
        }

    def test_every_writing_command_has_a_path_output(self):
        written = {command for command, flag, _ in _path_flags() if flag == "--output"}
        assert written == set(cli._COMMANDS)

    @pytest.mark.parametrize(
        "command, kind", [(command, kind) for command, flag, kind in _path_flags() if flag == "--output"]
    )
    def test_manifest_path_that_is_a_directory(self, command, kind, argvs, capsys):
        # main saves the manifest inside a directory output, and beside a file output
        argv = argvs[command]
        out = Path(argv[argv.index("--output") + 1])
        manifest = out / "manifest.json" if kind == "DIR" else out.with_suffix(".manifest.json")
        manifest.mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and str(manifest) in err[0]
        # the check comes before any work, so no output is written
        if kind == "DIR":
            assert list(out.iterdir()) == [manifest]
        else:
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, name",
        [
            ("process", "dataset.jsonl"),
            ("train-toy", "curve.csv"),
            ("simulate", "aggregate.json"),
            ("report", "event_counts.svg"),
        ],
    )
    def test_output_file_that_is_a_directory(self, command, name, argvs, capsys):
        # a file that the command writes into its output directory
        argv = argvs[command]
        out = Path(argv[argv.index("--output") + 1])
        blocked = out / name
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and str(blocked) in err[0]
        # the check comes before any work, so no output is written
        assert list(out.iterdir()) == [blocked]

    @pytest.mark.parametrize("command, flag, kind", _path_flags())
    def test_wrong_kind_is_usage_error(self, command, flag, kind, argvs, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("x\n")
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        wrong = a_dir if kind == "FILE" else a_file
        for path in [wrong, a_file / "sub"] if flag == "--output" else [wrong]:
            argv = list(argvs[command])
            if flag in argv:
                argv[argv.index(flag) + 1] = str(path)
            else:
                argv += [flag, str(path)]
            capsys.readouterr()
            assert main(argv) == EXIT_USAGE, argv
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("usage error: ") and str(path) in err[0]


    @pytest.mark.parametrize(
        "command, flag", [case[:2] for case in _path_flags() if case[1] != "--output"]
    )
    def test_missing_input_names_flag(self, command, flag, argvs, tmp_path, capsys):
        missing = tmp_path / "missing" / "x"
        argv = list(argvs[command])
        if flag not in argv:
            argv += [flag, ""]
        i = argv.index(flag) + 1
        # of two --metrics files, the second is missing
        argv[i : i + 1] = [argv[i], str(missing)] if flag == "--metrics" else [str(missing)]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: {flag} not found: {missing}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag", [case[:2] for case in _path_flags() if case[1] not in ("--output", "--calib")]
    )
    def test_empty_input_is_usage_error(self, command, flag, argvs, tmp_path, capsys):
        # an empty path names the working directory, which no input flag takes
        argv = list(argvs[command])
        if flag not in argv:
            argv += [flag, ""]
        argv[argv.index(flag) + 1] = ""
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not (tmp_path / "out").exists()

    def test_empty_calib_uses_default(self, argvs, processed, tmp_path):
        # an empty --calib reads as no calibration file, and records no input
        argv = list(argvs["process"])
        argv[argv.index("--calib") + 1] = ""
        assert main(argv) == EXIT_OK
        out = tmp_path / "out"
        assert sorted(read_json(out / "manifest.json")["inputs"]) == ["anchor", "raw"]
        assert (out / "dataset.jsonl").read_bytes() == (processed / "dataset.jsonl").read_bytes()


class TestManifestRecords:
    """Each command's manifest records its inputs under their flags' names,
    its outputs in the order it writes them, and its seed."""

    def test_labels_outputs_and_seed(
        self, raw_session, anchored, processed, tmp_path, monkeypatch, capsys
    ):
        raw, _ = raw_session
        calib = tmp_path / "calib.json"
        calib.write_text(json.dumps({"d_closed": 0.01, "d_open": 0.09}))
        a, p, pc, m, r = (tmp_path / name for name in ("a.json", "p", "pc", "m", "r"))
        sims = [tmp_path / name for name in ("replay", "cruise", "ckpt")]
        process = ["process", "--raw", str(raw), "--anchor", str(anchored)]
        # (argv, manifest path, input labels, output paths in order, seed)
        cases = [
            (
                [
                    "anchor",
                    "--trajectories", str(raw / "trajectories.jsonl"),
                    "--detections", str(raw / "detections.jsonl"),
                    "--extrinsics", str(raw / "extrinsics.json"),
                    "--output", str(a),
                ],
                tmp_path / "a.manifest.json", ["trajectories", "detections", "extrinsics"], [a], 0,
            ),
            (
                [*process, "--output", str(p)],
                p / "manifest.json", ["raw", "anchor"],
                [p / "dataset.jsonl"], 0,
            ),
            (
                [*process, "--calib", str(calib), "--output", str(pc)],
                pc / "manifest.json", ["raw", "anchor", "calib"],
                [pc / "dataset.jsonl"], 0,
            ),
            (
                [
                    "train-toy", "--dataset", str(processed / "dataset.jsonl"), "--steps", "2",
                    "--seed", "3", "--output", str(m),
                ],
                m / "manifest.json", ["dataset"], [m / "model.json", m / "curve.csv"], 3,
            ),
            *(
                (
                    ["simulate", "--policy", policy, "--trials", "1", "--seed", str(seed)]
                    + ["--output", str(sim)],
                    sim / "manifest.json", labels,
                    [sim / "metrics.csv", sim / "aggregate.json"], seed,
                )
                for policy, labels, seed, sim in zip(
                    ("replay", "cruise", str(m / "model.json")),
                    ([], [], ["policy"]),
                    (4, 5, 6),
                    sims,
                )
            ),
            (
                ["report", "--metrics", str(sims[0] / "metrics.csv"), str(sims[1] / "metrics.csv"),
                 "--output", str(r)],
                r / "manifest.json", ["metrics_0", "metrics_1"],
                [r / "report.md", r / "i_star_hist.svg", r / "event_counts.svg"], 0,
            ),
        ]
        saved, save = [], RunManifest.save

        def recording_save(man, path):
            saved.append((man, Path(path)))
            save(man, path)

        monkeypatch.setattr(RunManifest, "save", recording_save)
        for argv, man_path, labels, outputs, seed in cases:
            assert main(argv) == EXIT_OK, argv
            man, path = saved.pop()
            assert (man.command, path, list(man.inputs)) == (argv[0], man_path, labels)
            assert list(man.outputs) == [str(o) for o in outputs]
            assert man.seed == seed
            assert RunManifest.load(man_path) == man
        assert man.inputs["metrics_1"] == {"metrics.csv": file_sha256(sims[1] / "metrics.csv")}
        # an edit to the second metrics file makes the report's replay fail, naming it
        with open(sims[1] / "metrics.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        capsys.readouterr()
        assert main(["replay", "--manifest", str(r / "manifest.json")]) == EXIT_REJECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["rejected: replay inputs differ from manifest: metrics_1"]


def _jsonl_without_hand(path: Path) -> str:
    """The text of a JSONL stream with every record of the hand node removed."""
    lines = path.read_text().splitlines()
    return "\n".join(line for line in lines if json.loads(line)["node"] != "hand") + "\n"


class TestUnusableInputRefused:
    """Inputs that parse but that a command cannot use: each is refused with
    one stderr line, no traceback, and nothing written."""

    @staticmethod
    def _assert_refused(argv, rc, line, written, capsys):
        capsys.readouterr()
        assert main(argv) == rc
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [line]
        assert "Traceback" not in err
        assert not any(p.exists() for p in written)

    def _refuse_anchor(self, raw, tmp_path, name, text, rc, line, capsys):
        """anchor with raw's file name replaced by text."""
        files = {n: raw / n for n in ("trajectories.jsonl", "detections.jsonl", "extrinsics.json")}
        files[name] = tmp_path / name
        files[name].write_text(text)
        out = tmp_path / "a.json"
        argv = [
            "anchor",
            "--trajectories", str(files["trajectories.jsonl"]),
            "--detections", str(files["detections.jsonl"]),
            "--extrinsics", str(files["extrinsics.json"]),
            "--output", str(out),
        ]
        self._assert_refused(argv, rc, line, [out, out.with_suffix(".manifest.json")], capsys)

    def test_anchor_missing_node_stream(self, raw_session, tmp_path, capsys):
        raw, _ = raw_session
        text = _jsonl_without_hand(raw / "trajectories.jsonl")
        line = "usage error: trajectory stream for node 'hand' missing"
        self._refuse_anchor(raw, tmp_path, "trajectories.jsonl", text, EXIT_USAGE, line, capsys)

    def test_anchor_missing_extrinsic(self, raw_session, tmp_path, capsys):
        raw, _ = raw_session
        doc = read_json(raw / "extrinsics.json")
        del doc["hand"]
        line = "usage error: extrinsic for node 'hand' missing"
        self._refuse_anchor(raw, tmp_path, "extrinsics.json", json.dumps(doc), EXIT_USAGE, line, capsys)

    def test_anchor_node_without_valid_detection(self, raw_session, tmp_path, capsys):
        raw, _ = raw_session
        text = _jsonl_without_hand(raw / "detections.jsonl")
        line = "rejected: no valid detections for node hand"
        self._refuse_anchor(raw, tmp_path, "detections.jsonl", text, EXIT_REJECTED, line, capsys)

    def test_anchor_rotation_spread_beyond_90_degrees(self, raw_session, tmp_path, capsys):
        # one hand sighting of the board turned 120 degrees about its normal
        raw, _ = raw_session
        lines = (raw / "detections.jsonl").read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if json.loads(line)["node"] == "hand")
        rec = json.loads(lines[i])
        turned = quat_mul(np.array(rec["tag_pose"][3:]), rot_z(math.radians(120.0)))
        rec["tag_pose"][3:] = turned.tolist()
        lines[i] = json.dumps(rec)
        line = "rejected: anchoring ill-conditioned: rotation spread exceeds 90 degrees"
        text = "\n".join(lines) + "\n"
        self._refuse_anchor(raw, tmp_path, "detections.jsonl", text, EXIT_REJECTED, line, capsys)

    def test_process_missing_node_stream(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        bad = tmp_path / "raw"
        bad.mkdir()
        (bad / "markers.jsonl").write_text((raw / "markers.jsonl").read_text())
        (bad / "trajectories.jsonl").write_text(_jsonl_without_hand(raw / "trajectories.jsonl"))
        out = tmp_path / "o"
        argv = ["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(out)]
        line = "usage error: trajectory stream for node 'hand' missing"
        self._assert_refused(argv, EXIT_USAGE, line, [out], capsys)

    def test_replay_unknown_command(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "dance", "config": {"output": "o"}, "seed": 0}))
        line = "usage error: manifest records unknown command 'dance'"
        self._assert_refused(["replay", "--manifest", str(manifest)], EXIT_USAGE, line, [], capsys)
        assert list(tmp_path.iterdir()) == [manifest]


class TestShiftedSession:
    """A raw session whose poses, of one node or both, are carried off along x
    by a finite shift. Each command exits 0 with outputs that hold no NaN or
    Infinity, or exits 1 with one stderr line, no warning, and no output or
    manifest written."""

    # (node, shift [m], anchor's exit and stderr line, process's exit and
    # stderr line); process reads the shifted session's anchors where anchor
    # accepts it, and the unshifted session's where anchor rejects it
    CASES = {
        "both_50m": ("both", 50.0, EXIT_OK, None, EXIT_OK, None),
        "hand_1e10m": ("hand", 1e10, EXIT_OK, None, EXIT_OK, None),
        "both_1e300m": (
            "both", 1e300,
            EXIT_REJECTED, "rejected: anchoring gives a non-finite chest position_rms_m value inf",
            EXIT_REJECTED, "rejected: dataset base[0] value 1e+300 is outside the workspace [-100, 100] m",
        ),
        # the sums of the anchoring overflow, and the base lies outside the
        # workspace, which train-toy would refuse
        "both_1.7e308m": (
            "both", 1.7e308,
            EXIT_REJECTED, "rejected: anchoring gives a non-finite chest T_world_tag value inf",
            EXIT_REJECTED, "rejected: dataset base[0] value 1.7e+308 is outside the workspace [-100, 100] m",
        ),
        "hand_1.7e308m": (
            "hand", 1.7e308,
            EXIT_REJECTED, "rejected: anchoring gives a non-finite hand T_world_tag value inf",
            EXIT_REJECTED, "rejected: dataset hand_rel distance from the chest inf is outside [0, 2] m",
        ),
    }

    @staticmethod
    def _run(argv, rc, line, written, capsys):
        capsys.readouterr()
        assert main(argv) == rc
        err = capsys.readouterr().err.strip().splitlines()
        if rc == EXIT_OK:
            assert err == []
            for path in written:
                _assert_finite_file(path)
        else:
            assert err == [line]
            assert not any(p.exists() for p in written)

    def _shift(self, case, raw_session, tmp_path) -> Path:
        """A copy of the raw session with the case's shift."""
        node, shift = self.CASES[case][:2]
        raw, _ = raw_session
        shifted = tmp_path / "raw"
        shutil.copytree(raw, shifted)
        recs = [json.loads(line) for line in (raw / "trajectories.jsonl").read_text().splitlines()]
        (shifted / "trajectories.jsonl").write_text(
            "".join(
                json.dumps({**r, "pose": [r["pose"][0] + shift, *r["pose"][1:]]} if node in ("both", r["node"]) else r)
                + "\n"
                for r in recs
            )
        )
        return shifted

    @staticmethod
    def _anchor_argv(raw, anchors):
        return [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(anchors),
        ]

    @pytest.mark.parametrize("case", list(CASES))
    def test_anchor(self, case, raw_session, tmp_path, capsys):
        _, _, rc, line, _, _ = self.CASES[case]
        anchors = tmp_path / "anchors.json"
        argv = self._anchor_argv(self._shift(case, raw_session, tmp_path), anchors)
        self._run(argv, rc, line, [anchors, anchors.with_suffix(".manifest.json")], capsys)

    @pytest.mark.parametrize("case", list(CASES))
    def test_process(self, case, raw_session, anchored, tmp_path, capsys):
        _, _, anchor_rc, _, rc, line = self.CASES[case]
        shifted = self._shift(case, raw_session, tmp_path)
        if anchor_rc == EXIT_OK:
            anchored = tmp_path / "anchors.json"
            assert main(self._anchor_argv(shifted, anchored)) == EXIT_OK
        out = tmp_path / "processed"
        argv = ["process", "--raw", str(shifted), "--anchor", str(anchored), "--output", str(out)]
        self._run(argv, rc, line, [out / "dataset.jsonl", out / "manifest.json"], capsys)


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file is a usage error: one stderr
    line naming the file, the byte's line and its offset in the file."""

    @staticmethod
    def _with_0xff(path: Path, tmp_path: Path) -> tuple[Path, int, int]:
        """A copy of path under tmp_path with a 0xff byte appended; the copy,
        the byte's line and its offset."""
        data = path.read_bytes()
        copy = tmp_path / path.name
        copy.write_bytes(data + b"\xff")
        return copy, data.count(b"\n") + 1, len(data)

    @staticmethod
    def _assert_usage_error(argv, path, line, offset, capsys):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == EXIT_USAGE
        assert capsys.readouterr().err.strip().splitlines() == [
            f"usage error: {path}:{line}: not UTF-8: invalid start byte at byte {offset}"
        ]

    @staticmethod
    def _anchor_argv(raw, out, **files):
        names = {"trajectories": "trajectories.jsonl", "detections": "detections.jsonl", "extrinsics": "extrinsics.json"}
        flags = [(f"--{flag}", files.get(flag, raw / name)) for flag, name in names.items()]
        return ["anchor", *(a for pair in flags for a in pair), "--output", out]

    def test_extrinsics(self, raw_session, tmp_path, capsys):
        raw, _ = raw_session
        path, line, offset = self._with_0xff(raw / "extrinsics.json", tmp_path)
        argv = self._anchor_argv(raw, tmp_path / "a.json", extrinsics=path)
        self._assert_usage_error(argv, path, line, offset, capsys)

    def test_markers(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        bad = tmp_path / "raw"
        bad.mkdir()
        shutil.copy(raw / "trajectories.jsonl", bad)
        path, line, offset = self._with_0xff(raw / "markers.jsonl", bad)
        argv = ["process", "--raw", bad, "--anchor", anchored, "--output", tmp_path / "o"]
        self._assert_usage_error(argv, path, line, offset, capsys)

    def test_trajectories_offset_is_in_the_file(self, raw_session, tmp_path, capsys):
        # past the first 8 KiB, where an offset into a decode chunk would differ
        raw, _ = raw_session
        path, line, offset = self._with_0xff(raw / "trajectories.jsonl", tmp_path)
        assert offset > 8192
        argv = self._anchor_argv(raw, tmp_path / "a.json", trajectories=path)
        self._assert_usage_error(argv, path, line, offset, capsys)


class TestOutputOverwritesInput:
    """An output, or the manifest saved with it, that would overwrite an input
    file or land in an input directory is a one-line usage error naming both,
    before any work: the inputs keep their bytes and nothing is written."""

    @staticmethod
    def _contents(root: Path) -> dict:
        return {str(f): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

    def _assert_refused(self, argv, raw, written, capsys):
        before = self._contents(raw)
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert all(str(p) in err[0] for p in written)
        assert self._contents(raw) == before

    def test_anchor_output_is_its_detections(self, raw_session, tmp_path, capsys):
        raw = shutil.copytree(raw_session[0], tmp_path / "raw")
        detections = raw / "detections.jsonl"
        argv = [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(detections),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(detections),
        ]
        self._assert_refused(argv, raw, [detections], capsys)

    def test_process_output_is_its_raw_directory(self, raw_session, anchored, tmp_path, capsys):
        raw = shutil.copytree(raw_session[0], tmp_path / "raw")
        argv = ["process", "--raw", str(raw), "--anchor", str(anchored), "--output", str(raw)]
        self._assert_refused(argv, raw, [raw / "dataset.jsonl", raw], capsys)

    def test_relative_spelling_is_the_same_path(
        self, raw_session, anchored, tmp_path, capsys, monkeypatch
    ):
        raw = shutil.copytree(raw_session[0], tmp_path / "raw")
        monkeypatch.chdir(tmp_path)
        argv = ["process", "--raw", "raw", "--anchor", str(anchored), "--output", "./raw/../raw/"]
        self._assert_refused(argv, raw, ["raw/../raw/dataset.jsonl", "--raw raw"], capsys)

    def test_manifest_is_an_input(self, raw_session, tmp_path, capsys):
        # anchor saves its manifest beside its output: here, over --extrinsics
        raw = shutil.copytree(raw_session[0], tmp_path / "raw")
        extrinsics = (raw / "extrinsics.json").rename(raw / "a.manifest.json")
        argv = [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(extrinsics),
            "--output", str(raw / "a.json"),
        ]
        self._assert_refused(argv, raw, [extrinsics], capsys)

    def test_input_in_the_output_directory_is_kept(self, tmp_path):
        # report writes beside the metrics file it reads, and leaves it as it was
        sim = tmp_path / "sim"
        assert main(["simulate", "--trials", "1", "--output", str(sim)]) == EXIT_OK
        metrics = (sim / "metrics.csv").read_bytes()
        assert main(["report", "--metrics", str(sim / "metrics.csv"), "--output", str(sim)]) == EXIT_OK
        assert (sim / "metrics.csv").read_bytes() == metrics
        assert main(["replay", "--manifest", str(sim / "manifest.json")]) == EXIT_OK


class TestReplayCommand:
    def test_replay_reproduces_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "2", "--seed", "4", "--output", str(out)]) == EXIT_OK
        rc = main(["replay", "--manifest", str(out / "manifest.json")])
        assert rc == EXIT_OK

    def test_replay_accepts_every_recorded_config(self, raw_session, anchored, processed, tmp_path):
        # each command's own manifest passes replay's key and value checks
        raw, _ = raw_session
        (tmp_path / "calib.json").write_text(json.dumps({"d_closed": 0.01, "d_open": 0.09}))
        sim = tmp_path / "sim"
        runs = [
            [
                "anchor",
                "--trajectories", str(raw / "trajectories.jsonl"),
                "--detections", str(raw / "detections.jsonl"),
                "--extrinsics", str(raw / "extrinsics.json"),
                "--output", str(tmp_path / "a.json"),
            ],
            [
                "process", "--raw", str(raw), "--anchor", str(anchored),
                "--calib", str(tmp_path / "calib.json"), "--no-smoothing",
                "--output", str(tmp_path / "p"),
            ],
            [
                "train-toy", "--dataset", str(processed / "dataset.jsonl"),
                "--output", str(tmp_path / "m"), "--steps", "5",
            ],
            [
                "simulate", "--policy", str(tmp_path / "m" / "model.json"), "--matching", "off",
                "--kinematic", "--variation", "--trials", "1", "--output", str(sim),
            ],
            ["report", "--metrics", str(sim / "metrics.csv"), "--output", str(tmp_path / "r")],
        ]
        manifests = [
            tmp_path / "a.manifest.json",
            tmp_path / "p" / "manifest.json",
            tmp_path / "m" / "manifest.json",
            sim / "manifest.json",
            tmp_path / "r" / "manifest.json",
        ]
        for argv, man in zip(runs, manifests, strict=True):
            assert main(argv) == EXIT_OK
            assert main(["replay", "--manifest", str(man)]) == EXIT_OK, argv[0]

    def test_replay_mismatch_leaves_outputs_untouched(self, tmp_path, monkeypatch):
        # a tampered output whose new hash is recorded: replay must reject it
        # without overwriting the evidence, and clean up its rerun
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "2", "--seed", "4", "--output", str(out)]) == EXIT_OK
        metrics = out / "metrics.csv"
        with open(metrics, "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        tampered = metrics.read_bytes()
        man_path = out / "manifest.json"
        doc = read_json(man_path)
        doc["outputs"][str(metrics)] = file_sha256(metrics)
        man_path.write_text(json.dumps(doc))
        aggregate = (out / "aggregate.json").read_bytes()
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        assert main(["replay", "--manifest", str(man_path)]) == EXIT_REJECTED
        assert metrics.read_bytes() == tampered
        assert (out / "aggregate.json").read_bytes() == aggregate
        assert list(scratch.iterdir()) == []

    @pytest.mark.parametrize("edit", ["emptied", "deleted"])
    def test_replay_rejects_manifest_without_outputs(self, tmp_path, edit):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "1", "--output", str(out)]) == EXIT_OK
        man_path = out / "manifest.json"
        doc = read_json(man_path)
        if edit == "emptied":
            doc["outputs"] = {}
        else:
            del doc["outputs"]
        man_path.write_text(json.dumps(doc))
        assert main(["replay", "--manifest", str(man_path)]) == EXIT_REJECTED

    def test_replay_rejects_output_outside_recorded_output(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "1", "--output", str(out)]) == EXIT_OK
        man_path = out / "manifest.json"
        doc = read_json(man_path)
        doc["outputs"][str(tmp_path / "elsewhere.csv")] = "0" * 64
        man_path.write_text(json.dumps(doc))
        assert main(["replay", "--manifest", str(man_path)]) == EXIT_USAGE

    def test_replay_rejects_changed_input(self, raw_session, tmp_path, capsys):
        # blank lines change the file's hash but not what anchor reads from it,
        # so only the input check can catch them
        raw = shutil.copytree(raw_session[0], tmp_path / "raw")
        out = tmp_path / "a.json"
        argv = [
            "anchor",
            "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"),
            "--output", str(out),
        ]
        assert main(argv) == EXIT_OK
        anchors = out.read_bytes()
        with open(raw / "trajectories.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        capsys.readouterr()
        assert main(["replay", "--manifest", str(tmp_path / "a.manifest.json")]) == EXIT_REJECTED
        err = capsys.readouterr().err
        assert "rejected: replay inputs differ from manifest: trajectories" in err
        assert out.read_bytes() == anchors

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "2", "--seed", "4", "--output", str(out)]) == EXIT_OK
        man_path = out / "manifest.json"
        doc = read_json(man_path)
        next_key = next(iter(doc["outputs"]))
        doc["outputs"][next_key] = "0" * 64
        man_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["replay", "--manifest", str(man_path)])
        assert rc == EXIT_REJECTED
        # the message names what the bytes depend on: numpy and its BLAS
        err = capsys.readouterr().err
        assert f"replay outputs differ from manifest: {next_key}" in err
        assert f"numpy {np.__version__} with BLAS " in err


class TestNonFiniteChunkRejected:
    """A policy chunk with a NaN or infinite entry exits 1 with one line that
    names the policy and the trial seed, and writes no outputs."""

    TRIAL_SEED = int(np.random.SeedSequence([0, 0]).generate_state(1)[0])

    @staticmethod
    def _assert_rejected(policy, tmp_path, capsys):
        out = tmp_path / "s"
        capsys.readouterr()
        argv = ["simulate", "--policy", policy, "--trials", "1", "--output", str(out)]
        assert main(argv) == EXIT_REJECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"rejected: policy {policy}: ")
        assert f"trial seed {TestNonFiniteChunkRejected.TRIAL_SEED}" in err[0]
        assert not out.exists()

    @staticmethod
    def _cruise_with_third_chunk_entry(value):
        """CruisePolicy whose third chunk holds value in column 0 of row 0."""

        class ThirdChunkEntry(cli.CruisePolicy):
            calls = 0

            def __call__(self, obs, obs_t):
                chunk = super().__call__(obs, obs_t)
                self.calls += 1
                if self.calls == 3:
                    row, *rest = chunk.rows
                    chunk = ActionChunkTensor(((value, *row[1:]), *rest))
                return chunk

        return ThirdChunkEntry

    def test_nan_in_cruise_chunk(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CruisePolicy", self._cruise_with_third_chunk_entry(math.nan))
        self._assert_rejected("cruise", tmp_path, capsys)

    def test_huge_finite_entry_in_cruise_chunk(self, tmp_path, capsys, monkeypatch):
        # finite, but its square overflows in the match's distance: before the
        # range guard this ended in an OverflowError traceback
        monkeypatch.setattr(cli, "CruisePolicy", self._cruise_with_third_chunk_entry(1e300))
        self._assert_rejected("cruise", tmp_path, capsys)

    def test_checkpoint_with_huge_output_weights(self, tmp_path, capsys):
        model = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=22, hidden=8, kemb_dim=8, temb_dim=8)
        model.init_params(np.random.default_rng(0))
        model.ema["W3"][:] = 1e300
        path = tmp_path / "model.json"
        save_checkpoint(path, model, cosine_schedule())
        self._assert_rejected(str(path), tmp_path, capsys)
