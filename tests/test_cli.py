import json

import numpy as np
import pytest

from mobman.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from mobman.jsonl import read_json
from mobman.manifest import RunManifest, file_sha256
from mobman.sim import make_scenario, save_expert_session, scripted_expert


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
        assert man.verify_outputs() == []


class TestProcessCommand:
    def test_outputs_exist(self, processed):
        assert (processed / "dataset.jsonl").exists()
        report = read_json(processed / "filter_report.json")
        assert report["accepted"]

    def test_covariance_spike_rejected(self, raw_session, anchored, tmp_path, capsys):
        raw, _ = raw_session
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "markers.jsonl").write_text((raw / "markers.jsonl").read_text())
        lines = []
        for line in (raw / "trajectories.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec["cov_trace"] = 0.5
            lines.append(json.dumps(rec))
        (bad / "trajectories.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(
            ["process", "--raw", str(bad), "--anchor", str(anchored), "--output", str(tmp_path / "o")]
        )
        assert rc == EXIT_REJECTED
        assert "covariance" in capsys.readouterr().err

    def test_missing_markers_usage_error(self, anchored, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(
            ["process", "--raw", str(empty), "--anchor", str(anchored), "--output", str(tmp_path / "o2")]
        )
        assert rc == EXIT_USAGE


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


class TestReplayCommand:
    def test_replay_reproduces_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "2", "--seed", "4", "--output", str(out)]) == EXIT_OK
        rc = main(["replay", "--manifest", str(out / "manifest.json")])
        assert rc == EXIT_OK

    def test_replay_detects_tampering(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--trials", "2", "--seed", "4", "--output", str(out)]) == EXIT_OK
        man_path = out / "manifest.json"
        doc = read_json(man_path)
        next_key = next(iter(doc["outputs"]))
        doc["outputs"][next_key] = "0" * 64
        man_path.write_text(json.dumps(doc))
        rc = main(["replay", "--manifest", str(man_path)])
        assert rc == EXIT_REJECTED
