"""Tests for `repro run` and the CLI's one-line failure modes."""

import json

import numpy as np
import pytest

import repro
from repro.api import CodecSpec, ErrorBound, PipelineConfig, WorkflowConfig
from repro.cli import main
from repro.datasets.synthetic import smooth_wave_field


@pytest.fixture()
def field_file(tmp_path):
    field = smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))
    path = tmp_path / "field.npy"
    np.save(path, field)
    return path, field


class TestRunCommand:
    def test_workflow_config_smoke(self, tmp_path, field_file, capsys):
        path, _ = field_file
        config = WorkflowConfig(
            codec=CodecSpec(unit_size=8), error_bound=ErrorBound.rel(0.02)
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))

        assert main(["run", str(cfg_path), "--input", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["type"] == "workflow"
        assert summary["compression_ratio"] > 1
        assert summary["error_bound_spec"] == {"mode": "rel", "value": 0.02}

    def test_replay_reproduces_direct_call_exactly(self, tmp_path, field_file, capsys):
        """Acceptance: serialized config + `repro run` == direct API call."""
        path, field = field_file
        config = WorkflowConfig(
            codec=CodecSpec.sz3mr(unit_size=8),
            error_bound=ErrorBound.rel(0.02),
            roi_fraction=0.4,
        )
        direct = repro.run_workflow(field, config)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert main(["run", str(cfg_path), "--input", str(path)]) == 0
        replayed = json.loads(capsys.readouterr().out)

        assert replayed["compression_ratio"] == direct.compression_ratio
        assert replayed["psnr"] == direct.psnr
        assert replayed["ssim"] == direct.ssim

    def test_config_embedded_input_and_reconstruction(self, tmp_path, field_file, capsys):
        path, field = field_file
        config = WorkflowConfig(
            codec=CodecSpec(unit_size=8),
            error_bound=ErrorBound.rel(0.02),
            postprocess=False,
            input={"kind": "npy", "path": str(path)},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        recon_path = tmp_path / "recon.npy"
        out_json = tmp_path / "summary.json"

        assert main([
            "run", str(cfg_path),
            "--save-reconstruction", str(recon_path),
            "--output-json", str(out_json),
        ]) == 0
        recon = np.load(recon_path)
        assert recon.shape == field.shape
        summary = json.loads(out_json.read_text())
        assert summary == json.loads(capsys.readouterr().out)

    def test_pipeline_config_runs_simulation(self, tmp_path, capsys):
        config = PipelineConfig(
            codec=CodecSpec(unit_size=8),
            error_bound=ErrorBound.rel(0.05),
            n_steps=2,
            source={"kind": "simulation", "name": "collapse",
                    "shape": [16, 16, 16], "block_size": 8, "seed": 1},
            sink={"kind": "store", "path": str(tmp_path / "run")},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))

        assert main(["run", str(cfg_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["type"] == "pipeline"
        assert len(summary["steps"]) == 2
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(tmp_path / "nope.json")])
        assert excinfo.value.code
        assert "error:" in str(excinfo.value.code)

    def test_invalid_config_one_line_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{\"type\": \"daemon\"}")
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" in err and err.count("\n") == 1

    def test_pipeline_config_rejects_input_flag(self, tmp_path, field_file, capsys):
        path, _ = field_file
        config = PipelineConfig(codec=CodecSpec(unit_size=8))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert main(["run", str(cfg_path), "--input", str(path)]) == 1
        assert "workflow configs only" in capsys.readouterr().err

    def test_workflow_config_without_input_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(WorkflowConfig().to_dict()))
        assert main(["run", str(cfg_path)]) == 1
        assert "no input" in capsys.readouterr().err


class TestRobustness:
    """Satellite: malformed inputs exit non-zero with one-line messages."""

    def test_malformed_bbox_specs(self, tmp_path, field_file, capsys):
        path, field = field_file
        store_root = tmp_path / "store"
        store = repro.open_store(store_root, CodecSpec(unit_size=8))
        store.append("rho", 0, field, 0.05)
        out = tmp_path / "o.npy"
        for bad in ("5", "a:b,c:d,e:f", "0:16,0:16"):
            with pytest.raises(SystemExit) as excinfo:
                main(["store", "roi", str(store_root), "rho", "0", str(out), "--bbox", bad])
            assert "error:" in str(excinfo.value.code)

    def test_evaluate_shape_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        np.save(a, np.zeros((8, 8)))
        np.save(b, np.zeros((8, 9)))
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", str(a), str(b)])
        assert "shape mismatch" in str(excinfo.value.code)

    def test_missing_store_manifest(self, tmp_path):
        empty = tmp_path / "not_a_store"
        empty.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "ls", str(empty)])
        assert "error:" in str(excinfo.value.code)

    def test_missing_input_file(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compress", str(tmp_path / "nope.npy"), str(tmp_path / "o.rpca"),
                  "--error-bound", "1e-3"])
        assert "does not exist" in str(excinfo.value.code)

    def test_pathless_source_section_names_the_field(self, tmp_path, capsys):
        config = PipelineConfig(codec=CodecSpec(unit_size=8),
                                source={"kind": "npy"})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert main(["run", str(cfg_path)]) == 1
        assert "needs a 'path'" in capsys.readouterr().err

    def test_negative_error_bound_one_line(self, tmp_path, field_file, capsys):
        path, _ = field_file
        assert main(["compress", str(path), str(tmp_path / "o.rpca"),
                     "--error-bound", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_psnr_mode_compresses(self, tmp_path, field_file, capsys):
        path, field = field_file
        out = tmp_path / "o.rpca"
        assert main(["compress", str(path), str(out),
                     "--error-bound", "60", "--mode", "psnr"]) == 0
        assert "ratio" in capsys.readouterr().out
