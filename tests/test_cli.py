"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import s3d_field


@pytest.fixture()
def field_file(tmp_path):
    field = s3d_field((24, 24, 24), seed="cli-test")
    path = tmp_path / "field.npy"
    np.save(path, field)
    return path, field


class TestCompressDecompress:
    @pytest.mark.parametrize("codec", ["sz3", "sz2", "zfp"])
    def test_roundtrip_respects_error_bound(self, tmp_path, field_file, codec, capsys):
        path, field = field_file
        out = tmp_path / "field.rpca"
        recon_path = tmp_path / "recon.npy"
        eb = 0.01

        assert main([
            "compress", str(path), str(out), "--codec", codec,
            "--error-bound", str(eb), "--mode", "rel",
        ]) == 0
        assert out.exists()
        assert "ratio" in capsys.readouterr().out

        assert main(["decompress", str(out), str(recon_path)]) == 0
        recon = np.load(recon_path)
        assert recon.shape == field.shape
        assert np.abs(recon - field).max() <= eb * (field.max() - field.min()) * (1 + 1e-9)

    def test_postprocess_plan_stored_and_applied(self, tmp_path, field_file, capsys):
        path, field = field_file
        out = tmp_path / "field.rpca"
        eb = 0.02
        main([
            "compress", str(path), str(out), "--codec", "zfp",
            "--error-bound", str(eb), "--mode", "rel", "--postprocess",
        ])
        raw_path = tmp_path / "raw.npy"
        post_path = tmp_path / "post.npy"
        main(["decompress", str(out), str(raw_path), "--no-postprocess"])
        main(["decompress", str(out), str(post_path)])
        raw = np.load(raw_path)
        post = np.load(post_path)
        capsys.readouterr()
        # the post-processed output is at least as close to the original
        assert np.mean((post - field) ** 2) <= np.mean((raw - field) ** 2) + 1e-12

    def test_sz2_block_size_option(self, tmp_path, field_file, capsys):
        path, _ = field_file
        out = tmp_path / "f.rpca"
        main(["compress", str(path), str(out), "--codec", "sz2", "--block-size", "4",
              "--error-bound", "0.01", "--mode", "rel"])
        capsys.readouterr()
        main(["info", str(out)])
        info = json.loads(capsys.readouterr().out)
        assert info["metadata"]["block_size"] == 4


class TestInfoAndEvaluate:
    def test_info_reports_ratio_and_shape(self, tmp_path, field_file, capsys):
        path, field = field_file
        out = tmp_path / "field.rpca"
        main(["compress", str(path), str(out), "--codec", "sz3",
              "--error-bound", "0.01", "--mode", "rel"])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["codec"] == "sz3"
        assert tuple(info["shape"]) == field.shape
        assert info["compression_ratio"] > 1.0

    def test_evaluate_prints_metrics(self, tmp_path, field_file, capsys):
        path, field = field_file
        noisy = tmp_path / "noisy.npy"
        np.save(noisy, field + 0.01 * field.std())
        assert main(["evaluate", str(path), str(noisy)]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out and "SSIM" in out and "max error" in out

    def test_evaluate_shape_mismatch_exits(self, tmp_path, field_file):
        path, _ = field_file
        other = tmp_path / "other.npy"
        np.save(other, np.zeros((4, 4)))
        with pytest.raises(SystemExit):
            main(["evaluate", str(path), str(other)])


class TestStoreCommands:
    @pytest.fixture()
    def populated_store(self, tmp_path, field_file):
        from repro.core.mr_compressor import MultiResolutionCompressor
        from repro.store import Store

        _, field = field_file
        root = tmp_path / "store"
        store = Store(root, MultiResolutionCompressor(unit_size=8))
        store.append("pressure", 2, field, 0.01)
        return root, field

    def test_store_ls(self, populated_store, capsys):
        root, _ = populated_store
        assert main(["store", "ls", str(root)]) == 0
        out = capsys.readouterr().out
        assert "pressure" in out and "1 entries" in out

    def test_store_get_decodes_level(self, tmp_path, populated_store, capsys):
        root, field = populated_store
        out_path = tmp_path / "level0.npy"
        assert main(["store", "get", str(root), "pressure", "2", str(out_path)]) == 0
        recon = np.load(out_path)
        assert recon.shape == field.shape
        assert np.abs(recon - field).max() <= 0.01 * (1 + 1e-9)

    def test_store_roi_touches_only_intersecting_blocks(self, tmp_path, populated_store, capsys):
        root, field = populated_store
        out_path = tmp_path / "roi.npy"
        assert main([
            "store", "roi", str(root), "pressure", "2", str(out_path),
            "--bbox", "0:8,0:8,0:8",
        ]) == 0
        out = capsys.readouterr().out
        # 24^3 at unit 8 is 27 blocks; the bbox covers exactly one.
        assert "decoded 1/27 blocks" in out
        roi = np.load(out_path)
        assert roi.shape == (8, 8, 8)
        assert np.abs(roi - field[:8, :8, :8]).max() <= 0.01 * (1 + 1e-9)

    def test_store_read_numpy_style_index(self, tmp_path, populated_store, capsys):
        root, field = populated_store
        out_path = tmp_path / "read.npy"
        assert main([
            "store", "read", str(root), "pressure", "2", str(out_path),
            "--index", "10:20,:,::2",
        ]) == 0
        out = capsys.readouterr().out
        assert "decoded" in out and "blocks" in out
        data = np.load(out_path)
        assert data.shape == (10, 24, 12)
        assert np.abs(data - field[10:20, :, ::2]).max() <= 0.01 * (1 + 1e-9)

    def test_store_read_negative_and_ellipsis(self, tmp_path, populated_store):
        root, field = populated_store
        out_path = tmp_path / "plane.npy"
        # A leading '-' needs the --index=... spelling so argparse does not
        # mistake the value for a flag.
        assert main([
            "store", "read", str(root), "pressure", "2", str(out_path),
            "--index=-1,...",
        ]) == 0
        data = np.load(out_path)
        assert data.shape == (24, 24)
        assert np.abs(data - field[-1]).max() <= 0.01 * (1 + 1e-9)

    def test_store_read_remote_matches_local(
        self, tmp_path, serve_daemon, serve_store, capsys
    ):
        remote_path = tmp_path / "remote.npy"
        local_path = tmp_path / "local.npy"
        assert main([
            "store", "read", "ignored-root", "density", "0", str(remote_path),
            "--index", "10:20,:,::2", "--remote", serve_daemon.address,
        ]) == 0
        out = capsys.readouterr().out
        assert f"via {serve_daemon.address}" in out and "daemon decoded" in out
        assert main([
            "store", "read", str(serve_store.root), "density", "0", str(local_path),
            "--index", "10:20,:,::2",
        ]) == 0
        assert np.array_equal(np.load(remote_path), np.load(local_path))

    def test_store_read_remote_propagates_daemon_errors(self, serve_daemon, tmp_path):
        with pytest.raises(SystemExit, match="store has no entry nope/00000"):
            main([
                "store", "read", "ignored-root", "nope", "0",
                str(tmp_path / "o.npy"), "--index", "0",
                "--remote", serve_daemon.address,
            ])

    def test_store_read_remote_connection_refused_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot connect to daemon"):
            main([
                "store", "read", "ignored-root", "f", "0", str(tmp_path / "o.npy"),
                "--index", "0", "--remote", "127.0.0.1:1",
            ])

    def test_serve_rejects_bad_address(self, populated_store):
        root, _ = populated_store
        with pytest.raises(SystemExit, match="bad daemon address"):
            main(["serve", str(root), "--addr", "nonsense"])

    def test_serve_subprocess_sigterm_exits_cleanly(self, populated_store):
        # The contract CI's smoke job relies on: a real `repro serve` process
        # stops promptly with exit code 0 on SIGTERM, reporting its counters.
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root, _ = populated_store
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root),
             "--addr", "127.0.0.1:0", "--seconds", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner
            address = banner.split(" at ")[1].split(" ")[0]
            from repro.serve import RemoteStore

            with RemoteStore(address) as client:
                assert "pressure" in client.fields()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "daemon stopped" in out

    def test_store_read_bad_index_exits(self, populated_store, tmp_path):
        root, _ = populated_store
        for bad in ("1:2:3:4", "a:b", "spam"):
            with pytest.raises(SystemExit, match="bad index"):
                main(["store", "read", str(root), "pressure", "2",
                      str(tmp_path / "o.npy"), "--index", bad])

    def test_store_read_empty_selection_exits(self, populated_store, tmp_path):
        root, _ = populated_store
        with pytest.raises(SystemExit, match="empty after clamping"):
            main(["store", "read", str(root), "pressure", "2",
                  str(tmp_path / "o.npy"), "--index", "5:5"])

    def test_store_missing_entry_exits(self, populated_store, tmp_path):
        root, _ = populated_store
        with pytest.raises(SystemExit):
            main(["store", "get", str(root), "density", "0", str(tmp_path / "o.npy")])

    def test_store_bad_bbox_exits(self, populated_store, tmp_path):
        root, _ = populated_store
        with pytest.raises(SystemExit):
            main(["store", "roi", str(root), "pressure", "2", str(tmp_path / "o.npy"),
                  "--bbox", "0-8,0-8"])

    def test_store_not_a_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "ls", str(tmp_path / "missing")])

    def test_store_ls_rejects_plain_directory_without_mutating_it(self, tmp_path):
        plain = tmp_path / "not_a_store"
        plain.mkdir()
        (plain / "somefile.txt").write_text("hello")
        with pytest.raises(SystemExit, match="manifest"):
            main(["store", "ls", str(plain)])
        # A read-only query must not leave a manifest behind.
        assert sorted(p.name for p in plain.iterdir()) == ["somefile.txt"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", "a.npy", "b.rpca", "--codec", "mgard",
                                       "--error-bound", "0.1"])

    def test_wrong_ndim_input_exits(self, tmp_path):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.zeros((2, 2, 2, 2)))
        with pytest.raises(SystemExit):
            main(["compress", str(bad), str(tmp_path / "o.rpca"), "--error-bound", "0.1"])
