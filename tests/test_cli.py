import json
import os
import subprocess
import sys

import numpy as np
import pytest

import zerocert
from zerocert import Region, builtin_map, certify_existence, parse_map
from zerocert import cli
from zerocert.cli import (certificate_dumps, certificate_from_dict,
                          certificate_to_dict, main)
from zerocert.errors import (BudgetExhausted, DegreeLost, DomainError,
                             EndpointMismatch, InvalidInput, MapSyntaxError,
                             NotANullHomotopy, Unsupported,
                             VanishingOnBoundary, ZeroCertError)


class TestCertifyCommand:
    def test_identity_zero_guaranteed(self, capsys):
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "ZeroGuaranteed"
        assert out["route"] == "winding"
        assert out["obstruction"] == 1

    def test_shifted_no_conclusion(self, capsys):
        code = main(["certify", "--map", "x1+3, x2+3", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["verdict"] == "NoConclusion"
        assert out["obstruction"] == 0
        assert out["extension_witness_present"] is True

    def test_boundary_zero_exit_code(self, capsys):
        code = main(["certify", "--map", "x1-1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        assert code == 3

    def test_codomain_excess_exit_code(self, capsys):
        code = main(["certify", "--map", "x1, x2, 1", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "cert.json"
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1",
                     "--out", str(out_file)])
        assert code == 0
        on_disk = json.loads(out_file.read_text())
        assert on_disk["verdict"] == "ZeroGuaranteed"

    def test_map_from_file(self, tmp_path, capsys):
        map_file = tmp_path / "map.txt"
        map_file.write_text("x1, x2")
        code = main(["certify", "--map", f"@{map_file}", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        assert code == 0

    def test_lipschitz_auto_is_heuristic(self, capsys):
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1",
                     "--lipschitz", "auto"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rigor"] == "heuristic"
        assert [c["rigor"] for c in out["evidence"]] == ["heuristic"] * 2

    def test_explicit_lipschitz_is_rigorous(self, capsys):
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1",
                     "--lipschitz", "1.0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rigor"] == "rigorous"

    @pytest.mark.parametrize("name, n, code", [
        ("shifted", 2, 2), ("z2", 2, 0), ("shifted", 3, 4)])
    def test_builtin_map_name(self, name, n, code, capsys):
        center = ",".join(["0"] * n)
        assert main(["certify", "--map", name, "--n", str(n),
                     "--center", center, "--radius", "1"]) == code
        if code != 4:
            out = json.loads(capsys.readouterr().out)
            assert out["map_digest"] == builtin_map(name).digest

    def test_non_numeric_lipschitz_exits_4(self, capsys):
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1",
                     "--lipschitz", "abc"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.count("\n") == 1 and "--lipschitz" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_lipschitz_exits_4(self, value, capsys):
        code = main(["certify", "--map", "x1, x2", "--n", "2",
                     "--center", "0,0", "--radius", "1",
                     "--lipschitz", value])
        assert code == 4
        assert capsys.readouterr().out == ""

    def test_syntax_error_exit_code(self, capsys):
        code = main(["certify", "--map", "x1 +", "--n", "2",
                     "--center", "0,0", "--radius", "1"])
        assert code == 4

    def test_bad_flag_exit_code(self, capsys):
        code = main(["certify", "--nope"])
        assert code == 4


class TestOtherCommands:
    def test_winding_z2(self, capsys):
        code = main(["winding", "--map", "x1^2-x2^2, 2*x1*x2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_locate(self, capsys):
        # negative bounds need the --box= form so argparse does not read
        # them as a flag
        code = main(["locate", "--map", "x1-0.3, x2-0.4", "--box=-1,1,-1,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert np.linalg.norm(np.array(out["point"]) - [0.3, 0.4]) <= 1e-5

    def test_locate_1d_vector_codomain_exits_4(self, capsys):
        code = main(["locate", "--map", "x1 - 0.3, x1", "--box=-1,1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "codomain dimension 1" in captured.err

    @pytest.mark.parametrize("argv, field", [
        (["certify", "--map", "x1, x2", "--n", "2", "--center=nan,0",
          "--radius", "1"], "center"),
        (["certify", "--map", "x1, x2", "--n", "2", "--center=0,0",
          "--radius", "inf"], "radius"),
        (["locate", "--map", "x1, x2", "--box=-inf,1,-1,1"], "lower corner"),
    ])
    def test_non_finite_region_exits_4(self, argv, field, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be")

    def test_fixed_point(self, capsys):
        code = main(["fixed-point", "--map", "(x1 + 0.2)/2, (x2 - 0.1)/2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert np.linalg.norm(np.array(out["point"]) - [0.2, -0.1]) <= 1e-5

    def test_homotopy_valid(self, capsys):
        code = main(["homotopy", "--from", "x1, x2", "--to", "2*x1, 2*x2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True

    def test_homotopy_invalid_with_witness(self, capsys):
        code = main(["homotopy", "--from", "x1, x2", "--to", "x1+3, x2+3",
                     "--t-steps", "257", "--lipschitz", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["valid"] is False
        assert out["witness"]["t"] == pytest.approx(0.2357, abs=0.01)

    def test_examples_lists_builtins(self, capsys):
        code = main(["examples"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("opposite-id", "shifted", "z2", "coercive-shift",
                     "rotation-half"):
            assert name in out


@pytest.mark.parametrize("error, code", [
    (InvalidInput("bad input"), 4),
    (MapSyntaxError("unexpected token", 1, 2), 4),
    (DomainError([0.0], "division by zero"), 4),
    (Unsupported(3, 2), 4),
    (FileNotFoundError("no such file"), 4),
    (VanishingOnBoundary(0, norm=0.0), 3),
    (BudgetExhausted("budget spent"), 5),
    (DegreeLost((0.0, 1.0)), 5),
    (EndpointMismatch(0.5), 5),
    (NotANullHomotopy("not constant"), 5),
    (ZeroCertError("internal"), 5),
])
def test_error_exit_codes(error, code, monkeypatch, capsys):
    def raise_error(_args):
        raise error
    monkeypatch.setitem(cli._COMMANDS, "examples", raise_error)
    assert main(["examples"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_default_level_finishes_for_n3():
    # with no --level, an n = 3 certificate uses the 1600-point mesh
    src = os.path.dirname(os.path.dirname(zerocert.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "zerocert.cli", "certify", "--map",
         "x1, x2, x3", "--n", "3", "--center=0,0,0", "--radius", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "ZeroGuaranteed"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_quietly(unbuffered):
    # the read end is closed before the command writes, as after `| head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(zerocert.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "zerocert.cli", "examples"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


class TestCertificateSerialization:
    def _cert(self):
        spec = parse_map("x1, x2", 2)
        return certify_existence(spec, Region.disk([0.0, 0.0], 1.0))

    def test_digest_matches_mapspec(self):
        cert = self._cert()
        assert cert.map_digest == parse_map("x1, x2", 2).digest

    def test_json_roundtrip_byte_identical(self):
        text = certificate_dumps(self._cert())
        again = json.dumps(json.loads(text), indent=2)
        assert again == text

    def test_dict_roundtrip_preserves_fields(self):
        cert = self._cert()
        back = certificate_from_dict(certificate_to_dict(cert))
        assert back.verdict == cert.verdict
        assert back.route == cert.route
        assert back.obstruction == cert.obstruction
        assert back.region.kind == cert.region.kind
        assert back.region.radius == cert.region.radius
        assert len(back.evidence) == len(cert.evidence)

    def test_schema_keys(self):
        d = certificate_to_dict(self._cert())
        assert list(d.keys()) == ["map_digest", "region", "verdict", "route",
                                  "obstruction", "min_boundary_norm", "rigor",
                                  "evidence", "extension_witness_present"]

