"""Golden bytes of the CLI: the SHA-256 of stdout (or of the --output file)
and the exit code of fixed invocations, covering every command in CSV and
JSON, every schedule type, --config, --output, --oracle and exit codes 2
and 3.

The digests were recorded before the options moved to one parameter table
and the schedules to one JSON codec (schedule_to_dict/schedule_from_dict).
Back then simulate's JSON also printed a "c_ratio": 1.0 entry in its
config object; it is gone, and the digests are those of the output
without it. The config whose schedule is the JSON output's own object is
pinned to the digest of the same run given by flags. The recohere-csv
digest was re-recorded when its cells changed from repr() of numpy
scalars, "np.float64(0.5)" under numpy 2, to the plain "0.5" that the
JSON output and csv.writer give. The digests of simulate-config-flat,
-constant-csv, -constant-json, -eta-one-csv, -exponential-csv and
-power-law-oracle-json were re-recorded when the per-step second-order
rows took the summary's evaluation order, 1 - 2*S*(V*delta^2): some rows
and their abs_gap moved by an ulp (row 1000 of simulate-eta-one-csv from
0.6031000000000001 to 0.6031, the summary's value), and no summary line
changed.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from zenokit.cli import main

OVERLAPS = "0.9+0.1j,0.8-0.2j,0.95,0.7+0.3j"

CONFIGS = {
    "flat": {"schedule": "explicit",
             "overlaps": ["0.9+0.1j", "0.8-0.2j", "0.95", "0.7+0.3j"],
             "n": 4, "T": 0.8, "omega": 1.1, "format": "json"},
    "schedule_object": {"omega": 0.7, "T": 0.9, "n": 4, "format": "json",
                        "schedule": {"type": "explicit",
                                     "overlaps": [[0.9, 0.1], [0.8, -0.2], 0.95,
                                                  [0.7, 0.3]]}},
    "sweep": {"schedule": "explicit", "overlaps": "0.9+0.1j,0.85,0.8-0.2j,0.95,0.7+0.3j",
              "n": 5, "T": 0.8, "grid": ["omega=lin:0.1:0.9:7"]},
}

SIM = "simulate --omega 0.7 --T 0.9"
CASES = {
    "simulate-constant-csv": f"{SIM} --n 50 --eta 0.93",
    "simulate-constant-json": f"{SIM} --n 50 --eta 0.93 --format json",
    "simulate-eta-one-csv": f"{SIM} --n 1000 --eta 1",
    "simulate-power-law-oracle-json":
        f"{SIM} --n 12 --schedule power-law --alpha 1.3 --beta 2 --oracle --format json",
    "simulate-exponential-csv": f"{SIM} --n 300 --schedule exponential --alpha 0.7 --beta 0.3",
    "simulate-explicit-oracle-csv": f"{SIM} --n 4 --schedule explicit --overlaps {OVERLAPS} --oracle",
    "simulate-explicit-json": f"{SIM} --n 4 --schedule explicit --overlaps {OVERLAPS} --format json",
    "simulate-config-flat": "simulate --config {flat}",
    "simulate-config-schedule-object": "simulate --config {schedule_object}",
    "simulate-output-file": f"{SIM} --n 40 --eta 0.8 --output {{out}}",
    "simulate-invalid-eta-exit-2": "simulate --omega 1 --T 1 --n 5 --eta 1.5",
    "simulate-oracle-cap-exit-3": "simulate --omega 1 --T 1 --n 21 --eta 0.5 --oracle",
    "classify-constant-json": "classify --schedule constant --eta 0.5 --omega 1 --n-max 4096",
    "classify-power-law-csv":
        "classify --schedule power-law --alpha 1 --beta 1 --V 2 --n-max 4096 --format csv",
    "classify-exponential-json":
        "classify --schedule exponential --alpha 0.6 --beta 0.4 --T 0.8 --n-max 4096",
    "sweep-constant-csv": "sweep --grid eta=lin:0.3:0.99:5 --grid omega=0.2,0.5 --n 100",
    "sweep-power-law-json":
        "sweep --grid n=geom:16:4096:5 --schedule power-law --alpha 1.2 --beta 2 --format json",
    "sweep-config-explicit-csv": "sweep --config {sweep}",
    "sweep-output-json":
        "sweep --grid beta=0.5,1,2 --grid omega=0.4,0.8 --schedule exponential "
        "--alpha 0.7 --n 200 --format json --output {out}",
    "physical-free-particle-json": "physical free-particle --m 1e-26 --sigma 1e-10",
    "physical-gaussian-pointer-csv":
        "physical gaussian-pointer --v 1 --sigma 1 --c-ratio 1.3 --T 1 --format csv",
    "physical-brownian-json": "physical brownian --D 2 --T 1",
    "recohere-json": "recohere",
    "recohere-csv": "recohere --format csv",
}

GOLDEN = {
    "classify-constant-json": (0, "86e2cf3792f6d897c703a952d4682f881838e1afa34835f413452b06ffebc198"),
    "classify-exponential-json": (0, "2022fa613d7f333cf3499a7687016448ebfe34c892fc1a66a165180fe44c67d4"),
    "classify-power-law-csv": (0, "049d3e1d0014379999bbfe78f22f653ab990dd025dce1e9e17d40675436d2015"),
    "physical-brownian-json": (0, "8652853dfedf6b10b0e0aad301f40ed4fe9d30237e27dc8b68846c8efdd9b6b8"),
    "physical-free-particle-json": (0, "7055596a6638be70ec19f2d2c42d504c60364884cb16687764f70d1159113647"),
    "physical-gaussian-pointer-csv": (0, "12b0b158d6bfa8a2d40c184d525b02f808ec17e8672d93f114e85292c45e7faa"),
    "recohere-csv": (0, "1cbdeaed75b37ff6f8f98778b9813ddd523d8e6eeb443a5fd56d8fe113ba4080"),
    "recohere-json": (0, "31124b0260e4377247978db405448572488fa05a638bbdf06c6e0eb19e3fbabf"),
    "simulate-config-flat": (0, "53f8ba97da7b02e177f49c2cbc38ae957474e76303ed9f0425da920011c01d2f"),
    "simulate-config-schedule-object": (0, "7d7a2d101a0066dfe58a0dda5ec4ff884b2dbd83808c2194ded71fe2d4f2ee9c"),
    "simulate-constant-csv": (0, "ce36d48962e57a32761ccb6037ddf05bf8c4246907f7eb9573bd21476655c098"),
    "simulate-constant-json": (0, "9ff1be28d5d429caddf96751946eb55d9b9d9d2b1bf121f919b185189b685c55"),
    "simulate-eta-one-csv": (0, "1d5cc652c7136c12b5aa64acabe19433f1e6644c5f0c330298a51ad0e9b9ba23"),
    "simulate-explicit-json": (0, "7d7a2d101a0066dfe58a0dda5ec4ff884b2dbd83808c2194ded71fe2d4f2ee9c"),
    "simulate-explicit-oracle-csv": (0, "80115c368af734d1550573f21c5f12b0b03d42d09a60a723d772b484a4a3f4ed"),
    "simulate-exponential-csv": (0, "7e09e4d679f97ba2c07af32b85bfb6ab37d9e6484d9fd058f1566748e1073348"),
    "simulate-invalid-eta-exit-2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-oracle-cap-exit-3": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-output-file": (0, "8a04499e3a60eb84651f4e4c05292d31c4cca7f4a2ae3a17c90ae96a6bb9d6d0"),
    "simulate-power-law-oracle-json": (0, "86b674ae4a4a25459eec996782a2f4686853f04880b98b14fff02e051c50bc49"),
    "sweep-config-explicit-csv": (0, "4ac5ae7314c37d6cd99c8c1463c67a3eb9d5322c92cc8d6154f0dc65a5a267d5"),
    "sweep-constant-csv": (0, "ea833a4c88f9080e40696c7aaf6c9357028b9f2479e7b4a88fb4dbb41297c7f2"),
    "sweep-output-json": (0, "42964d490826519aaa2b69dce5d775e7c162f3816740ed37203659bf59af4198"),
    "sweep-power-law-json": (0, "698435ac475662114ddaffe5485c6c7ca19eceba5b6f543a9dff1b910197d706"),
}


def run_case(name, tmp_path):
    """(exit code, SHA-256 of stdout, or of the --output file when one is given)."""
    paths = {"out": tmp_path / "out.txt"}
    for key, config in CONFIGS.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(config))
    args = [arg.format(**paths) for arg in CASES[name].split()]
    result = CliRunner().invoke(main, args)
    data = result.stdout_bytes
    if "--output" in args and result.exit_code == 0:
        assert data == b""
        data = paths["out"].read_bytes()
    return result.exit_code, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]
