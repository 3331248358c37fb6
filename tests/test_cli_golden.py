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
changed. The digest of simulate-explicit-oracle-csv was re-recorded when
the branch oracle became a meet-in-the-middle sum: its oracle row moved
from 0.6981365589044951 to 0.6981365589044949 and its oracle_abs_gap
from 4.4e-16 to 2.2e-16, nearer the 50-digit mpmath chain's
0.698136558904494726; no other row changed. The oracle's cap went from
20 to 32 steps then, and simulate-oracle-cap-exit-3 from n = 21 to 33.
The digests of classify-exponential-json and sweep-power-law-json were
re-recorded when the weighted tail within 1e-4 of eta = 1 moved from a
correctly rounded direct sum to an O(1) formula that is within about 2
eps: each moved value went one ulp off the 60-digit value. In the sweep,
p_second_order and criterion at n = 1024 (0.00039051043685023323 to
0.00039051043685034426, 0.4993164635315749 to 0.49931646353157483) and at
n = 4096 (9.764909547271827e-05 to 9.76490954728293e-05,
0.49982910513976364 to 0.4998291051397636); in classify, the probe's
n = 64 diagnostic (0.49218749995123195 to 0.492187499951232). No other
line changed. The digests of simulate-config-flat, -config-schedule-object,
-explicit-json, -explicit-oracle-csv and sweep-config-explicit-csv were
re-recorded when an explicit schedule's mean modulus moved from the
built-in sum() to math.fsum, since Python 3.12 made sum() of floats a
compensated sum and these five printed other bytes on 3.12 and 3.13 than
on 3.10 and 3.11. The digests are now the same on 3.10 to 3.13, and equal
to the old digests under 3.12. Only columns derived from that mean moved,
each by an ulp or a few: eta_n (sweep, 0.858347389904733 to
0.8583473899047329), p_second_order, abs_gap and criterion (simulate,
0.29368855239563674 to 0.29368855239563685). No p_exact or oracle value
changed. The digest of classify-power-law-csv was re-recorded when the
numeric probe moved from extrapolating the survival 1 - k_n*V*T^2 to
extrapolating the coefficient k_n itself, with V*T^2 applied once to the
limit: its numeric_limit moved from -0.4715177647069549 to
-0.47151776470695483. No other cell of any classify digest changed.
The digest of classify-constant-json was re-recorded when the probe's
extrapolated k was clamped into [0, 1], where every k_n lies: its k of
-6.9e-11 became 0.0, so its numeric extrapolated_limit moved from
1.000000000068693 to 1.0. No other line of any digest changed.
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
    "simulate-oracle-cap-exit-3": "simulate --omega 1 --T 1 --n 33 --eta 0.5 --oracle",
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
    "classify-constant-json": (0, "59e1ecfa7e3d89f305885429b91df319f1d570a448756376bf953d1645163525"),
    "classify-exponential-json": (0, "c14fb305e5ef3570e29dfd32d40d9c20d7ab241efd286d1e913fc9bc08717faf"),
    "classify-power-law-csv": (0, "9189c261fe006697310a814e9ebeab01e75b72f6123835454357e4db46a59518"),
    "physical-brownian-json": (0, "8652853dfedf6b10b0e0aad301f40ed4fe9d30237e27dc8b68846c8efdd9b6b8"),
    "physical-free-particle-json": (0, "7055596a6638be70ec19f2d2c42d504c60364884cb16687764f70d1159113647"),
    "physical-gaussian-pointer-csv": (0, "12b0b158d6bfa8a2d40c184d525b02f808ec17e8672d93f114e85292c45e7faa"),
    "recohere-csv": (0, "1cbdeaed75b37ff6f8f98778b9813ddd523d8e6eeb443a5fd56d8fe113ba4080"),
    "recohere-json": (0, "31124b0260e4377247978db405448572488fa05a638bbdf06c6e0eb19e3fbabf"),
    "simulate-config-flat": (0, "a2a4f46c35365bf491d157e3bfd3f9a31fd1275144569fb6b050379cad36a2af"),
    "simulate-config-schedule-object": (0, "3b5ffb7f63fff3deb728ada49ac860c8f4b999a4084ba690e8f61afa294ed0e7"),
    "simulate-constant-csv": (0, "ce36d48962e57a32761ccb6037ddf05bf8c4246907f7eb9573bd21476655c098"),
    "simulate-constant-json": (0, "9ff1be28d5d429caddf96751946eb55d9b9d9d2b1bf121f919b185189b685c55"),
    "simulate-eta-one-csv": (0, "1d5cc652c7136c12b5aa64acabe19433f1e6644c5f0c330298a51ad0e9b9ba23"),
    "simulate-explicit-json": (0, "3b5ffb7f63fff3deb728ada49ac860c8f4b999a4084ba690e8f61afa294ed0e7"),
    "simulate-explicit-oracle-csv": (0, "e7bfcd9d0b1203017a5406a2a30adf9b68a3c70d9b6f221ac11d5fcca052c24d"),
    "simulate-exponential-csv": (0, "7e09e4d679f97ba2c07af32b85bfb6ab37d9e6484d9fd058f1566748e1073348"),
    "simulate-invalid-eta-exit-2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-oracle-cap-exit-3": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simulate-output-file": (0, "8a04499e3a60eb84651f4e4c05292d31c4cca7f4a2ae3a17c90ae96a6bb9d6d0"),
    "simulate-power-law-oracle-json": (0, "86b674ae4a4a25459eec996782a2f4686853f04880b98b14fff02e051c50bc49"),
    "sweep-config-explicit-csv": (0, "41cbd8b562e9d68672d69aaac1e67180b27124a4eddcfc55ea034a103fca9904"),
    "sweep-constant-csv": (0, "ea833a4c88f9080e40696c7aaf6c9357028b9f2479e7b4a88fb4dbb41297c7f2"),
    "sweep-output-json": (0, "42964d490826519aaa2b69dce5d775e7c162f3816740ed37203659bf59af4198"),
    "sweep-power-law-json": (0, "f463051b8a5c6fdada9aa34d8f7045eb5b5200404166d4ce98384f5deec04872"),
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
