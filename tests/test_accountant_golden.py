"""The accountant's outputs, pinned bit for bit.

``golden/accountant.json`` holds, as recorded before the one-pass curves
replaced the per-order loop:

- ``sigmas``: ``float.hex`` of ``bench.calibrate_noise`` for every cell of
  ``test_bench.CELLS`` at each default budget, with the tuned config,
  n_train = 900 and gamma = gamma_scale * 2 * 900;
- ``account``: exit code, stdout and stderr of ``privfp account`` for each
  setting at sigma in {3.9, 4, 50, 1075.8} (K 200, L 0.1, gamma 1, n 900,
  m 45, delta 1e-6);
- ``calibrate_sigma``: ``float.hex`` of ``privacy.calibrate_sigma`` for each
  setting, target form and budget in {0.5, 2} at the same parameters.

A refactor of the accountant that changes one of them changes a certified
privacy level or a calibrated noise level, so these values are not
re-recorded to make a change pass.
"""

import json
from pathlib import Path

import pytest

from privfp import bench, privacy
from privfp.cli import main

from test_bench import CELLS

GOLDEN = json.loads((Path(__file__).parent / "golden" / "accountant.json").read_text())
ACCOUNT_SIGMAS = ("3.9", "4", "50", "1075.8")


@pytest.mark.parametrize("setting,algorithm", CELLS)
def test_calibrate_noise_bits(setting, algorithm):
    config = bench.tuned_config(algorithm, setting=setting)
    gamma = config.gamma_scale * 2.0 * 900
    got = [bench.calibrate_noise(config, eps, gamma, 900).hex() for eps in config.epsilons]
    assert config.epsilons == (0.1, 0.3, 1.0, 3.0, 10.0)
    assert got == GOLDEN["sigmas"][f"{setting}-{algorithm}"]


@pytest.mark.parametrize("sigma", ACCOUNT_SIGMAS)
@pytest.mark.parametrize("setting", privacy.SETTINGS)
def test_account_output(setting, sigma, capsys):
    code = main(["account", "--setting", setting, "--sigma", sigma, "--K", "200", "--L", "0.1",
                 "--gamma", "1", "--n", "900", "--m", "45", "--delta", "1e-6"])
    out, err = capsys.readouterr()
    assert [code, out, err] == GOLDEN["account"][f"{setting}@{sigma}"]


def test_calibrate_sigma_bits():
    got = {}
    for setting in privacy.SETTINGS:
        for target in ({"delta": 1e-6}, {"alpha": 2.0}, {"alpha": 8.0}):
            for eps in (0.5, 2.0):
                key = f"{setting}-{'-'.join(f'{k}={v}' for k, v in target.items())}-eps={eps}"
                got[key] = privacy.calibrate_sigma(setting, epsilon=eps, K=200, L=0.1, gamma=1.0,
                                                   n=900, m=45, **target).hex()
    assert got == GOLDEN["calibrate_sigma"]
