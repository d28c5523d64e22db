"""Parameter-set sweep: the attack across SEAL configurations.

The paper attacks the smallest SEAL-128 set (n=1024, one modulus limb)
but states the attack "is applicable to all security levels and values
of n".  This bench runs the pipeline against a two-limb modulus chain
(the Fig. 2 inner loop actually iterating) and prints the estimator's
no-hint hardness for the 128/192/256-bit parameter families
(section V-B: higher levels are harder to *attack mathematically*; the
side channel itself is unchanged).
"""

import numpy as np
import pytest

from benchmarks.conftest import scaled
from repro.attack.campaign import run_campaign
from repro.attack.pipeline import SingleTraceAttack
from repro.hints.estimator import beta_for_dbdd, bikz_to_bits
from repro.hints.security import higher_security_parameters, make_dbdd
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice
from repro.ring.primes import generate_ntt_primes


class TestParameterSets:
    def test_two_limb_modulus_chain(self, benchmark):
        """Fig. 2's inner loop over coeff_mod_count > 1."""
        moduli = [m.value for m in generate_ntt_primes(27, 2, 1024)]
        device = GaussianSamplerDevice(moduli)
        acquisition = TraceAcquisition(
            device, scope=Oscilloscope(noise_std=1.0), rng=0
        )
        attack = SingleTraceAttack(acquisition, poi_count=24)
        attack.profile(
            num_traces=scaled(150), coeffs_per_trace=8, first_seed=800_000
        )
        campaign = run_campaign(
            attack, trace_count=scaled(25), coeffs_per_trace=8, first_seed=1
        )
        print("\n=== Parameter sweep: two-limb coefficient modulus ===")
        print(f"  sign accuracy  {100 * campaign.sign_accuracy:5.1f}%")
        print(f"  value accuracy {100 * campaign.value_accuracy:5.1f}%")
        assert campaign.sign_accuracy >= 0.97
        assert campaign.value_accuracy >= 0.3
        captured = acquisition.capture(999, 8)
        benchmark(attack.attack_samples, captured.trace.samples)

    def test_security_level_hardness(self, benchmark):
        """Smaller q (higher security level) = harder residual lattice."""
        print("\n=== Parameter sweep: security levels (no-hint bikz) ===")
        betas = {}
        for level in (128, 192, 256):
            params = higher_security_parameters(level)
            beta = beta_for_dbdd(make_dbdd(params))
            betas[level] = beta
            print(f"  SEAL-{level} (q ~ 2^{params.q.bit_length()}): "
                  f"{beta:7.2f} bikz = 2^{bikz_to_bits(beta):6.2f}")
        assert betas[128] < betas[192] < betas[256]
        print("  -> the paper's V-B expectation: higher levels resist the "
              "post-leakage lattice step more")
        benchmark(lambda: beta_for_dbdd(make_dbdd(higher_security_parameters(128))))
