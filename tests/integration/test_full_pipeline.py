"""Integration: the complete RevEAL pipeline at toy scale.

One test walks the entire chain the paper describes - victim encrypts
with device-sampled noise, a single trace is captured, the profiled
attack recovers signs and values, high-confidence coefficients become
perfect hints, modular elimination plus the primal lattice attack
recover the encryption sample, and equation (3) yields the plaintext.
"""

import numpy as np
import pytest

from repro.attack.campaign import run_campaign
from repro.attack.pipeline import SingleTraceAttack
from repro.bfv.decryptor import Decryptor
from repro.bfv.device_encryptor import DeviceBackedEncryptor
from repro.bfv.keygen import KeyGenerator
from repro.bfv.params import BfvContext
from repro.bfv.plaintext import Plaintext
from repro.errors import LatticeError
from repro.lattice.embedding import (
    eliminate_known_errors,
    negacyclic_matrix,
    solve_lwe_primal,
)
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice
from repro.ring.poly import RingPoly

RING_DEGREE = 32
HINT_CONFIDENCE = 0.999


@pytest.fixture(scope="module")
def world():
    context = BfvContext.toy(poly_degree=RING_DEGREE, plain_modulus=17)
    device = GaussianSamplerDevice(
        [m.value for m in context.basis.moduli],
        max_deviation=int(context.params.noise_max_deviation),
    )
    acquisition = TraceAcquisition(device, scope=Oscilloscope(noise_std=0.5), rng=1)
    keygen = KeyGenerator(context, rng=10)
    victim = DeviceBackedEncryptor(context, keygen.public_key(), acquisition)
    adversary = SingleTraceAttack(acquisition, poi_count=28)
    adversary.profile(num_traces=150, coeffs_per_trace=6, first_seed=90_000)
    return context, keygen, victim, adversary


class TestFullPipeline:
    def test_single_trace_to_plaintext(self, world):
        context, keygen, victim, adversary = world
        public_key = victim._host_encryptor.public_key
        rng = np.random.default_rng(3)

        recovered_count = 0
        attempts = 3
        for attempt in range(attempts):
            message = Plaintext(rng.integers(0, context.t, context.n), context.t)
            traced = victim.encrypt(message, rng=100 + attempt)

            # the adversary sees ONLY the e2 trace and public material
            result = adversary.attack(traced.e2_capture)
            assert len(result.estimates) == context.n

            hints = {
                i: max(table, key=table.get)
                for i, table in enumerate(result.probabilities)
                if max(table.values()) >= HINT_CONFIDENCE
            }
            a_matrix = negacyclic_matrix(
                [int(c) for c in public_key.p1.residues[0]], context.q
            )
            b_vector = [int(c) for c in traced.ciphertext.c1.residues[0]]
            reduced_a, reduced_b, reconstructor = eliminate_known_errors(
                a_matrix, b_vector, context.q, hints
            )
            try:
                if reconstructor.reduced_dimension == 0:
                    u_hat = reconstructor.full_secret([])
                else:
                    s_reduced, _ = solve_lwe_primal(
                        reduced_a, reduced_b, context.q, error_bound=41
                    )
                    u_hat = reconstructor.full_secret([int(x) for x in s_reduced])
            except LatticeError:
                continue
            if any(abs(int(x)) > 1 for x in u_hat):
                continue
            u_poly = RingPoly.from_int_coeffs(
                context.basis, context.n, [int(x) for x in u_hat]
            )
            masked = traced.ciphertext.c0 - public_key.p0.multiply(
                u_poly, context.ntts
            )
            coeffs = [
                ((context.t * x + context.q // 2) // context.q) % context.t
                for x in masked.to_bigint_coeffs()
            ]
            if Plaintext(coeffs, context.t) == message:
                recovered_count += 1
        assert recovered_count >= 2, (
            f"only {recovered_count}/{attempts} messages recovered"
        )

    def test_victim_ciphertexts_decrypt_normally(self, world):
        context, keygen, victim, _ = world
        decryptor = Decryptor(context, keygen.secret_key())
        message = Plaintext.constant(7, context.n, context.t)
        traced = victim.encrypt(message, rng=55)
        assert decryptor.decrypt(traced.ciphertext) == message

    def test_campaign_statistics_consistent(self, world):
        _, _, _, adversary = world
        campaign = run_campaign(
            adversary, trace_count=10, coeffs_per_trace=4, first_seed=95_000
        )
        # the toy-scale profiling corpus (900 slices) leaves the branch
        # classifier a little short of the full-scale 100%
        assert campaign.sign_accuracy >= 0.9
        assert campaign.value_accuracy >= 0.4
        stats = campaign.hint_statistics()
        assert stats["perfect_fraction"] > 0.1
