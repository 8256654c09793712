"""Simulator and analysis toolkit for an order-encoded polarization
bit-commitment protocol.

A sender streams random conjugate-basis polarized photons; the committer
measures them in random bases and commits a bit by the order in which she
reveals her (partially randomized) results — transmission order for 0,
reversed for 1.  The toolkit reproduces the scheme's agreement levels
(3/4 raw, 5/8 under half randomization, certainty on sifted positions),
quantifies the receiver's pre-unveil bit recovery, and evaluates the
committer's blind rebinding strategies, all under seeded, replayable
randomness.  A three-process wire mode (committer, sender, channel
referee) runs the same protocol with an audit transcript of who saw what.
"""

__version__ = "0.1.0"

from .channel import (
    Basis,
    PhotonState,
    PreparedSequence,
    measure_photon,
    prepare_random_sequence,
    transmit_and_measure,
)
from .kernel import decide
from .protocol import (
    AlignmentScore,
    Commitment,
    Decision,
    DecisionPolicy,
    MeasurementRecord,
    SessionConfig,
    TrialReport,
    choose_random_bases,
    commit,
    inject_errors,
    raw_correlations,
    run_honest_session,
    score_and_decide,
    unveil,
)
from .adversary import (
    PreUnveilGuess,
    RebindStrategy,
    alice_rebind_attack,
    bob_preunveil_guess,
)
from .stats import (
    ConfidenceInterval,
    binomial_ci,
    decode_error_bound,
    expected_raw_correlation,
    expected_sifted_correlation,
)
from .harness import SweepMode, SweepReport, SweepSpec, run_cell, run_sweep, write_report
