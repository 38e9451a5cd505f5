"""Section 6.3.3: PRACH preamble detection.

Paper claims: reliable detection at -10 dB SNR; the low-complexity detector
needs only two correlations (vs one per candidate signature); it ran 16x
faster than the 10 MHz line rate in the authors' C implementation on an i7
(a numpy implementation lands near 1x of the raw line rate but far above
the actual per-occasion processing requirement).
"""

from conftest import full_scale, once

from repro.experiments.prach_eval import run_prach_eval
from repro.utils.render import format_table


def test_prach_detector(benchmark, report):
    trials = 100 if full_scale() else 30
    result = once(benchmark, run_prach_eval, trials=trials, speed_trials=200)

    assert result.detection_by_snr[-10.0] >= 0.95, "paper: reliable at -10 dB"
    assert result.detection_by_snr[-20.0] < 0.5
    assert result.false_alarm <= 0.02
    assert result.complexity_ratio > 8.0, "two correlations vs 16 roots"
    assert result.speed_factor_vs_occasion_rate > 1.0
    assert result.shift_identified

    rows = [["detect @ %.0f dB" % snr, "-", f"{p * 100:.0f}%"]
            for snr, p in sorted(result.detection_by_snr.items())]
    rows += [
        ["false alarms", "low", f"{result.false_alarm * 100:.2f}%"],
        ["complexity vs naive", "~#signatures x", f"{result.complexity_ratio:.1f}x"],
    ]
    report(
        "prach",
        format_table(["metric", "paper", "measured"], rows, title="PRACH detector"),
    )
    # Wall-clock ratios vary run to run, so they are printed, not recorded.
    print(format_table(["metric", "paper", "measured"], [
        ["speed vs 10 MHz line rate", "16x (C, i7)", f"{result.speed_factor_vs_line_rate:.2f}x (numpy)"],
        ["speed vs PRACH occasion rate", ">> 1x", f"{result.speed_factor_vs_occasion_rate:.0f}x"],
    ], title="PRACH detector speed (this host)"))
