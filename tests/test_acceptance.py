"""Full acceptance gate: runs every criterion at full scale and prints one
pass/fail line per criterion.  The check counts are pinned, so a change that
alters a random draw or drops a check fails here."""

from operad_forge.selftest import run_acceptance

# Checks per criterion at seed 0, scale 1.0.
CHECKS_AT_SEED_0 = [2000, 2747, 600, 621, 200, 653, 70, 33659, 120]


def test_acceptance_criteria(capsys):
    results = run_acceptance(seed=0, scale=1.0)
    with capsys.disabled():
        print()
        for r in results:
            print(r.line)
    assert len(results) == 9
    failed = [r for r in results if not r.ok]
    assert not failed, "\n".join(r.line for r in failed)
    assert [r.checked for r in results] == CHECKS_AT_SEED_0
