#!/bin/sh
# check_golden.sh — golden-output regression gate.
#
# Runs the short-mode experiment suite (every table and figure at reduced
# scale) and compares the SHA-256 of its stdout against the committed
# digest — three times: with the event-driven fast-forward enabled (the
# default), with -slowtick forcing one tick() per cycle, and with
# -parallel 1. All runs must match the same committed hash. The first two
# prove the fast-forward path is bit-identical physics, not an
# approximation; the serial run simulates every point on one machine,
# reset in campaign order through every configuration shape, which proves
# machine reuse is bit-identical to fresh construction.
#
# The simulator is deterministic, so any digest drift means a behavior
# change: performance work must keep this green, and intentional physics
# changes must update testdata/golden_short.sha256 in the same commit with
# an explanation.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
GOLDEN_FILE=testdata/golden_short.sha256

want=$(cat "$GOLDEN_FILE")

check() {
	label=$1
	shift
	got=$($GO run ./cmd/experiments -exp all -warmup 5000 -instructions 20000 -parallel 4 "$@" |
		sha256sum | cut -d' ' -f1)
	if [ "$got" != "$want" ]; then
		echo "FAIL: short-mode experiment output drifted ($label)" >&2
		echo "  want $want" >&2
		echo "  got  $got" >&2
		echo "If the change is intentional, update $GOLDEN_FILE." >&2
		exit 1
	fi
	echo "golden output OK, $label ($got)"
}

check "fast-forward"
check "slow-tick" -slowtick
check "serial" -parallel 1
