#!/bin/sh
# Tier-1 gate: build, test, lint, format. Run from the repo root.
set -eux

cargo build --release --workspace
cargo build --release --examples
cargo test -q
cargo test -q --test scheduling_equivalence
cargo test -q --test analysis_equivalence
cargo test -q --test segment_robustness
cargo test -q --test segment_equivalence
cargo test -q --test query_proptest
cargo test -q --test query_equivalence
cargo bench --no-run --workspace
# The benchmark builds against the library by path: an API break must
# fail here, not at benchmark time.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo clippy -- -D warnings
cargo clippy -p wm-lint -- -D warnings
cargo fmt --check

# Static analysis: fails on findings above lint-baseline.json (new
# debt) or below it (stale baseline — ratchet down with
# --update-baseline).
cargo run -p wm-lint --release --quiet -- --deny-new

# Schema-stable JSON artifact (findings + panic roots) for downstream
# tooling; must parse and carry the version marker.
lint_json="$(mktemp)"
target/release/wm-lint --format json > "$lint_json"
grep -q '"version": 1' "$lint_json"
grep -q '"roots"' "$lint_json"
rm -f "$lint_json"

# The linter holds itself to the full rule pack: its own crate must be
# clean with no baseline entries at all.
if target/release/wm-lint | grep "crates/lint/src/"; then
    echo "wm-lint has findings in its own sources" >&2
    exit 1
fi

# Every registered rule id must explain itself.
for rule in $(target/release/wm-lint --rules); do
    target/release/wm-lint --explain "$rule" > /dev/null
done

# Smoke test: a tiny corpus through the single-pass analysis engine,
# then through the segment store: `index` builds and validates the
# segments, a full-history `analyze --cache` merges every segment, and a
# six-hour window is served from only the segments it intersects.
# (Plain grep, not -q: quitting at the first match closes the pipe
# mid-print.)
smoke_dir="$(mktemp -d)"
target/release/ovh-weather generate --out "$smoke_dir" --from 2022-02-01 --to 2022-02-02 --map europe --scale 0.05
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --metrics
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache --metrics | grep "segments:" > /dev/null
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache --metrics \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z | grep "segments:" > /dev/null
# Vectorized query engine: a windowed ad-hoc query over the indexed
# corpus, text and JSON modes.
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op topk --k 5 \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z | grep "snapshots," > /dev/null
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op percentiles --window 1 \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z --json | grep '"op":"percentiles"' > /dev/null
rm -rf "$smoke_dir"
